package core

import (
	"slices"
	"sort"
)

// span is the byte range [off, end) of one file.
type span struct{ off, end int64 }

// spans is a file's dirty ranges: sorted, disjoint and never adjacent.
type spans []span

// add merges [off, end) into l, swallowing every range it overlaps or
// touches.
func (l spans) add(off, end int64) spans {
	i := sort.Search(len(l), func(k int) bool { return l[k].end >= off })
	j := i
	for ; j < len(l) && l[j].off <= end; j++ {
		off, end = min(off, l[j].off), max(end, l[j].end)
	}
	return slices.Replace(l, i, j, span{off, end})
}
