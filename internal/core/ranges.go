package core

import (
	"context"
	"io"
	"slices"
	"sort"

	"monarch/internal/storage"
)

// span is the byte range [off, end) of one file.
type span struct{ off, end int64 }

// spans is ranges of one file; add keeps them sorted, disjoint and never adjacent.
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

// move copies ranges of name from one backend to the other in offset
// order, piece bytes at a time, calling after(off, n) as each piece
// lands; the first failure ends it. Each piece is one WriteAt into a file
// the caller allocated — or, with piece 0, each range is one WriteFile,
// an empty one included. A piece leaves out of from's own mapping where
// from lends one (storage.HoldableView) and is written under View.Lend,
// so a fault under it is an error wrapping storage.ErrFault, not a SIGBUS.
func move(ctx context.Context, from, to storage.Backend, name string, ranges spans, piece int64, after func(off, n int64)) error {
	rw, _ := to.(storage.RangeWriter)
	for _, r := range ranges {
		step := piece
		if piece == 0 {
			step = max(r.end-r.off, 1)
		}
		for off := r.off; off == r.off || off < r.end; off += step { // an empty range is one empty piece
			n := min(step, r.end-off)
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := storage.HoldableView(ctx, from, name, off, n)
			if err == nil {
				err = v.Lend(func(p []byte) error {
					if piece == 0 {
						return to.WriteFile(ctx, name, p)
					}
					return writeAt(ctx, rw, name, p, off)
				})
				v.Release()
			}
			if err != nil {
				return err
			}
			after(off, n)
		}
	}
	return nil
}

// writeAt writes p to name at off through rw. A short count with a nil
// error is io.ErrShortWrite: a refusal, not a smaller success.
func writeAt(ctx context.Context, rw storage.RangeWriter, name string, p []byte, off int64) error {
	n, err := rw.WriteAt(ctx, name, p, off)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return err
}
