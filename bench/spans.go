package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark from outside the program. Spans of one loader request
// share Req (the root span's ID); Parent is the span that caused this
// one, 0 for a root.
type span struct {
	ID, Parent, Req uint64
	Name            string
	Start, End      int64 // ns since the recorder was created
}

// recorder keeps every span in memory until the run ends. A nil
// *recorder means tracing is off; the shims are then not installed at
// all, so the untraced run pays nothing.
type recorder struct {
	base time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// spanRef is what travels in a context: the enclosing span and the
// request it belongs to.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	r               *recorder
	id, parent, req uint64
	name            string
	start           int64
}

// begin starts a span named name under whatever span ctx carries.
func (r *recorder) begin(ctx context.Context, name string) openSpan {
	o := openSpan{r: r, id: r.next.Add(1), name: name}
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		o.parent, o.req = ref.id, ref.req
	} else {
		o.req = o.id
	}
	o.start = int64(time.Since(r.base))
	return o
}

// within returns a context whose spans are children of o.
func (o openSpan) within(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id: o.id, req: o.req})
}

// end closes the span and stores it.
func (o openSpan) end() {
	end := int64(time.Since(o.r.base))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: end})
	o.r.mu.Unlock()
}

// now is the recorder's clock, for marking phase boundaries.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanSet indexes a finished run's spans for the per-layer metrics.
type spanSet struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) *spanSet {
	s := &spanSet{byName: make(map[string][]span), children: make(map[uint64][]span)}
	for _, sp := range spans {
		s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		if sp.Parent != 0 {
			s.children[sp.Parent] = append(s.children[sp.Parent], sp)
		}
	}
	return s
}

// window keeps the spans of name that started inside [from, to).
func (s *spanSet) window(name string, from, to int64) []span {
	var out []span
	for _, sp := range s.byName[name] {
		if sp.Start >= from && sp.Start < to {
			out = append(out, sp)
		}
	}
	return out
}

// durations returns each span's length in nanoseconds.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, sp := range spans {
		out[i] = float64(sp.End - sp.Start)
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children may overlap each other).
func (s *spanSet) selfTimes(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, sp := range spans {
		kids := s.children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, sp.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = float64(sp.End - sp.Start - covered)
	}
	return out
}

// writeSpans writes the spans as gzipped CSV, one per line. A traced
// run records on the order of a million of them.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // the level is valid
	w := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(w, "id,parent,req,name,start_ns,end_ns")
	for _, sp := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", sp.ID, sp.Parent, sp.Req, sp.Name, sp.Start, sp.End)
	}
	err = w.Flush()
	if err == nil {
		err = zw.Close()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
