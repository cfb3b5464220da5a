package trace

import "strconv"

// Cost is what one event cost the PFS, in data operations. Foreground
// ops are the ones a caller waited for; background ops moved bytes off
// the foreground path.
type Cost struct {
	Foreground int64
	Background int64
}

// Pricer says what each event of one trace cost the PFS — the one
// definition of the op count the analyzer reports and a faithful replay
// checks against the capture's recorded "pfs_data_ops". It is stateful:
// a placement that arrived as chunk copies was paid for chunk by chunk,
// so events must be priced in capture order, each exactly once.
type Pricer struct {
	chunk   int64
	chunked map[uint32]bool // files with chunk copies since their last placement
}

// NewPricer prices events of a trace with header h.
func NewPricer(h Header) *Pricer {
	p := &Pricer{chunked: make(map[uint32]bool)}
	if v, err := strconv.ParseInt(h.Meta["copy_chunk"], 10, 64); err == nil && v > 0 {
		p.chunk = v
	}
	return p
}

// CopyChunk is the request size a whole-file fetch pulls the source in
// (header meta "copy_chunk"); 0 when the capture did not say, and a
// fetch is then one request.
func (p *Pricer) CopyChunk() int64 { return p.chunk }

// Price returns ev's cost:
//
//	read      pfs, fallback, peer-miss    1 foreground (the source served it)
//	read      any other class             0 — a partial hit on the source
//	                                      level is a window of a read-ahead
//	                                      or fetch-through buffer, paid for
//	                                      by the read that armed it
//	write     write (through), remove     1 foreground
//	write     write-back, error           0 (the flush is priced on its own)
//	chunk-copy                            1 background
//	placement fetch, no chunks before it  ⌈Len / copy chunk⌉ background
//	placement anything else               0 (a reuse moved no source byte)
//	flush     flush                       1 background — ONE per flush event
//	                                      though the flusher lands a claim
//	                                      range by range: the exact count is
//	                                      the run's storage.pfs_write_ops
//	serve, epoch, state                   0
func (p *Pricer) Price(ev Event) (c Cost) {
	switch ev.Kind {
	case KindRead:
		switch ev.Class {
		case ClassPFS, ClassFallback, ClassPeerMiss:
			c.Foreground = 1
		}
	case KindWrite:
		switch ev.Class {
		case ClassWrite, ClassRemove:
			c.Foreground = 1
		}
	case KindChunkCopy:
		p.chunked[ev.File] = true
		c.Background = 1
	case KindPlacement:
		if ev.Class == ClassFetch && !p.chunked[ev.File] {
			c.Background = 1
			if ev.Len > 0 && p.chunk > 0 {
				c.Background = (ev.Len-1)/p.chunk + 1 // ⌈Len/chunk⌉, safe for any Len
			}
		}
		delete(p.chunked, ev.File)
	case KindFlush:
		if ev.Class != ClassError {
			c.Background = 1
		}
	}
	return c
}
