package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"monarch/internal/journal"
	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// spanLog collects an instance's spans for tests whose stack runs
// background goroutines (pool workers, the flusher).
type spanLog struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (l *spanLog) hook(s obs.Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// of returns the recorded spans of kind k that satisfy is (nil: all).
func (l *spanLog) of(k obs.SpanKind, is func(obs.Span) bool) []obs.Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obs.Span
	for _, s := range l.spans {
		if s.Kind == k && (is == nil || is(s)) {
			out = append(out, s)
		}
	}
	return out
}

const decisionSize = 1024

// decisionRig is newShardRig over files of decisionSize bytes, tier 0
// behind a fault injector, spans into log and edit applied last.
func decisionRig(t *testing.T, log *spanLog, capacity int64, edit func(*Config), names ...string) (*scanRig, *storage.Faulty) {
	t.Helper()
	files := make(map[string][]byte)
	for _, name := range names {
		files[name] = bytes.Repeat([]byte(name), decisionSize/len(name))
	}
	var tier0 *storage.Faulty
	r := newShardRig(t, files, capacity, func(c *Config) {
		tier0 = storage.NewFaulty(c.Levels[0])
		c.Levels[0] = tier0
		c.Trace = log.hook
		c.Health = HealthConfig{ProbeAfterReads: 1}
		if edit != nil {
			edit(c)
		}
	})
	return r, tier0
}

// writeRig is a write-back stack over a writable source, spans into log.
func writeRig(t *testing.T, log *spanLog, pfs storage.Backend, jpath string, budget int64) *Monarch {
	t.Helper()
	m, err := New(Config{
		Levels: []storage.Backend{storage.NewMemFS("ssd", 0), pfs},
		Pool:   pool.NewGoPool(2),
		Trace:  log.hook,
		Write:  WriteConfig{Enabled: true, Durability: backAll, JournalPath: jpath},
	})
	if err != nil {
		t.Fatal(err)
	}
	if budget > 0 {
		m.writes.budget = budget
	}
	t.Cleanup(m.Close)
	if err := m.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m
}

func forced(m *Monarch) { m.ForceTierDown(0, errors.New("forced")) }

// fellBackFrom matches a read span the source served after tier's first
// attempt failed with cause: FlagFallback, and the failure as its
// *obs.FallbackError.
func fellBackFrom(tier int, cause error) func(obs.Span) bool {
	return func(s obs.Span) bool {
		fb, ok := s.Err.(*obs.FallbackError)
		return s.Flags&obs.FlagFallback != 0 && ok && fb.Tier == tier && errors.Is(fb, cause) && !s.Failed()
	}
}

// TestEveryDecisionIsOneSpan: each decision core makes is recorded by
// exactly one span of its kind, on the tier and with the bytes the
// decision moved, beside exactly one increment of its own counter.
func TestEveryDecisionIsOneSpan(t *testing.T) {
	ctx := context.Background()
	isErr := func(s obs.Span) bool { return s.Err != nil }
	isOK := func(s obs.Span) bool { return s.Err == nil }
	flag := func(f obs.SpanFlags) func(obs.Span) bool {
		return func(s obs.Span) bool { return s.Flags&f != 0 }
	}
	stat := func(f func(Stats) int64) func(*Monarch) int64 {
		return func(m *Monarch) int64 { return f(m.Stats()) }
	}
	cases := []struct {
		name    string
		kind    obs.SpanKind
		is      func(obs.Span) bool
		tier    int
		bytes   int64
		counter func(*Monarch) int64
		run     func(t *testing.T, log *spanLog) *Monarch
	}{
		{"placed", obs.SpanPlacement, isOK, 0, decisionSize, stat(func(s Stats) int64 { return s.Placements }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, _ := decisionRig(t, log, 0, nil, "f")
				r.readFile(t, "f", false, 0, decisionSize)
				r.pool.drain()
				return r.m
			}},
		{"skipped", obs.SpanPlacement, isErr, -1, decisionSize, stat(func(s Stats) int64 { return s.PlacementSkips }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, _ := decisionRig(t, log, decisionSize/2, nil, "f")
				r.readFile(t, "f", false, 0, decisionSize)
				r.pool.drain()
				return r.m
			}},
		{"failed", obs.SpanPlacement, isErr, 0, decisionSize, stat(func(s Stats) int64 { return s.PlacementErrors }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, tier0 := decisionRig(t, log, 0, nil, "f")
				tier0.FailNextWrites(1)
				r.readFile(t, "f", false, 0, decisionSize)
				r.pool.drain()
				return r.m
			}},
		{"retried", obs.SpanRetry, isErr, 0, decisionSize, stat(func(s Stats) int64 { return s.PlacementRetries }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, tier0 := decisionRig(t, log, 0, func(c *Config) { c.Retry = RetryPolicy{MaxAttempts: 2} }, "f")
				tier0.FailNextWrites(1)
				r.readFile(t, "f", false, 0, decisionSize)
				r.pool.drain()
				return r.m
			}},
		{"chunk placed", obs.SpanChunkCopy, nil, 0, decisionSize, stat(func(s Stats) int64 { return s.ChunkPlacements }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, _ := decisionRig(t, log, 0, func(c *Config) { c.ChunkSize = decisionSize }, "f")
				r.readFile(t, "f", false, 0, 1)
				r.pool.drain()
				return r.m
			}},
		{"partial hit", obs.SpanRead, flag(obs.FlagPartial), 0, 1, stat(func(s Stats) int64 { return s.PartialHits }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, _ := decisionRig(t, log, 0, nil, "f")
				r.readFile(t, "f", false, 0, 1) // fetches the file through
				r.readFile(t, "f", false, 1, 1)
				return r.m
			}},
		{"evicted", obs.SpanEvict, nil, 0, decisionSize, stat(func(s Stats) int64 { return s.Evictions }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, _ := decisionRig(t, log, decisionSize, func(c *Config) { c.Eviction = NewLRU() }, "f", "g")
				for _, name := range []string{"f", "g"} {
					r.readFile(t, name, false, 0, decisionSize)
					r.pool.drain()
				}
				return r.m
			}},
		{"promoted", obs.SpanPromote, nil, -1, decisionSize, stat(func(s Stats) int64 { return s.Promotions }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, _ := decisionRig(t, log, decisionSize/2, func(c *Config) { c.Eviction = NewLRU() }, "f")
				r.readFile(t, "f", false, 0, decisionSize)
				r.pool.drain() // no victim frees enough: unplaceable
				r.readFile(t, "f", false, 0, decisionSize)
				return r.m
			}},
		{"fallback", obs.SpanRead, fellBackFrom(0, storage.ErrInjected), 1, decisionSize, stat(func(s Stats) int64 { return s.Fallbacks }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, tier0 := decisionRig(t, log, 0, nil, "f")
				r.readFile(t, "f", false, 0, decisionSize)
				r.pool.drain()
				tier0.FailNextReads(1)
				r.readFile(t, "f", false, 0, decisionSize)
				return r.m
			}},
		{"tier down", obs.SpanBreaker, isErr, 0, 0, stat(func(s Stats) int64 { return s.TierTrips }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, _ := decisionRig(t, log, 0, nil, "f")
				forced(r.m)
				return r.m
			}},
		{"demoted", obs.SpanDemote, nil, 0, decisionSize, stat(func(s Stats) int64 { return s.Demotions }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, _ := decisionRig(t, log, 0, nil, "f")
				r.readFile(t, "f", false, 0, decisionSize)
				r.pool.drain()
				forced(r.m)
				r.readFile(t, "f", false, 0, decisionSize)
				return r.m
			}},
		{"tier up", obs.SpanBreaker, isOK, 0, 1, stat(func(s Stats) int64 { return s.TierRecoveries }),
			func(t *testing.T, log *spanLog) *Monarch {
				r, _ := decisionRig(t, log, 0, nil, "f")
				r.readFile(t, "f", false, 0, decisionSize)
				r.pool.drain()
				forced(r.m)
				r.readFile(t, "f", false, 0, decisionSize) // asks for a probe, demotes f
				r.pool.drain()                             // the probe: f is re-placeable
				return r.m
			}},
		{"op error", obs.SpanOpError, isErr, 0, 0, func(m *Monarch) int64 { return errorsAt(m, "evict") },
			func(t *testing.T, log *spanLog) *Monarch {
				r, tier0 := decisionRig(t, log, decisionSize, func(c *Config) { c.Eviction = NewLRU() }, "f", "g")
				r.readFile(t, "f", false, 0, decisionSize)
				r.pool.drain()
				r.readFile(t, "g", false, 0, decisionSize)
				tier0.FailNextWrites(1) // the victim's removal
				r.pool.drain()
				return r.m
			}},
		{"flushed", obs.SpanFlush, isOK, 1, decisionSize, stat(func(s Stats) int64 { return s.Flushes }),
			func(t *testing.T, log *spanLog) *Monarch {
				m := writeRig(t, log, storage.NewMemFS("lustre", 0), "", 0)
				if err := m.Create(ctx, "w", decisionSize); err != nil {
					t.Fatal(err)
				}
				if _, err := m.WriteAt(ctx, "w", make([]byte, decisionSize), 0); err != nil {
					t.Fatal(err)
				}
				if err := m.Flush(ctx, ""); err != nil {
					t.Fatal(err)
				}
				return m
			}},
		{"write stalled", obs.SpanWrite, flag(obs.FlagStalled), 0, decisionSize, stat(func(s Stats) int64 { return s.WriteStalls }),
			func(t *testing.T, log *spanLog) *Monarch {
				pfs := newGatedBackend(storage.NewMemFS("lustre", 0))
				m := writeRig(t, log, pfs, "", decisionSize) // one write fills the budget
				if err := m.Create(ctx, "w", 2*decisionSize); err != nil {
					t.Fatal(err)
				}
				chunk := make([]byte, decisionSize)
				if _, err := m.WriteAt(ctx, "w", chunk, 0); err != nil {
					t.Fatal(err)
				}
				<-pfs.blocked // the flusher holds the budget
				done := make(chan error, 1)
				go func() {
					_, err := m.WriteAt(ctx, "w", chunk, decisionSize)
					done <- err
				}()
				eventually(t, "the second write stalls", func() bool { return m.Stats().WriteStalls == 1 })
				pfs.release()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if err := m.Flush(ctx, ""); err != nil {
					t.Fatal(err)
				}
				return m
			}},
		{"recovered", obs.SpanRecover, nil, 1, 1, stat(func(s Stats) int64 { return s.RecoveredFiles }),
			func(t *testing.T, log *spanLog) *Monarch {
				jpath := filepath.Join(t.TempDir(), "write.journal")
				jn, err := journal.Open(jpath, journal.Options{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := jn.Append(journal.Record{Kind: recAlloc, Name: "lost", Off: 32}); err != nil {
					t.Fatal(err)
				}
				jn.Close()
				return writeRig(t, log, storage.NewMemFS("lustre", 0), jpath, 0)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &spanLog{}
			m := tc.run(t, log)
			got := log.of(tc.kind, tc.is)
			if len(got) != 1 {
				t.Fatalf("%d %s spans, want exactly 1: %v", len(got), tc.kind, got)
			}
			if s := got[0]; s.Tier != tc.tier || s.Bytes != tc.bytes {
				t.Errorf("span %v: want tier %d, %d bytes", s, tc.tier, tc.bytes)
			}
			if n := tc.counter(m); n != 1 {
				t.Errorf("counter = %d, want 1", n)
			}
		})
	}
}

// TestTraceSinkFailureAtCloseStaysOutOfTheTrace: a trace sink that
// fails at Close is a best-effort error — an op-error span and
// errors{stage=cleanup} — and the span, having no trace row, is never
// offered to the recorder it could not be written to.
func TestTraceSinkFailureAtCloseStaysOutOfTheTrace(t *testing.T) {
	const full = "/dev/full" // every write fails with ENOSPC
	if _, err := os.Stat(full); err != nil {
		t.Skipf("%s: %v", full, err)
	}
	log := &spanLog{}
	f := newFixture(t, 0, 1, 64, func(c *Config) {
		c.TracePath = full
		c.Trace = log.hook
	})
	f.m.Close()
	got := log.of(obs.SpanOpError, nil)
	if len(got) != 1 || got[0].File != full || got[0].Err == nil || errorsAt(f.m, "cleanup") != 1 {
		t.Fatalf("op-error spans %v, errors{stage=cleanup} %d; want one for the sink", got, errorsAt(f.m, "cleanup"))
	}
	if st := f.m.Tracer().Stats(); st.Seen != 0 || st.Dropped != 0 {
		t.Fatalf("recorder %+v: the op-error span reached it", st)
	}
}

// TestMiddlewareEmitsLifecycleEvents: a tier that fits two of four files
// places two and skips two, and a read of a placed file off a broken tier
// falls back — each once in the span stream.
func TestMiddlewareEmitsLifecycleEvents(t *testing.T) {
	ctx := context.Background()
	log := &spanLog{}
	var tier0 *storage.Faulty
	f := newFixture(t, 250, 4, 100, func(c *Config) { // tier 0 fits 2
		tier0 = storage.NewFaulty(c.Levels[0])
		c.Levels[0] = tier0
		c.Trace = log.hook
	})
	buf := make([]byte, 10)
	for i := 0; i < 4; i++ {
		if _, err := f.m.ReadAt(ctx, fmt.Sprintf("f%03d", i), buf, 0); err != nil {
			t.Fatal(err)
		}
		f.waitIdle(t)
	}
	tier0.Break()
	if _, err := f.m.ReadAt(ctx, "f000", buf, 0); err != nil {
		t.Fatal(err)
	}
	placed := log.of(obs.SpanPlacement, func(s obs.Span) bool { return s.Err == nil })
	skipped := log.of(obs.SpanPlacement, func(s obs.Span) bool { return s.Tier < 0 })
	fellBack := log.of(obs.SpanRead, func(s obs.Span) bool { return s.Flags&obs.FlagFallback != 0 })
	if len(placed) != 2 || len(skipped) != 2 || len(fellBack) != 1 {
		t.Fatalf("placed %d, skipped %d, fell back %d; want 2, 2, 1", len(placed), len(skipped), len(fellBack))
	}
}
