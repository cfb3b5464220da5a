package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"monarch/internal/obs"
	"monarch/internal/storage"
)

// drainWith runs the queue like drain, handing every task ctx — the
// pool context a Shutdown would cancel.
func (p *manualPool) drainWith(ctx context.Context) {
	for len(p.q) > 0 {
		t := p.q[0]
		p.q = p.q[1:]
		t(ctx)
	}
}

// copyTier is a tier whose copy writes — the whole-file WriteFile and a
// chunk job's WriteAts alike — are numbered across attempts and pass
// through onCopy first: it fails write n with the error it returns, or
// cancels the pool context under it.
type copyTier struct {
	*storage.MemFS
	writes int
	onCopy func(n int) error
}

func (c *copyTier) before() error {
	c.writes++
	if c.onCopy == nil {
		return nil
	}
	return c.onCopy(c.writes)
}

func (c *copyTier) WriteFile(ctx context.Context, name string, data []byte) error {
	if err := c.before(); err != nil {
		return err
	}
	return c.MemFS.WriteFile(ctx, name, data)
}

func (c *copyTier) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if err := c.before(); err != nil {
		return 0, err
	}
	return c.MemFS.WriteAt(ctx, name, p, off)
}

const (
	settleFile  = "job/f"
	settleSize  = 64
	settleChunk = settleSize / 4
)

// settleRig is one of the twin stacks of TestPlacementSettleParity:
// [faulty(ssd), lustre] holding one file, a deterministic pool whose
// context the test owns, and every span and event recorded.
type settleRig struct {
	m      *Monarch
	pool   *manualPool
	ctx    context.Context
	cancel context.CancelFunc
	ssd    *copyTier
	tier0  *storage.Faulty
	log    *EventLog
	spans  []obs.Span
	// mid is the copy write that lands mid-copy: the one WriteFile of a
	// whole-file copy, a chunk job's second WriteAt — one chunk is down.
	mid int
}

func newSettleRig(t *testing.T, chunk, capacity int64, edit func(*Config)) *settleRig {
	t.Helper()
	pfs := storage.NewMemFS("lustre", 0)
	if err := pfs.WriteFile(context.Background(), settleFile, parityContent(settleFile)); err != nil {
		t.Fatal(err)
	}
	pfs.SetReadOnly(true)
	r := &settleRig{
		pool: &manualPool{},
		ssd:  &copyTier{MemFS: storage.NewMemFS("ssd", capacity)},
		log:  NewEventLog(256),
		mid:  1,
	}
	if chunk > 0 {
		r.mid = 2
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	t.Cleanup(r.cancel)
	r.tier0 = storage.NewFaulty(r.ssd)
	cfg := Config{
		Levels:        []storage.Backend{r.tier0, pfs},
		Pool:          r.pool,
		FullFileFetch: true,
		ChunkSize:     chunk,
		JobOf:         JobFromPath,
		Retry:         RetryPolicy{MaxAttempts: 2},
		Events:        r.log,
		Trace:         func(s obs.Span) { r.spans = append(r.spans, s) },
	}
	if edit != nil {
		edit(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.m = m
	return r
}

// failFrom fails every copy write numbered n or later with err.
func (r *settleRig) failFrom(n int, err error) {
	r.ssd.onCopy = func(i int) error {
		if i >= n {
			return err
		}
		return nil
	}
}

// settleOutcome is what a settle row must make identical across the two
// copy modes — and, apart, the series only a chunk job moves.
type settleOutcome struct {
	state   placementState
	level   int
	breaker TierState
	stats   Stats
	vars    map[string]float64
	spans   []string
	events  []string
	ledger  int64 // the job's bytes on tier 0, by the tenant table
	used    int64
	list    []storage.FileInfo

	chunks     int64 // Stats.ChunkPlacements
	chunkVars  map[string]float64
	writeBytes float64 // monarch_tier_write_bytes_total{tier="0"}: torn chunks count too
}

// chunkOnlyVars are the registry series a whole-file copy never moves.
var chunkOnlyVars = []string{
	"monarch_chunk_placements_total",
	"monarch_chunk_copy_latency_seconds_count",
	`monarch_events_total{kind="chunk-placed"}`,
	`monarch_errors_total{stage="chunk-copy"}`,
}

const tier0WriteBytes = `monarch_tier_write_bytes_total{tier="0"}`

// TestPlacementSettleParity runs every row of settle's outcome table
// once through a whole-file copy and once through a chunk job, on twin
// fixtures, and requires the two to end indistinguishable: same entry,
// same Stats and registry, same spans and events, same breaker and
// tenant ledger, same bytes on the tier — the chunk-only series apart,
// which are asserted on their own.
func TestPlacementSettleParity(t *testing.T) {
	permanent := fmt.Errorf("ssd: %w", storage.ErrReadOnly)
	for _, tc := range []struct {
		name     string
		capacity int64 // tier-0 quota; 0 is unlimited
		cfg      func(*Config)
		full     bool // the first read covers the file, so the copy can reuse it
		// prime arms the row after the foreground read, before the pool runs.
		prime func(r *settleRig)

		state    placementState
		breaker  TierState
		resident bool // the file ends up on tier 0
		check    func(s Stats) bool
		// A chunk job's own series: chunks landed over all tries, chunks
		// landed in a try that was then torn down, failed jobs.
		chunks, torn, chunkErrs int64
	}{
		{
			name:  "copied",
			state: statePlaced, resident: true, chunks: 4,
			check: func(s Stats) bool { return s.Placements == 1 && s.FullReadReuses == 0 },
		},
		{
			name: "copied by full-read reuse", full: true,
			state: statePlaced, resident: true,
			check: func(s Stats) bool { return s.Placements == 1 && s.FullReadReuses == 1 },
		},
		{
			name: "no tier admitted", capacity: settleSize / 2, // full tier, no policy
			state: stateUnplaceable,
			check: func(s Stats) bool { return s.PlacementSkips == 1 && s.PlacementErrors == 0 },
		},
		{
			// Decided before a chunk job could start: a whole-file row in
			// either configuration.
			name: "fetch disabled", cfg: func(c *Config) { c.FullFileFetch = false },
			state: stateUnplaceable,
			check: func(s Stats) bool { return s.PlacementSkips == 1 && s.PlacementErrors == 0 },
		},
		{
			name:  "cancelled before admit",
			prime: func(r *settleRig) { r.cancel() },
			state: stateSource,
			check: func(s Stats) bool { return s.Placements+s.PlacementSkips+s.PlacementErrors+s.PlacementRetries == 0 },
		},
		{
			name: "cancelled mid-copy",
			prime: func(r *settleRig) {
				r.ssd.onCopy = func(n int) error {
					if n == r.mid {
						r.cancel() // the write under way sees its context end
					}
					return nil
				}
			},
			state: stateSource, chunks: 1, torn: 1,
			check: func(s Stats) bool { return s.Placements+s.PlacementSkips+s.PlacementErrors+s.PlacementRetries == 0 },
		},
		{
			name: "transient, retried, copied",
			prime: func(r *settleRig) {
				r.ssd.onCopy = func(n int) error {
					if n == r.mid {
						return storage.ErrInjected
					}
					return nil
				}
			},
			state: statePlaced, resident: true, chunks: 5, torn: 1, chunkErrs: 1,
			check: func(s Stats) bool { return s.PlacementRetries == 1 && s.Placements == 1 && s.PlacementErrors == 0 },
		},
		{
			name:  "transient, tries exhausted",
			cfg:   func(c *Config) { c.Health.WriteErrorThreshold = 3 },
			prime: func(r *settleRig) { r.failFrom(r.mid, storage.ErrInjected) },
			state: stateUnplaceable, breaker: TierSuspect, chunks: 1, torn: 1, chunkErrs: 2,
			check: func(s Stats) bool { return s.PlacementRetries == 1 && s.PlacementErrors == 1 && s.TierTrips == 0 },
		},
		{
			name:  "permanent failure",
			prime: func(r *settleRig) { r.failFrom(r.mid, permanent) },
			state: stateUnplaceable, breaker: TierSuspect, chunks: 1, torn: 1, chunkErrs: 1,
			check: func(s Stats) bool { return s.PlacementRetries == 0 && s.PlacementErrors == 1 },
		},
		{
			// The device drops off: the first failure opens the breaker,
			// so the retry it earns finds no tier to admit it.
			name:  "the failure that trips the breaker",
			cfg:   func(c *Config) { c.Health.WriteErrorThreshold = 1 },
			prime: func(r *settleRig) { r.tier0.Break() },
			state: stateUnplaceable, breaker: TierDown,
			check: func(s Stats) bool {
				return s.TierTrips == 1 && s.PlacementRetries == 1 && s.PlacementSkips == 1 && s.PlacementErrors == 0
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(chunk int64) settleOutcome {
				r := newSettleRig(t, chunk, tc.capacity, tc.cfg)
				// A partial first read leaves the copy to fetch the file —
				// through the chunk fan-out, when there is one.
				n := settleChunk
				if tc.full {
					n = settleSize
				}
				if _, err := r.m.ReadAt(context.Background(), settleFile, make([]byte, n), 0); err != nil {
					t.Fatal(err)
				}
				if tc.prime != nil {
					tc.prime(r)
				}
				r.pool.drainWith(r.ctx)

				e, _ := r.m.meta.get(settleFile)
				out := settleOutcome{breaker: r.m.TierState(0), stats: r.m.Stats(), vars: r.m.Registry().Vars()}
				out.state, out.level, _ = e.snapshot()
				out.ledger = r.m.tenants.usedBytes(JobFromPath(settleFile), 0)
				out.used = r.ssd.Used()
				out.list, _ = r.ssd.List(context.Background())
				out.chunks, out.stats.ChunkPlacements = out.stats.ChunkPlacements, 0
				out.chunkVars = map[string]float64{}
				for _, k := range chunkOnlyVars {
					out.chunkVars[k] = out.vars[k]
					delete(out.vars, k)
				}
				out.writeBytes = out.vars[tier0WriteBytes]
				delete(out.vars, tier0WriteBytes)
				for k := range out.vars {
					if strings.Contains(k, "_seconds_sum") || strings.HasPrefix(k, "monarch_uptime_seconds") {
						delete(out.vars, k)
					}
				}
				for _, s := range r.spans {
					if s.Kind != obs.SpanChunkCopy {
						out.spans = append(out.spans, fmt.Sprintf("%v tier=%d flags=%v bytes=%d attempt=%d err=%q",
							s.Kind, s.Tier, s.Flags, s.Bytes, s.Attempt, errString(s.Err)))
					}
				}
				for _, ev := range r.log.Events() {
					if ev.Kind != EventChunkPlaced {
						out.events = append(out.events, fmt.Sprintf("%v %s level=%d bytes=%d err=%q",
							ev.Kind, ev.File, ev.Level, ev.Bytes, errString(ev.Err)))
					}
				}
				return out
			}
			whole, chunked := run(0), run(settleChunk)

			// The row happened, as the table says it ends.
			wantLevel, wantBytes := 1, int64(0)
			if tc.resident {
				wantLevel, wantBytes = 0, settleSize
			}
			if whole.state != tc.state || whole.level != wantLevel || whole.breaker != tc.breaker {
				t.Errorf("whole-file: entry state %d on level %d, breaker %v; want state %d on level %d, breaker %v",
					whole.state, whole.level, whole.breaker, tc.state, wantLevel, tc.breaker)
			}
			if !tc.check(whole.stats) {
				t.Errorf("whole-file did not exercise the row: %+v", whole.stats)
			}
			if whole.used != wantBytes || whole.ledger != wantBytes || (len(whole.list) == 1) != tc.resident {
				t.Errorf("whole-file: tier 0 holds %v (%d bytes), the job's ledger %d; want %d bytes",
					whole.list, whole.used, whole.ledger, wantBytes)
			}

			// Both modes agree.
			if chunked.state != whole.state || chunked.level != whole.level || chunked.breaker != whole.breaker {
				t.Errorf("entry state/level/breaker: whole-file %d/%d/%v, chunked %d/%d/%v",
					whole.state, whole.level, whole.breaker, chunked.state, chunked.level, chunked.breaker)
			}
			if chunked.used != whole.used || chunked.ledger != whole.ledger || !reflect.DeepEqual(chunked.list, whole.list) {
				t.Errorf("tier 0: whole-file holds %v (%d bytes, ledger %d), chunked %v (%d bytes, ledger %d)",
					whole.list, whole.used, whole.ledger, chunked.list, chunked.used, chunked.ledger)
			}
			if !reflect.DeepEqual(whole.stats, chunked.stats) {
				t.Errorf("Stats differ:\n whole-file %+v\n chunked    %+v", whole.stats, chunked.stats)
			}
			for k, v := range whole.vars {
				if chunked.vars[k] != v {
					t.Errorf("registry %s: whole-file %v, chunked %v", k, v, chunked.vars[k])
				}
			}
			if len(whole.vars) != len(chunked.vars) {
				t.Errorf("registry: whole-file has %d series, chunked %d", len(whole.vars), len(chunked.vars))
			}
			if !reflect.DeepEqual(whole.spans, chunked.spans) {
				t.Errorf("spans differ:\n whole-file %q\n chunked    %q", whole.spans, chunked.spans)
			}
			if !reflect.DeepEqual(whole.events, chunked.events) {
				t.Errorf("events differ:\n whole-file %q\n chunked    %q", whole.events, chunked.events)
			}

			// The chunk-only series: still for a whole-file copy, and for a
			// chunk job exactly what its chunks did.
			if whole.chunks != 0 || whole.writeBytes != float64(wantBytes) {
				t.Errorf("whole-file: %d chunk placements, %v bytes written to tier 0; want 0 and %d",
					whole.chunks, whole.writeBytes, wantBytes)
			}
			if want := float64(wantBytes + tc.torn*settleChunk); chunked.chunks != tc.chunks || chunked.writeBytes != want {
				t.Errorf("chunked: %d chunk placements, %v bytes written to tier 0; want %d and %v",
					chunked.chunks, chunked.writeBytes, tc.chunks, want)
			}
			for _, k := range chunkOnlyVars {
				want := float64(tc.chunks)
				if strings.Contains(k, "chunk-copy") {
					want = float64(tc.chunkErrs)
				}
				if whole.chunkVars[k] != 0 || chunked.chunkVars[k] != want {
					t.Errorf("%s: whole-file %v, chunked %v; want 0 and %v", k, whole.chunkVars[k], chunked.chunkVars[k], want)
				}
			}
		})
	}
}
