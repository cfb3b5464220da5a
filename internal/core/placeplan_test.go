package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
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
// chunked copy's WriteAts alike — are numbered across attempts and pass
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
	pfs    *storage.Counting
	log    *EventLog
	spans  []obs.Span
	// mid is the copy write that lands mid-copy: the one WriteFile of a
	// whole-file copy, a chunked copy's second WriteAt — one window is down.
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
	r.pfs = storage.NewCounting(pfs)
	cfg := Config{
		Levels:        []storage.Backend{r.tier0, r.pfs},
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
// copy modes — and, apart, the series only a chunked copy moves and the
// ones only a whole-file copy of a file this small does: its partial
// first read is a fetch-through, so its copy is a full-read reuse.
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

	fetches, fetchBytes, reuses int64 // Stats.FetchThroughs, FetchThroughBytes, FullReadReuses
	fetchVars                   map[string]float64
	reuseSpan                   bool  // the placement span carried the reuse flag
	srcOps                      int64 // data ops the source saw, the first read's included
}

// chunkOnlyVars are the registry series a whole-file copy never moves.
var chunkOnlyVars = []string{
	"monarch_chunk_placements_total",
	"monarch_chunk_copy_latency_seconds_count",
	`monarch_events_total{kind="chunk-placed"}`,
	`monarch_errors_total{stage="chunk-copy"}`,
}

// fetchOnlyVars are the registry series only fetch-through and the reuse
// row it ends in move: Stats.FetchThroughs, FetchThroughBytes and
// FullReadReuses.
var fetchOnlyVars = []string{
	"monarch_fetch_throughs_total",
	"monarch_fetch_through_bytes_total",
	"monarch_full_read_reuses_total",
}

const tier0WriteBytes = `monarch_tier_write_bytes_total{tier="0"}`

// TestPlacementSettleParity runs every row of settle's outcome table
// once through a whole-file copy and once through a chunked copy, on twin
// fixtures, and requires the two to end indistinguishable: same entry,
// same Stats and registry, same spans and events, same breaker and
// tenant ledger, same bytes on the tier — the chunk-only series apart,
// which are asserted on their own, as is what fetch-through changes for
// the whole-file side: its first read is the file's only source op in
// every row (the chunked copy reads the source again), its tries take the
// reuse row, and the entry's buffer is gone once any row has settled.
func TestPlacementSettleParity(t *testing.T) {
	permanent := fmt.Errorf("ssd: %w", storage.ErrReadOnly)
	for _, tc := range []struct {
		name     string
		capacity int64 // tier-0 quota; 0 is unlimited
		cfg      func(*Config)
		full     bool // the first read covers the file, so the copy can reuse it
		off      int64
		// prime arms the row after the foreground read, before the pool runs.
		prime func(r *settleRig)

		state    placementState
		breaker  TierState
		resident bool // the file ends up on tier 0
		check    func(s Stats) bool
		// A chunked copy's own series: chunks landed over all tries, chunks
		// landed in a try that was then torn down, failed jobs.
		chunks, torn, chunkErrs int64
		// The whole-file side's own: whether its partial first read fetched
		// the file through, and how many tries reached the reuse row.
		fetched bool
		reuses  int64
	}{
		{
			name:  "copied",
			state: statePlaced, resident: true, chunks: 4, fetched: true, reuses: 1,
			check: func(s Stats) bool { return s.Placements == 1 },
		},
		{
			name: "copied by full-read reuse", full: true,
			state: statePlaced, resident: true, reuses: 1,
			check: func(s Stats) bool { return s.Placements == 1 },
		},
		{
			// Full tier, no policy. The first read starts past 0: a first miss
			// at 0 would be the pass's read-ahead, which outlives settle.
			name: "no tier admitted", capacity: settleSize / 2, off: settleChunk,
			state: stateUnplaceable,
			check: func(s Stats) bool { return s.PlacementSkips == 1 && s.PlacementErrors == 0 },
		},
		{
			// Decided before a chunked copy could start: a whole-file row in
			// either configuration.
			name: "fetch disabled", cfg: func(c *Config) { c.FullFileFetch = false },
			state: stateUnplaceable,
			check: func(s Stats) bool { return s.PlacementSkips == 1 && s.PlacementErrors == 0 },
		},
		{
			name:  "cancelled before admit",
			prime: func(r *settleRig) { r.cancel() },
			state: stateSource, fetched: true,
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
			state: stateSource, chunks: 1, torn: 1, fetched: true, reuses: 1,
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
			state: statePlaced, resident: true, chunks: 5, torn: 1, chunkErrs: 1, fetched: true, reuses: 2,
			check: func(s Stats) bool { return s.PlacementRetries == 1 && s.Placements == 1 && s.PlacementErrors == 0 },
		},
		{
			name:  "transient, tries exhausted",
			cfg:   func(c *Config) { c.Health.WriteErrorThreshold = 3 },
			prime: func(r *settleRig) { r.failFrom(r.mid, storage.ErrInjected) },
			state: stateUnplaceable, breaker: TierSuspect, chunks: 1, torn: 1, chunkErrs: 2, fetched: true, reuses: 2,
			check: func(s Stats) bool { return s.PlacementRetries == 1 && s.PlacementErrors == 1 && s.TierTrips == 0 },
		},
		{
			name:  "permanent failure",
			prime: func(r *settleRig) { r.failFrom(r.mid, permanent) },
			state: stateUnplaceable, breaker: TierSuspect, chunks: 1, torn: 1, chunkErrs: 1, fetched: true, reuses: 1,
			check: func(s Stats) bool { return s.PlacementRetries == 0 && s.PlacementErrors == 1 },
		},
		{
			// The device drops off: the first failure opens the breaker,
			// so the retry it earns finds no tier to admit it.
			name:  "the failure that trips the breaker",
			cfg:   func(c *Config) { c.Health.WriteErrorThreshold = 1 },
			prime: func(r *settleRig) { r.tier0.Break() },
			state: stateUnplaceable, breaker: TierDown, fetched: true, reuses: 1,
			check: func(s Stats) bool {
				return s.TierTrips == 1 && s.PlacementRetries == 1 && s.PlacementSkips == 1 && s.PlacementErrors == 0
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(chunk int64) settleOutcome {
				r := newSettleRig(t, chunk, tc.capacity, tc.cfg)
				// A partial first read leaves the copy to fetch the file —
				// through the chunked copy, when there is one.
				n := settleChunk
				if tc.full {
					n = settleSize
				}
				if _, err := r.m.ReadAt(context.Background(), settleFile, make([]byte, n), tc.off); err != nil {
					t.Fatal(err)
				}
				if tc.prime != nil {
					tc.prime(r)
				}
				e, _ := r.m.meta.get(settleFile)
				if lent := e.fetch.Load() != nil; lent != (chunk == 0 && tc.fetched) {
					t.Errorf("chunk=%d: entry holds a fetch-through buffer before the pool runs: %v", chunk, lent)
				}
				// A whole-file try is one copy write, so a later one is a retry's,
				// behind a settle that dropped the entry's buffer: the retry
				// reuses the slice its attempt carries.
				inner := r.ssd.onCopy
				r.ssd.onCopy = func(n int) error {
					if chunk == 0 && n > 1 && e.fetch.Load() != nil {
						t.Errorf("copy write %d, a retry's, ran with the entry's buffer still published", n)
					}
					if inner == nil {
						return nil
					}
					return inner(n)
				}
				foreground := len(r.spans)
				r.pool.drainWith(r.ctx)
				if e.fetch.Load() != nil {
					t.Errorf("chunk=%d: the entry's buffer outlived settle", chunk)
				}

				out := settleOutcome{breaker: r.m.TierState(0), stats: r.m.Stats(), vars: registryVars(t, r.m.Registry())}
				out.srcOps = r.pfs.Counts().DataOps()
				if data, err := r.ssd.ReadFile(context.Background(), settleFile); err == nil && !bytes.Equal(data, parityContent(settleFile)) {
					t.Errorf("chunk=%d: tier 0 holds bytes that differ from the source", chunk)
				}
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
				out.fetches, out.fetchBytes, out.reuses = out.stats.FetchThroughs, out.stats.FetchThroughBytes, out.stats.FullReadReuses
				out.stats.FetchThroughs, out.stats.FetchThroughBytes, out.stats.FullReadReuses = 0, 0, 0
				out.fetchVars = map[string]float64{}
				for _, k := range fetchOnlyVars {
					out.fetchVars[k] = out.vars[k]
					delete(out.vars, k)
				}
				for k := range out.vars {
					// The source's own op series differ by design: srcOps.
					if strings.Contains(k, "_seconds_sum") || strings.HasPrefix(k, "monarch_uptime_seconds") ||
						strings.Contains(k, `backend="lustre"`) {
						delete(out.vars, k)
					}
				}
				for _, s := range r.spans {
					if s.Kind != obs.SpanChunkCopy {
						out.reuseSpan = out.reuseSpan || s.Flags&obs.FlagReuse != 0
						out.spans = append(out.spans, fmt.Sprintf("%v tier=%d flags=%v bytes=%d attempt=%d err=%q",
							s.Kind, s.Tier, s.Flags&^obs.FlagReuse, s.Bytes, s.Attempt, errString(s.Err)))
					}
				}
				// The foreground's two spans: a fetch-through enqueues inside
				// the read, a plain first read before it.
				sort.Strings(out.spans[:foreground])
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
			// chunked copy exactly what its chunks did.
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

			// The fetch-through series: the whole-file side's partial first
			// read was the file's one fetch, the chunked copy never has one, and
			// only a first read that covered the file is reused by both.
			var wantFetches, wantBoth int64
			if tc.fetched {
				wantFetches = 1
			}
			if tc.full {
				wantBoth = 1
			}
			for _, c := range []struct {
				series         string
				whole, chunked int64
				want           [2]int64
			}{
				{"monarch_fetch_throughs_total", whole.fetches, chunked.fetches, [2]int64{wantFetches, 0}},
				{"monarch_fetch_through_bytes_total", whole.fetchBytes, chunked.fetchBytes, [2]int64{wantFetches * settleSize, 0}},
				{"monarch_full_read_reuses_total", whole.reuses, chunked.reuses, [2]int64{tc.reuses, wantBoth}},
			} {
				wv, cv := whole.fetchVars[c.series], chunked.fetchVars[c.series]
				if [2]int64{c.whole, c.chunked} != c.want || wv != float64(c.want[0]) || cv != float64(c.want[1]) {
					t.Errorf("%s: whole-file %d (registry %v), chunked %d (registry %v); want %d and %d",
						c.series, c.whole, wv, c.chunked, cv, c.want[0], c.want[1])
				}
			}
			placedByReuse := tc.resident && tc.reuses > 0
			if whole.reuseSpan != placedByReuse || chunked.reuseSpan != (tc.resident && tc.full) {
				t.Errorf("placement span's reuse flag: whole-file %v, chunked %v; want %v and %v",
					whole.reuseSpan, chunked.reuseSpan, placedByReuse, tc.resident && tc.full)
			}
			if whole.srcOps != 1 {
				t.Errorf("whole-file: the source saw %d data ops; want the first read's one in every row", whole.srcOps)
			}
		})
	}
}
