package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// assertStatsParity proves the Stats-as-view invariant: every field of a
// Stats() snapshot must equal the corresponding series in the obs
// registry. Call only when the instance is idle — the two snapshots are
// not taken atomically.
func assertStatsParity(t *testing.T, m *Monarch) {
	t.Helper()
	s := m.Stats()
	snap := m.Registry().Snapshot()
	intVal := func(name string, labels ...obs.Label) int64 {
		t.Helper()
		v, ok := snap.Int(name, labels...)
		if !ok {
			t.Fatalf("metric %s%v missing from registry", name, labels)
		}
		return v
	}
	for i := range s.ReadsServed {
		tier := obs.L("tier", strconv.Itoa(i))
		if got := intVal("monarch_tier_read_ops_total", tier); got != s.ReadsServed[i] {
			t.Errorf("tier %d read ops: registry %d, Stats %d", i, got, s.ReadsServed[i])
		}
		if got := intVal("monarch_tier_read_bytes_total", tier); got != s.BytesServed[i] {
			t.Errorf("tier %d read bytes: registry %d, Stats %d", i, got, s.BytesServed[i])
		}
	}
	checks := []struct {
		name string
		want int64
	}{
		{"monarch_placements_total", s.Placements},
		{"monarch_placed_bytes_total", s.PlacedBytes},
		{"monarch_placement_skips_total", s.PlacementSkips},
		{"monarch_placement_errors_total", s.PlacementErrors},
		{"monarch_full_read_reuses_total", s.FullReadReuses},
		{"monarch_chunk_placements_total", s.ChunkPlacements},
		{"monarch_partial_hits_total", s.PartialHits},
		{"monarch_partial_hit_bytes_total", s.PartialHitBytes},
		{"monarch_fallbacks_total", s.Fallbacks},
		{"monarch_evictions_total", s.Evictions},
		{"monarch_demotions_total", s.Demotions},
		{"monarch_placement_retries_total", s.PlacementRetries},
		{"monarch_tier_trips_total", s.TierTrips},
		{"monarch_tier_recoveries_total", s.TierRecoveries},
		{"monarch_probes_total", s.Probes},
	}
	for _, c := range checks {
		if got := intVal(c.name); got != c.want {
			t.Errorf("%s: registry %d, Stats %d", c.name, got, c.want)
		}
	}
	if v, ok := snap.Value("monarch_hit_ratio"); !ok || v != s.HitRatio() {
		t.Errorf("hit ratio: registry %v (ok=%v), Stats %v", v, ok, s.HitRatio())
	}
	if v, ok := snap.Value("monarch_inflight_placements"); !ok || int(v) != s.InFlight {
		t.Errorf("inflight: registry %v (ok=%v), Stats %d", v, ok, s.InFlight)
	}
}

// TestStatsRegistryParityWholeFile checks parity on the plain path, plus
// two registry-only signals Stats cannot carry: read latency histograms
// (one observation per served read) and per-kind event counters in
// lock-step with the event log.
func TestStatsRegistryParityWholeFile(t *testing.T) {
	const nfiles, size = 5, 100
	log := NewEventLog(256)
	f := newFixture(t, 0, nfiles, size, func(c *Config) { c.Events = log })
	p := make([]byte, size)
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < nfiles; i++ {
			if _, err := f.m.ReadAt(context.Background(), fmt.Sprintf("f%03d", i), p, 0); err != nil {
				t.Fatal(err)
			}
		}
		f.waitIdle(t)
	}
	assertStatsParity(t, f.m)

	s := f.m.Stats()
	snap := f.m.Registry().Snapshot()
	for i := range s.ReadsServed {
		hp, ok := snap.Hist("monarch_read_latency_seconds", obs.L("tier", strconv.Itoa(i)))
		if !ok {
			t.Fatalf("tier %d read latency histogram missing", i)
		}
		if int64(hp.Count) != s.ReadsServed[i] {
			t.Errorf("tier %d latency observations = %d, reads served = %d", i, hp.Count, s.ReadsServed[i])
		}
	}
	if hp, ok := snap.Hist("monarch_placement_latency_seconds"); !ok || int64(hp.Count) != s.Placements {
		t.Errorf("placement latency observations vs placements: hist=%+v placements=%d", hp, s.Placements)
	}
	// Event funnel: the registry's per-kind counters and the event log
	// are fed by the same call, so they must agree.
	byKind := map[EventKind]int64{}
	for _, e := range log.Events() {
		byKind[e.Kind]++
	}
	for k := EventKind(0); k < eventKinds; k++ {
		got, ok := snap.Int("monarch_events_total", obs.L("kind", k.String()))
		if !ok {
			t.Fatalf("events_total{kind=%q} missing", k)
		}
		if got != byKind[k] {
			t.Errorf("events_total{kind=%q} = %d, event log has %d", k, got, byKind[k])
		}
	}
}

func TestStatsRegistryParityChunked(t *testing.T) {
	const nfiles, size = 3, 1024 // 4 chunks of 256 each
	m := newChunkStack(t, storage.NewMemFS("ssd", 0), 4, nfiles, size, nil)
	// Partial first reads trigger the chunked copy (full reads would
	// take the full-content reuse path); a second epoch of full reads
	// then exercises tier-0 serving.
	for i := 0; i < nfiles; i++ {
		if _, err := m.ReadAt(context.Background(), fmt.Sprintf("c%03d", i), make([]byte, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitIdleM(t, m)
	p := make([]byte, size)
	for i := 0; i < nfiles; i++ {
		if _, err := m.ReadAt(context.Background(), fmt.Sprintf("c%03d", i), p, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitIdleM(t, m)
	assertStatsParity(t, m)

	s := m.Stats()
	if s.ChunkPlacements == 0 {
		t.Fatal("chunked scenario produced no chunk placements")
	}
	// Every chunk copy observes the chunk-copy latency histogram.
	hp, ok := m.Registry().Snapshot().Hist("monarch_chunk_copy_latency_seconds")
	if !ok || int64(hp.Count) != s.ChunkPlacements {
		t.Errorf("chunk copy observations vs chunk placements: hist=%+v chunks=%d", hp, s.ChunkPlacements)
	}
}

func TestStatsRegistryParityFaultyTier(t *testing.T) {
	const nfiles, size = 4, 100
	f := newHealthFixture(t, nfiles, size, nil)

	f.readAll(t, nfiles, size)
	f.waitIdle(t)
	assertStatsParity(t, f.m)

	// Break the tier: fallbacks, trips, demotions and failed probes all
	// land in both views.
	f.faulty.Break()
	for epoch := 0; epoch < 2; epoch++ {
		f.readAll(t, nfiles, size)
	}
	f.waitIdle(t)
	assertStatsParity(t, f.m)

	// Recover and re-place: probes, recoveries, retried placements.
	f.faulty.Fix()
	deadline := time.Now().Add(5 * time.Second)
	for f.m.TierState(0) != TierHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("tier never recovered (state %v)", f.m.TierState(0))
		}
		f.readAll(t, 1, size)
		time.Sleep(time.Millisecond)
	}
	f.readAll(t, nfiles, size)
	f.waitIdle(t)
	assertStatsParity(t, f.m)

	if s := f.m.Stats(); s.TierTrips == 0 || s.TierRecoveries == 0 || s.Fallbacks == 0 {
		t.Fatalf("faulty scenario exercised nothing: %+v", s)
	}
}

// TestBreakerStateGauge drives the circuit breaker around its full cycle
// and asserts the monarch_tier_breaker_state gauge tracks every
// transition: Healthy(0) → Suspect(1) → Down(2) → Healthy(0).
func TestBreakerStateGauge(t *testing.T) {
	const nfiles, size = 4, 100
	f := newHealthFixture(t, nfiles, size, nil) // thresholds: 2 errors, probe gate 1 read
	gauge := func() float64 {
		t.Helper()
		v, ok := f.m.Registry().Snapshot().Value("monarch_tier_breaker_state", obs.L("tier", "0"))
		if !ok {
			t.Fatal("breaker gauge missing")
		}
		return v
	}
	read := func(i int) {
		t.Helper()
		p := make([]byte, size)
		if _, err := f.m.ReadAt(context.Background(), fmt.Sprintf("f%03d", i), p, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Place everything so reads hit tier 0, then walk the transitions.
	f.readAll(t, nfiles, size)
	f.waitIdle(t)
	steps := []struct {
		name string
		act  func()
		want float64
	}{
		{"healthy after placement", func() {}, 0},
		{"suspect after first error", func() { f.faulty.Break(); read(0) }, 1},
		{"down at threshold", func() { read(1) }, 2},
	}
	for _, step := range steps {
		step.act()
		if got := gauge(); got != step.want {
			t.Fatalf("%s: breaker gauge = %v, want %v", step.name, got, step.want)
		}
		if got := float64(f.m.TierState(0)); got != step.want {
			t.Fatalf("%s: gauge and TierState disagree", step.name)
		}
	}

	// Recovery: the gauge must return to 0 once a probe succeeds.
	f.faulty.Fix()
	deadline := time.Now().Add(5 * time.Second)
	for gauge() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("breaker gauge never returned to healthy (now %v)", gauge())
		}
		read(0) // ticks the probe gate
		time.Sleep(time.Millisecond)
	}
}

// failAllWriteAts lets Allocate through and fails every chunk WriteAt,
// so a multi-chunk placement sees several concurrent chunk failures.
type failAllWriteAts struct {
	*storage.MemFS
}

var errChunkInjected = errors.New("injected chunk write failure")

func (f *failAllWriteAts) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	return 0, errChunkInjected
}

// TestChunkCopyErrorCountedOnce is the regression test for the
// silent-drop fix: a failed chunked placement must increment
// monarch_errors_total{stage="chunk-copy"} exactly once per attempt,
// whichever of its windows would have failed, and the failure must
// surface in the event log.
func TestChunkCopyErrorCountedOnce(t *testing.T) {
	log := NewEventLog(64)
	tier0 := &failAllWriteAts{MemFS: storage.NewMemFS("ssd", 0)}
	m := newChunkStack(t, tier0, 4, 1, 1024, func(c *Config) { c.Events = log }) // 4 chunks, all doomed
	// A partial read triggers the chunked placement.
	if _, err := m.ReadAt(context.Background(), "c000", make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	waitIdleM(t, m)

	snap := m.Registry().Snapshot()
	if got, ok := snap.Int("monarch_errors_total", obs.L("stage", "chunk-copy")); !ok || got != 1 {
		t.Fatalf("errors_total{stage=chunk-copy} = %d (ok=%v), want exactly 1", got, ok)
	}
	if got, ok := snap.Int("monarch_errors_total", obs.L("stage", "placement")); !ok || got != 1 {
		t.Fatalf("errors_total{stage=placement} = %d (ok=%v), want 1", got, ok)
	}
	var failed int
	for _, e := range log.Events() {
		if e.Kind == EventFailed {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("event log has %d failed events, want 1", failed)
	}
	assertStatsParity(t, m)
}

// TestMetricsEndpoint is the acceptance scrape: with Config.MetricsAddr
// set, the HTTP endpoint must expose per-tier read bytes/ops, the hit
// ratio, the placement latency histogram and the breaker state, and the
// JSON sibling must agree with Stats.
func TestMetricsEndpoint(t *testing.T) {
	const nfiles, size = 3, 100
	f := newFixture(t, 0, nfiles, size, func(c *Config) { c.MetricsAddr = "127.0.0.1:0" })
	p := make([]byte, size)
	for i := 0; i < nfiles; i++ {
		if _, err := f.m.ReadAt(context.Background(), fmt.Sprintf("f%03d", i), p, 0); err != nil {
			t.Fatal(err)
		}
	}
	f.waitIdle(t)

	base := f.m.MetricsURL()
	if base == "" {
		t.Fatal("MetricsURL empty with MetricsAddr set")
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`monarch_tier_read_ops_total{tier="0"}`,
		`monarch_tier_read_ops_total{tier="1"}`,
		`monarch_tier_read_bytes_total{tier="0"}`,
		`monarch_hit_ratio`,
		`monarch_placement_latency_seconds_bucket`,
		`monarch_tier_breaker_state{tier="0"} 0`,
		`monarch_placements_total 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// The JSON endpoint decodes into a Snapshot that matches Stats.
	resp, err = http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	s := f.m.Stats()
	if v, ok := snap.Int("monarch_tier_read_ops_total", obs.L("tier", "1")); !ok || v != s.ReadsServed[1] {
		t.Fatalf("json snapshot tier-1 ops = %d (ok=%v), Stats %d", v, ok, s.ReadsServed[1])
	}

	// /healthz is Healthz: every cache tier with its breaker state, 200
	// until one opens.
	probe := func() (int, obs.Health) {
		t.Helper()
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h obs.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("healthz: %v", err)
		}
		return resp.StatusCode, h
	}
	if code, h := probe(); code != http.StatusOK || len(h.Tiers) != f.m.Levels()-1 ||
		h.Tiers[0] != (obs.TierHealth{Tier: 0, Name: "ssd", State: "healthy"}) {
		t.Fatalf("healthz = %d %+v, want 200 with one healthy ssd tier", code, h)
	}
	f.m.ForceTierDown(0, errors.New("forced"))
	if code, h := probe(); code == http.StatusOK || h.Tiers[0].State != "down" {
		t.Fatalf("healthz with an open breaker = %d %+v", code, h)
	}
}

// TestMetricsAddrConflict ensures a bad listen address surfaces as a
// New error rather than a silent dead endpoint.
func TestMetricsAddrConflict(t *testing.T) {
	gp := pool.NewGoPool(1)
	defer gp.Close()
	cfg := Config{
		Levels:      []storage.Backend{storage.NewMemFS("a", 0), storage.NewMemFS("b", 0)},
		Pool:        gp,
		MetricsAddr: "256.256.256.256:0",
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid MetricsAddr did not fail New")
	}
}

// TestTraceSpans locks the span taxonomy on the hot paths: a cold read
// emits read + placement-enqueue, the background copy emits placement
// (and chunk-copy when chunked), and a warm read reports the upper tier.
func TestTraceSpans(t *testing.T) {
	var mu sync.Mutex
	var spans []obs.Span
	trace := func(s obs.Span) {
		mu.Lock()
		spans = append(spans, s)
		mu.Unlock()
	}
	const size = 1024
	m := newChunkStack(t, storage.NewMemFS("ssd", 0), 2, 1, size, func(c *Config) { c.Trace = trace })
	// Partial cold read (triggers chunked placement), then a warm full
	// read from tier 0.
	if _, err := m.ReadAt(context.Background(), "c000", make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	waitIdleM(t, m)
	if _, err := m.ReadAt(context.Background(), "c000", make([]byte, size), 0); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	byKind := map[obs.SpanKind][]obs.Span{}
	for _, s := range spans {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	reads := byKind[obs.SpanRead]
	if len(reads) != 2 || reads[0].Tier != 1 || reads[1].Tier != 0 {
		t.Fatalf("read spans = %+v, want cold from tier 1 then warm from tier 0", reads)
	}
	if reads[0].Bytes != 1 || reads[1].Bytes != size || reads[0].File != "c000" {
		t.Fatalf("read span fields wrong: %+v", reads)
	}
	if n := len(byKind[obs.SpanPlacementEnqueue]); n != 1 {
		t.Fatalf("placement-enqueue spans = %d, want 1", n)
	}
	placements := byKind[obs.SpanPlacement]
	if len(placements) != 1 || placements[0].Err != nil || placements[0].Tier != 0 {
		t.Fatalf("placement spans = %+v", placements)
	}
	if n := len(byKind[obs.SpanChunkCopy]); n != int(size/256) {
		t.Fatalf("chunk-copy spans = %d, want %d", n, size/256)
	}
}
