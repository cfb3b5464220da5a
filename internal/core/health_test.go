package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"monarch/internal/pool"
	"monarch/internal/storage"
)

// healthFixture wires a 2-level hierarchy whose tier 0 is a
// fault-injectable, op-counted MemFS, with aggressive breaker settings
// so tests trip and recover quickly.
type healthFixture struct {
	faulty *storage.Faulty
	tier0  *storage.Counting // wraps faulty: counts attempts against the tier
	pfs    *storage.MemFS
	log    *EventLog
	m      *Monarch
}

func newHealthFixture(t *testing.T, nfiles, size int, cfgEdit func(*Config)) *healthFixture {
	t.Helper()
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	for i := 0; i < nfiles; i++ {
		if err := pfs.WriteFile(ctx, fmt.Sprintf("f%03d", i),
			bytes.Repeat([]byte{byte(i + 1)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	pfs.SetReadOnly(true)
	faulty := storage.NewFaulty(storage.NewMemFS("ssd", 0))
	tier0 := storage.NewCounting(faulty)
	log := NewEventLog(1024)
	cfg := Config{
		Levels:        []storage.Backend{tier0, pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Events:        log,
		Health:        HealthConfig{ReadErrorThreshold: 2, WriteErrorThreshold: 2, ProbeAfterReads: 1},
	}
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return &healthFixture{faulty: faulty, tier0: tier0, pfs: pfs, log: log, m: m}
}

func (f *healthFixture) waitIdle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !f.m.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("placements did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *healthFixture) readAll(t *testing.T, nfiles, size int) {
	t.Helper()
	p := make([]byte, size)
	for i := 0; i < nfiles; i++ {
		name := fmt.Sprintf("f%03d", i)
		n, err := f.m.ReadAt(context.Background(), name, p, 0)
		if err != nil || n != size || p[0] != byte(i+1) {
			t.Fatalf("read %s: n=%d err=%v first=%d", name, n, err, p[0])
		}
	}
}

// TestSelfHealingLoop is the acceptance scenario: tier 0 breaks
// mid-run, the breaker opens within the configured threshold (bounded
// doomed attempts, then zero), entries demote to the PFS; after Fix a
// probe reopens the tier, demoted files are re-placed, and reads are
// served from tier 0 again — all visible via Stats and the EventLog.
func TestSelfHealingLoop(t *testing.T) {
	const nfiles, size = 4, 100
	f := newHealthFixture(t, nfiles, size, nil)

	// Epoch 1: everything placed on tier 0.
	f.readAll(t, nfiles, size)
	f.waitIdle(t)
	for i := 0; i < nfiles; i++ {
		if lvl, _ := f.m.LevelOf(fmt.Sprintf("f%03d", i)); lvl != 0 {
			t.Fatalf("f%03d not placed (level %d)", i, lvl)
		}
	}
	if st := f.m.TierState(0); st != TierHealthy {
		t.Fatalf("tier state = %v", st)
	}

	// The device dies. The breaker must open after at most
	// ReadErrorThreshold (=2) failed attempts; every further read must
	// go straight to the PFS with zero attempts against tier 0.
	f.faulty.Break()
	attemptsBefore := f.tier0.Counts().Ops[storage.OpRead]
	for epoch := 0; epoch < 2; epoch++ {
		f.readAll(t, nfiles, size)
	}
	doomed := f.tier0.Counts().Ops[storage.OpRead] - attemptsBefore
	if doomed > 2 {
		t.Fatalf("doomed tier-0 read attempts = %d, want <= threshold 2", doomed)
	}
	if st := f.m.TierState(0); st != TierDown {
		t.Fatalf("tier state = %v, want down", st)
	}
	for i := 0; i < nfiles; i++ {
		if lvl, _ := f.m.LevelOf(fmt.Sprintf("f%03d", i)); lvl != 1 {
			t.Fatalf("f%03d not demoted (level %d)", i, lvl)
		}
	}
	f.waitIdle(t) // probes run on the pool; let them land
	st := f.m.Stats()
	if st.TierTrips != 1 || st.Demotions != nfiles {
		t.Fatalf("trips=%d demotions=%d, want 1/%d", st.TierTrips, st.Demotions, nfiles)
	}
	if st.Fallbacks != 2 {
		t.Fatalf("fallbacks = %d, want exactly the 2 doomed attempts", st.Fallbacks)
	}
	if st.Probes == 0 {
		t.Fatal("no recovery probes attempted while down")
	}

	// The device comes back: the next read's probe must reopen the tier.
	f.faulty.Fix()
	deadline := time.Now().Add(5 * time.Second)
	for f.m.TierState(0) != TierHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("tier never recovered (state %v)", f.m.TierState(0))
		}
		f.readAll(t, 1, size) // ticks the probe gate
		time.Sleep(time.Millisecond)
	}

	// Re-placement epoch: demoted entries re-enter the pipeline.
	f.readAll(t, nfiles, size)
	f.waitIdle(t)
	for i := 0; i < nfiles; i++ {
		if lvl, _ := f.m.LevelOf(fmt.Sprintf("f%03d", i)); lvl != 0 {
			t.Fatalf("f%03d not re-placed (level %d)", i, lvl)
		}
	}
	// And the next epoch is served from tier 0 again.
	served0 := f.m.Stats().ReadsServed[0]
	f.readAll(t, nfiles, size)
	if got := f.m.Stats().ReadsServed[0] - served0; got != nfiles {
		t.Fatalf("post-recovery reads from tier0 = %d, want %d", got, nfiles)
	}

	st = f.m.Stats()
	if st.TierRecoveries != 1 {
		t.Fatalf("recoveries = %d", st.TierRecoveries)
	}
	if st.Placements != 2*nfiles {
		t.Fatalf("placements = %d, want %d (initial + re-placement)", st.Placements, 2*nfiles)
	}
	byKind := map[EventKind]int{}
	for _, e := range f.log.Events() {
		byKind[e.Kind]++
	}
	if byKind[EventTierDown] != 1 || byKind[EventTierUp] != 1 {
		t.Fatalf("tier events down=%d up=%d", byKind[EventTierDown], byKind[EventTierUp])
	}
	if byKind[EventDemoted] != nfiles {
		t.Fatalf("demoted events = %d", byKind[EventDemoted])
	}
}

// TestRetryRecoversFromTransientWriteFailure: with Config.Retry, one
// injected transient write failure re-queues the placement instead of
// marking the file unplaceable.
func TestRetryRecoversFromTransientWriteFailure(t *testing.T) {
	const size = 200
	f := newHealthFixture(t, 1, size, func(c *Config) {
		c.Retry = RetryPolicy{MaxAttempts: 3}
	})
	f.faulty.FailNextWrites(1)
	f.readAll(t, 1, size)
	f.waitIdle(t)
	if lvl, _ := f.m.LevelOf("f000"); lvl != 0 {
		t.Fatalf("file not placed after retry (level %d)", lvl)
	}
	st := f.m.Stats()
	if st.PlacementRetries != 1 || st.PlacementErrors != 0 || st.Placements != 1 {
		t.Fatalf("retries=%d errors=%d placements=%d", st.PlacementRetries, st.PlacementErrors, st.Placements)
	}
	// One write error then a success: the tier must settle back healthy.
	if ts := f.m.TierState(0); ts != TierHealthy {
		t.Fatalf("tier state = %v", ts)
	}
	found := false
	for _, e := range f.log.Events() {
		if e.Kind == EventRetried && e.File == "f000" {
			found = true
		}
	}
	if !found {
		t.Fatal("no EventRetried emitted")
	}
}

// TestRetryExhaustionMarksUnplaceable: a persistent failure burns the
// attempt budget and then gives up exactly as before.
func TestRetryExhaustionMarksUnplaceable(t *testing.T) {
	const size = 100
	f := newHealthFixture(t, 1, size, func(c *Config) {
		c.Retry = RetryPolicy{MaxAttempts: 2}
	})
	f.faulty.FailEveryNthWrite(1) // every write fails
	f.readAll(t, 1, size)
	f.waitIdle(t)
	if lvl, _ := f.m.LevelOf("f000"); lvl != 1 {
		t.Fatalf("level = %d, want 1", lvl)
	}
	st := f.m.Stats()
	if st.PlacementRetries != 1 || st.PlacementErrors != 1 || st.Placements != 0 {
		t.Fatalf("retries=%d errors=%d placements=%d", st.PlacementRetries, st.PlacementErrors, st.Placements)
	}
	// Two consecutive write errors hit WriteErrorThreshold=2: breaker
	// opens from the write path too.
	if ts := f.m.TierState(0); ts != TierDown {
		t.Fatalf("tier state = %v, want down", ts)
	}
}

// TestPermanentErrorsDoNotRetry: quota exhaustion (ErrNoSpace on every
// tier) and read-only tiers mark unplaceable without retry churn even
// when Config.Retry is enabled.
func TestPermanentErrorsDoNotRetry(t *testing.T) {
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	if err := pfs.WriteFile(ctx, "f", bytes.Repeat([]byte{1}, 1000)); err != nil {
		t.Fatal(err)
	}
	pfs.SetReadOnly(true)

	t.Run("no-space", func(t *testing.T) {
		tier0 := storage.NewMemFS("ssd", 10) // file never fits
		m, err := New(Config{
			Levels:        []storage.Backend{tier0, pfs},
			Pool:          pool.NewGoPool(1),
			FullFileFetch: true,
			Retry:         RetryPolicy{MaxAttempts: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
		p := make([]byte, 1000)
		if _, err := m.ReadAt(ctx, "f", p, 0); err != nil {
			t.Fatal(err)
		}
		for !m.Idle() {
			time.Sleep(time.Millisecond)
		}
		st := m.Stats()
		if st.PlacementRetries != 0 || st.PlacementSkips != 1 {
			t.Fatalf("retries=%d skips=%d", st.PlacementRetries, st.PlacementSkips)
		}
	})

	t.Run("read-only", func(t *testing.T) {
		tier0 := storage.NewMemFS("ssd", 0)
		tier0.SetReadOnly(true)
		m, err := New(Config{
			Levels:        []storage.Backend{tier0, pfs},
			Pool:          pool.NewGoPool(1),
			FullFileFetch: true,
			Retry:         RetryPolicy{MaxAttempts: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
		p := make([]byte, 1000)
		if _, err := m.ReadAt(ctx, "f", p, 0); err != nil {
			t.Fatal(err)
		}
		for !m.Idle() {
			time.Sleep(time.Millisecond)
		}
		st := m.Stats()
		if st.PlacementRetries != 0 || st.PlacementErrors != 1 {
			t.Fatalf("retries=%d errors=%d", st.PlacementRetries, st.PlacementErrors)
		}
	})
}

// blockingFS stalls WriteFile and WriteAt — the whole-file and the
// chunked copy — until their context is cancelled, to pin a placement
// in flight.
type blockingFS struct {
	*storage.MemFS
	started chan struct{}
	once    sync.Once
}

func (b *blockingFS) WriteFile(ctx context.Context, name string, data []byte) error {
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return ctx.Err()
}

func (b *blockingFS) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	return 0, b.WriteFile(ctx, name, p)
}

// TestShutdownCancelsInFlightPlacement: Monarch.Shutdown interrupts a
// running copy; the cancelled placement is not a placement error,
// returns the entry to the source state and leaves nothing on the tier
// — whether the copy is one WriteFile or a chunked copy mid-window,
// over the full-size file Allocate made for it.
func TestShutdownCancelsInFlightPlacement(t *testing.T) {
	t.Run("whole-file", func(t *testing.T) { testShutdownCancelsPlacement(t, 0) })
	t.Run("chunked", func(t *testing.T) { testShutdownCancelsPlacement(t, 32) })
}

func testShutdownCancelsPlacement(t *testing.T, chunkSize int64) {
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	if err := pfs.WriteFile(ctx, "f", bytes.Repeat([]byte{7}, 100)); err != nil {
		t.Fatal(err)
	}
	pfs.SetReadOnly(true)
	tier0 := &blockingFS{MemFS: storage.NewMemFS("ssd", 0), started: make(chan struct{})}
	m, err := New(Config{
		Levels:        []storage.Backend{tier0, pfs},
		Pool:          pool.NewGoPool(1),
		FullFileFetch: true,
		ChunkSize:     chunkSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	// A partial first read: a full one would lend its bytes to the
	// placement, which then skips the chunked copy.
	p := make([]byte, 10)
	if _, err := m.ReadAt(ctx, "f", p, 0); err != nil {
		t.Fatal(err)
	}
	<-tier0.started // the copy is pinned mid-flight
	done := make(chan struct{})
	go func() { m.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return; worker not cancelled")
	}
	st := m.Stats()
	if st.PlacementErrors != 0 || st.Placements != 0 {
		t.Fatalf("cancelled placement recorded as error/placement: %+v", st)
	}
	if got, _ := m.meta.get("f"); got.currentState() != stateSource {
		t.Fatalf("entry state = %v, want source", got.currentState())
	}
	// Nothing of the interrupted copy stays on the tier: bytes no entry,
	// ledger or policy knows could never be evicted.
	if infos, err := tier0.List(ctx); err != nil || len(infos) != 0 || tier0.Used() != 0 {
		t.Fatalf("cancelled placement left %v (%d bytes used, err=%v) on tier 0", infos, tier0.Used(), err)
	}
	// Reads keep working from the source after shutdown.
	if _, err := m.ReadAt(ctx, "f", p, 0); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentStressBreakFix hammers ReadAt from many goroutines
// while the main goroutine toggles Break/Fix on tier 0: no read may be
// lost or corrupted, no entry may be left stuck queued, and the
// breaker/demotion counters must be mutually consistent at the end.
func TestConcurrentStressBreakFix(t *testing.T) {
	const nfiles, size = 16, 512
	iters := 400
	toggles := 4
	if testing.Short() {
		iters, toggles = 80, 2
	}
	f := newHealthFixture(t, nfiles, size, func(c *Config) {
		c.Health = HealthConfig{ReadErrorThreshold: 3, WriteErrorThreshold: 3, ProbeAfterReads: 1}
		c.Retry = RetryPolicy{MaxAttempts: 2}
	})
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := make([]byte, size)
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("f%03d", (w*7+i*13)%nfiles)
				n, err := f.m.ReadAt(ctx, name, p, 0)
				if err != nil {
					t.Errorf("read %s: %v", name, err)
					return
				}
				want := byte((w*7+i*13)%nfiles + 1)
				if n != size || p[0] != want || p[size-1] != want {
					t.Errorf("read %s corrupted: n=%d got=%d want=%d", name, n, p[0], want)
					return
				}
			}
		}(w)
	}
	for k := 0; k < toggles; k++ {
		time.Sleep(2 * time.Millisecond)
		f.faulty.Break()
		time.Sleep(2 * time.Millisecond)
		f.faulty.Fix()
	}
	wg.Wait()
	f.faulty.Fix()

	// Converge: keep reading until the tier is healthy and every file
	// is back on tier 0.
	deadline := time.Now().Add(15 * time.Second)
	for {
		f.readAll(t, nfiles, size)
		f.waitIdle(t)
		placed := 0
		for i := 0; i < nfiles; i++ {
			if lvl, _ := f.m.LevelOf(fmt.Sprintf("f%03d", i)); lvl == 0 {
				placed++
			}
		}
		if placed == nfiles && f.m.TierState(0) == TierHealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged: placed=%d/%d state=%v stats=%+v",
				placed, nfiles, f.m.TierState(0), f.m.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// No stuck queued entries, and coherent breaker accounting.
	for i := 0; i < nfiles; i++ {
		e, _ := f.m.meta.get(fmt.Sprintf("f%03d", i))
		if s := e.currentState(); s != statePlaced {
			t.Fatalf("f%03d stuck in state %d", i, s)
		}
		got, err := f.faulty.ReadFile(ctx, fmt.Sprintf("f%03d", i))
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, size)) {
			t.Fatalf("tier0 content for f%03d wrong: %v", i, err)
		}
	}
	st := f.m.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after idle", st.InFlight)
	}
	if st.TierTrips != st.TierRecoveries {
		t.Fatalf("trips=%d recoveries=%d, want equal after convergence", st.TierTrips, st.TierRecoveries)
	}
	if st.TierRecoveries > st.Probes {
		t.Fatalf("recoveries=%d > probes=%d", st.TierRecoveries, st.Probes)
	}
	if st.Demotions > st.TierTrips*int64(nfiles) {
		t.Fatalf("demotions=%d exceed trips(%d)×files(%d)", st.Demotions, st.TierTrips, nfiles)
	}
	if int64(nfiles) > st.Placements {
		t.Fatalf("placements=%d < files=%d", st.Placements, nfiles)
	}
}

// TestRetryPolicyClassificationAndBackoff covers the
// transient/permanent split and backoff doubling.
func TestRetryPolicyClassificationAndBackoff(t *testing.T) {
	var r RetryPolicy
	for _, err := range []error{storage.ErrNoSpace, storage.ErrReadOnly, storage.ErrNotExist,
		context.Canceled, context.DeadlineExceeded} {
		if r.transient(err) {
			t.Errorf("%v classified transient", err)
		}
	}
	for _, err := range []error{storage.ErrInjected, errors.New("io: device error")} {
		if !r.transient(err) {
			t.Errorf("%v classified permanent", err)
		}
	}

	b := RetryPolicy{Backoff: 10 * time.Millisecond}
	for i, want := range []time.Duration{10, 20, 40, 80} {
		if got := b.backoff(i + 1); got != want*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
	// wait honours cancellation immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	(&RetryPolicy{Backoff: 10 * time.Second}).wait(ctx, 1)
	if time.Since(start) > time.Second {
		t.Fatal("wait ignored cancelled context")
	}
}

// TestTierStateAndEventStrings pins the observability surface.
func TestTierStateAndEventStrings(t *testing.T) {
	if TierHealthy.String() != "healthy" || TierSuspect.String() != "suspect" ||
		TierDown.String() != "down" || TierState(9).String() != "unknown" {
		t.Fatal("TierState.String broken")
	}
	for kind, want := range map[EventKind]string{
		EventDemoted: "demoted", EventRetried: "retried",
		EventTierDown: "tier-down", EventTierUp: "tier-up",
	} {
		if kind.String() != want {
			t.Errorf("kind %d = %q, want %q", kind, kind.String(), want)
		}
	}
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: EventDemoted, File: "f", Level: 0}, "demoted"},
		{Event{Kind: EventRetried, File: "f", Level: 0, Err: storage.ErrInjected}, "re-queued"},
		{Event{Kind: EventTierDown, Level: 0, Err: storage.ErrInjected}, "down"},
		{Event{Kind: EventTierUp, Level: 0, Bytes: 3}, "back in service"},
	}
	for _, c := range cases {
		if !strings.Contains(c.e.String(), c.want) {
			t.Errorf("%v does not mention %q", c.e.String(), c.want)
		}
	}
}

// TestProbeAbortedWhenPoolClosed: a recovery probe that cannot be
// scheduled (the pool no longer takes tasks) must give the probing
// latch back, or the tier could never be probed again.
func TestProbeAbortedWhenPoolClosed(t *testing.T) {
	f := newHealthFixture(t, 1, 64, nil)
	f.m.ForceTierDown(0, errors.New("forced"))
	f.m.cfg.Pool.Close()
	for i := 0; i < 3; i++ {
		f.readAll(t, 1, 64) // each read of a Down tier asks for a probe (ProbeAfterReads 1)
		tier := f.m.health.tier(0)
		tier.mu.Lock()
		probing := tier.probing
		tier.mu.Unlock()
		if probing {
			t.Fatalf("read %d: probing latch still set after the pool refused the probe", i)
		}
	}
	if st := f.m.Stats(); st.Probes != 0 || f.m.TierState(0) != TierDown {
		t.Fatalf("probes=%d state=%v with a closed pool", st.Probes, f.m.TierState(0))
	}
}

// TestExternalBreakerFeeds exercises the gossip glue: an external
// health signal (a peer marked Dead by the membership view) counts
// toward the read-error threshold via ReportTierError, and
// ForceTierDown opens the breaker immediately when no peer is live.
func TestExternalBreakerFeeds(t *testing.T) {
	f := newHealthFixture(t, 1, 64, nil) // ReadErrorThreshold: 2
	extErr := errors.New("gossip: peer marked dead")

	// One report is demotion pressure — Suspect, not a trip.
	f.m.ReportTierError(0, extErr)
	if st := f.m.TierState(0); st != TierSuspect {
		t.Fatalf("one external report left the tier %v, want suspect", st)
	}
	// The second consecutive report crosses the threshold.
	f.m.ReportTierError(0, extErr)
	if st := f.m.TierState(0); st != TierDown {
		t.Fatalf("threshold external reports left the tier %v", st)
	}
	downs := 0
	for _, e := range f.log.Events() {
		if e.Kind == EventTierDown {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("%d tier-down events, want 1", downs)
	}

	// Out-of-range and source levels are ignored, not panics: the PFS
	// must never be demotable by external feeds.
	f.m.ReportTierError(-1, extErr)
	f.m.ReportTierError(99, extErr)
	f.m.ReportTierError(1, extErr) // level 1 is the source
	f.m.ForceTierDown(1, extErr)
	if st := f.m.TierState(1); st != TierHealthy {
		t.Fatalf("source tier demoted externally: %v", st)
	}
}

func TestForceTierDownImmediateAndIdempotent(t *testing.T) {
	f := newHealthFixture(t, 1, 64, nil)
	extErr := errors.New("gossip: no live peers")
	f.m.ForceTierDown(0, extErr)
	if st := f.m.TierState(0); st != TierDown {
		t.Fatalf("forced trip left the tier %v", st)
	}
	// A second force on an open breaker is a no-op — no duplicate
	// demotion event, no probe-state churn.
	f.m.ForceTierDown(0, extErr)
	downs := 0
	for _, e := range f.log.Events() {
		if e.Kind == EventTierDown {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("%d tier-down events after double force, want 1", downs)
	}
}
