package core

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"monarch/internal/pool"
	"monarch/internal/storage"
)

// scriptedPolicy is a deliberately adversarial EvictionPolicy for the
// edge-case tests: it proposes a fixed victim regardless of what is
// actually placed, modelling policies whose books lag (or lie about)
// middleware state. The eviction loop must survive it.
type scriptedPolicy struct {
	mu      sync.Mutex
	victims []string // proposals, in order; last one repeats forever
	asked   int
	evicted []string
}

func (p *scriptedPolicy) Name() string         { return "scripted" }
func (p *scriptedPolicy) OnAccess(string)      {}
func (p *scriptedPolicy) OnPlaced(string, int) {}
func (p *scriptedPolicy) OnEvicted(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.evicted = append(p.evicted, name)
}
func (p *scriptedPolicy) Victim(string, int) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.victims) == 0 {
		return "", false
	}
	i := p.asked
	if i >= len(p.victims) {
		i = len(p.victims) - 1
	}
	p.asked++
	return p.victims[i], true
}

// sweepEvictionInvariants walks the whole namespace after a quiesce and
// checks the structural invariants the eviction engine must uphold:
//
//  1. A chunked copy's landed prefix never outlives its attempt: only
//     queued (in-flight) entries may hold one. A prefix on a source or
//     placed entry means a transition tore state down partially.
//  2. Every evicted (back-to-source) entry is immediately re-placeable:
//     tryQueue must succeed, i.e. eviction fully reset the state
//     machine (probed with a tryQueue/cancelQueued round trip).
//  3. The quota ledger exactly matches per-job sums over placed
//     entries (and is therefore non-negative) when tenancy is on.
func sweepEvictionInvariants(t *testing.T, m *Monarch) {
	t.Helper()
	for _, e := range m.meta.sortedEntries() {
		st, lvl := e.snapshot()
		if st != stateQueued && e.landing() != nil {
			t.Errorf("%s: state %v at level %d but a landed prefix is still published", e.name, st, lvl)
		}
		if st == stateSource {
			if !e.tryQueue() {
				t.Errorf("%s: evicted entry not re-placeable (tryQueue failed)", e.name)
				continue
			}
			e.cancelQueued()
		}
	}
	if m.tenants != nil {
		assertLedgerExact(t, m)
	}
}

// TestEvictReplaceReadRaceHighFanIn is PR 8's counterpart of
// TestReadAtHighFanIn: the same 64-goroutine read tapes, but over a
// tier that holds barely a third of the dataset with an eviction policy
// attached, so evictions, re-placements, chunked copies, promotions and
// zero-copy ReadViews all interleave. Eviction removes entries from the
// sharded atomic metadata while readers hold stale snapshots — the race
// this test exists to hammer under -race.
//
// Every read must still be byte-identical to the generator; races where
// a reader loses its tier-0 copy mid-read must resolve through the
// eviction-race re-serve (never the failure fallback or the breaker);
// and the invariant sweep must hold once the stack quiesces.
func TestEvictReplaceReadRaceHighFanIn(t *testing.T) {
	if testing.Short() {
		t.Skip("high fan-in stress test")
	}
	const (
		goroutines = 64
		nfiles     = 32
		fileSize   = 4096
		opsPerG    = 100
		tierCap    = 11 * fileSize // ~1/3 of the dataset
	)
	jobOf := func(name string) string {
		// c000..c031 → two tenants by index parity.
		if n, err := strconv.Atoi(name[1:]); err == nil && n%2 == 0 {
			return "even"
		}
		return "odd"
	}
	memTier := func(*testing.T) storage.Backend { return storage.NewMemFS("ssd", tierCap) }
	for _, tc := range []struct {
		name   string
		policy EvictionPolicy
		tier   func(*testing.T) storage.Backend
	}{
		{"lru-churn", NewLRU(), memTier}, // worst case: evicts eagerly, maximal race surface
		{"heat", tunedHeat(1, 1.1), memTier},
		// The real backend: views are windows of mapped files that the
		// evictor unlinks and the placer re-creates under the readers.
		{"lru-churn-osfs", NewLRU(), func(t *testing.T) storage.Backend { return newOSFSTier(t, tierCap) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newChunkStack(t, tc.tier(t), 4, nfiles, fileSize,
				func(c *Config) {
					c.Eviction = tc.policy
					c.JobOf = jobOf
					c.Tenants = []TenantConfig{{Job: "even", Share: 0.5}, {Job: "odd", Share: 0.5}}
				})

			stop := make(chan struct{})
			var epochs sync.WaitGroup
			epochs.Add(1)
			go func() { // heat clock ticking under the readers' feet
				defer epochs.Done()
				for n := 1; ; n++ {
					select {
					case <-stop:
						return
					case <-time.After(2 * time.Millisecond):
						m.MarkEpoch(n)
					}
				}
			}()

			wave := func() {
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						tape := makeFanInTape(int64(g)*104729+13, nfiles, fileSize, opsPerG)
						runFanInTape(t, m, tape, nfiles, fileSize)
					}(g)
				}
				wg.Wait()
			}
			wave()
			// On an oversubscribed box the readers can finish before the
			// first placements land, and then nothing ever needed room.
			// The race needs evictions: go again over the now-full tier.
			for i := 0; i < 3 && !t.Failed() && m.Stats().Evictions == 0; i++ {
				waitIdleM(t, m)
				wave()
			}
			close(stop)
			epochs.Wait()
			if t.Failed() {
				t.FailNow()
			}
			waitIdleM(t, m)

			st := m.Stats()
			if st.Evictions == 0 {
				t.Error("undersized tier saw no evictions: the race never happened")
			}
			// A reader losing its copy to an eviction is a clean race,
			// not a tier failure: nothing may reach the fallback path or
			// feed the breaker.
			if st.Fallbacks != 0 {
				t.Errorf("fallbacks = %d, want 0 (eviction races must not look like tier failures)", st.Fallbacks)
			}
			if st.TierTrips != 0 || st.Demotions != 0 {
				t.Errorf("breaker fired (trips=%d demotions=%d) on a healthy tier", st.TierTrips, st.Demotions)
			}
			if st.PlacementErrors != 0 {
				t.Errorf("placement errors = %d, want 0", st.PlacementErrors)
			}
			var jobReads int64
			for _, js := range st.Jobs {
				jobReads += js.ReadsServed
			}
			if total := sum64(st.ReadsServed); jobReads != total {
				t.Errorf("per-job read counters sum to %d, tier counters to %d", jobReads, total)
			}
			sweepEvictionInvariants(t, m)

			// The tier must not have been left over-committed: resident
			// bytes fit the capacity.
			var resident int64
			for _, e := range m.meta.sortedEntries() {
				if s, lvl := e.snapshot(); s == statePlaced && lvl == 0 {
					resident += e.size
				}
			}
			if resident > tierCap {
				t.Errorf("tier 0 over-committed: %d resident bytes > %d capacity", resident, tierCap)
			}
		})
	}
}

// TestEvictionSkipsPinnedInFlightPlacement pins down victim-selection
// safety: a file whose chunked placement is still in flight (queued,
// watermark armed) can never be evicted, even when the policy proposes
// it. The placement worker is frozen mid-copy with a gated backend while
// an adversarial policy nominates the in-flight file; the eviction CAS
// must refuse, the placement must abort cleanly without it, and after
// the gate opens the pinned file must finish placing with intact bytes.
func TestEvictionSkipsPinnedInFlightPlacement(t *testing.T) {
	// Two windows per file: the pinned file's copy sits frozen inside
	// window 1's gated WriteAt on one pool worker, and the second worker
	// is free to run the competing placement.
	const fileSize = 512
	g := &gatedFS{MemFS: storage.NewMemFS("ssd", fileSize+256), release: make(chan struct{})}
	var once sync.Once
	open := func() { once.Do(func() { close(g.release) }) }
	policy := &scriptedPolicy{victims: []string{"c000"}}
	m := newChunkStack(t, g, 2, 2, fileSize, func(c *Config) { c.Eviction = policy })
	t.Cleanup(open)
	ctx := context.Background()

	// Partial read starts c000's chunked placement; the gate lets chunk
	// 0 land and freezes the worker inside chunk 1's WriteAt.
	if _, err := m.ReadAt(ctx, "c000", make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().ChunkPlacements == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no chunk landed")
		}
		time.Sleep(time.Millisecond)
	}

	// c001 wants the tier, which c000's in-flight allocation fills. The
	// policy offers up c000 — the engine must refuse (it is pinned),
	// drop the stale proposal, and leave c001 on the source.
	if _, err := m.ReadAt(ctx, "c001", make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		if e, ok := m.meta.get("c001"); ok && e.currentState() == stateUnplaceable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("c001 placement did not resolve")
		}
		time.Sleep(time.Millisecond)
	}
	if st := m.Stats(); st.Evictions != 0 {
		t.Fatalf("evicted %d files while the only candidate was pinned", st.Evictions)
	}
	if e, _ := m.meta.get("c000"); e.currentState() != stateQueued {
		t.Fatalf("pinned c000 left queued state mid-copy: %v", e.currentState())
	}

	// Gate opens: the frozen placement completes untouched.
	open()
	waitIdleM(t, m)
	if lvl, err := m.LevelOf("c000"); err != nil || lvl != 0 {
		t.Fatalf("c000 at level %d (err=%v) after release, want 0", lvl, err)
	}
	got := make([]byte, fileSize)
	if _, err := m.ReadAt(ctx, "c000", got, 0); err != nil {
		t.Fatal(err)
	}
	if want := chunkContent(0, fileSize); !bytes.Equal(got, want) {
		t.Fatal("pinned file corrupted across the eviction attempt")
	}
	sweepEvictionInvariants(t, m)
}

// TestEvictionPolicyEdgeCases drives tryMakeRoom through the
// adversarial proposals a buggy or lagging policy can make. In every
// case placement must resolve (placed or cleanly skipped) without
// hanging, spinning, or evicting the wrong file.
func TestEvictionPolicyEdgeCases(t *testing.T) {
	const fileSize = 1000
	for _, tc := range []struct {
		name    string
		tierCap int64
		tenants []TenantConfig
		policy  func() *scriptedPolicy
		// expectations after both files are read and the pool drains:
		wantLvl0  map[string]int
		wantEvict int64
	}{
		{
			// A policy that nominates the very file being placed: the
			// self-eviction guard must abort the loop, not free the
			// candidate's own (nonexistent) bytes and loop forever.
			name:      "victim equals file being placed",
			tierCap:   fileSize + fileSize/2,
			policy:    func() *scriptedPolicy { return &scriptedPolicy{victims: []string{"f1"}} },
			wantLvl0:  map[string]int{"f0": 0, "f1": 1},
			wantEvict: 0,
		},
		{
			// A policy that nominates a file the namespace has never
			// heard of: errUnknownVictim must abort the attempt.
			name:      "victim unknown to namespace",
			tierCap:   fileSize + fileSize/2,
			policy:    func() *scriptedPolicy { return &scriptedPolicy{victims: []string{"ghost"}} },
			wantLvl0:  map[string]int{"f0": 0, "f1": 1},
			wantEvict: 0,
		},
		{
			// A zero-share tenant owns everything resident: it has no
			// guaranteed quota, so another tenant's placement reclaims
			// from it immediately (here via the default heat policy's
			// quota-reclaim arm, no scripted proposals needed).
			name:      "zero-quota tenant is always reclaimable",
			tierCap:   fileSize,
			tenants:   []TenantConfig{{Job: "a", Share: 0}, {Job: "b", Share: 1}},
			wantLvl0:  map[string]int{"f0": 1, "f1": 0},
			wantEvict: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			pfs := storage.NewMemFS("lustre", 0)
			jobs := map[string]string{"f0": "a", "f1": "b"}
			for i := 0; i < 2; i++ {
				if err := pfs.WriteFile(ctx, fmt.Sprintf("f%d", i), chunkContent(i, fileSize)); err != nil {
					t.Fatal(err)
				}
			}
			pfs.SetReadOnly(true)
			cfg := Config{
				Levels:        []storage.Backend{storage.NewMemFS("ssd", tc.tierCap), pfs},
				Pool:          pool.NewGoPool(1),
				FullFileFetch: true,
			}
			var policy *scriptedPolicy
			if tc.policy != nil {
				policy = tc.policy()
				cfg.Eviction = policy
			} else {
				cfg.Eviction = NewHeatPolicy()
				cfg.JobOf = func(name string) string { return jobs[name] }
				cfg.Tenants = tc.tenants
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			if err := m.Init(ctx); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, fileSize)
			for i := 0; i < 2; i++ {
				if _, err := m.ReadAt(ctx, fmt.Sprintf("f%d", i), buf, 0); err != nil {
					t.Fatal(err)
				}
				waitIdleM(t, m) // also proves placement resolved: no hang
			}
			for name, want := range tc.wantLvl0 {
				if lvl, err := m.LevelOf(name); err != nil || lvl != want {
					t.Errorf("%s at level %d (err=%v), want %d", name, lvl, err, want)
				}
			}
			if st := m.Stats(); st.Evictions != tc.wantEvict {
				t.Errorf("evictions = %d, want %d", st.Evictions, tc.wantEvict)
			}
			sweepEvictionInvariants(t, m)
		})
	}
}
