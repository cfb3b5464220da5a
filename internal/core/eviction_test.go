package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

func TestLRUPolicyOrder(t *testing.T) {
	p := NewLRU()
	if p.Name() != "lru" {
		t.Fatal("name")
	}
	p.OnPlaced("a", 0)
	p.OnPlaced("b", 0)
	p.OnPlaced("c", 0)
	p.OnAccess("a") // a becomes most recent
	v, ok := p.Victim("", 0)
	if !ok || v != "b" {
		t.Fatalf("victim = %q, want b", v)
	}
	p.OnEvicted("b")
	v, _ = p.Victim("", 0)
	if v != "c" {
		t.Fatalf("next victim = %q, want c", v)
	}
}

func TestFIFOPolicyIgnoresAccess(t *testing.T) {
	p := NewFIFO()
	p.OnPlaced("a", 0)
	p.OnPlaced("b", 0)
	p.OnAccess("a")
	v, ok := p.Victim("", 0)
	if !ok || v != "a" {
		t.Fatalf("victim = %q, want a (insertion order)", v)
	}
}

func TestPolicyEmptyLevel(t *testing.T) {
	p := NewLRU()
	if _, ok := p.Victim("", 3); ok {
		t.Fatal("victim from empty level")
	}
	p.OnEvicted("never-placed") // must not panic
	p.OnAccess("never-placed")
}

func TestPolicyPerLevelIsolation(t *testing.T) {
	p := NewFIFO()
	p.OnPlaced("a", 0)
	p.OnPlaced("b", 1)
	if v, ok := p.Victim("", 1); !ok || v != "b" {
		t.Fatalf("level 1 victim = %q", v)
	}
	if v, _ := p.Victim("", 0); v != "a" {
		t.Fatalf("level 0 victim = %q", v)
	}
}

func TestPolicyReplacement(t *testing.T) {
	p := NewLRU()
	p.OnPlaced("a", 0)
	p.OnPlaced("a", 1) // moved levels
	if _, ok := p.Victim("", 0); ok {
		t.Fatal("stale entry left on level 0")
	}
	if v, ok := p.Victim("", 1); !ok || v != "a" {
		t.Fatalf("level 1 victim = %q", v)
	}
}

// TestEvictionCausesThrashing demonstrates the paper's §III-A argument:
// with a cache smaller than the dataset and random once-per-epoch
// access, an evicting MONARCH keeps copying files in and out while the
// no-eviction policy settles after epoch 1.
func TestEvictionCausesThrashing(t *testing.T) {
	run := func(policy EvictionPolicy) (evictions, placements int64, pfsReads int64) {
		ctx := context.Background()
		pfsRaw := storage.NewMemFS("lustre", 0)
		const files = 10
		for i := 0; i < files; i++ {
			if err := pfsRaw.WriteFile(ctx, fmt.Sprintf("f%d", i), bytes.Repeat([]byte{1}, 1000)); err != nil {
				t.Fatal(err)
			}
		}
		pfsRaw.SetReadOnly(true)
		pfs := storage.NewCounting(pfsRaw)
		tier0 := storage.NewMemFS("ssd", 5000) // half the dataset
		gp := pool.NewGoPool(1)
		m, err := New(Config{
			Levels:        []storage.Backend{tier0, pfs},
			Pool:          gp,
			FullFileFetch: true,
			Eviction:      policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 100)
		for epoch := 0; epoch < 3; epoch++ {
			for i := 0; i < files; i++ {
				if _, err := m.ReadAt(ctx, fmt.Sprintf("f%d", i), buf, 0); err != nil {
					t.Fatal(err)
				}
				// Serialize placements so eviction decisions are
				// deterministic.
				for !m.Idle() {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
		st := m.Stats()
		return st.Evictions, st.Placements, pfs.Counts().Ops[storage.OpRead]
	}

	evNone, plNone, pfsNone := run(nil)
	if evNone != 0 {
		t.Fatalf("no-eviction run evicted %d", evNone)
	}
	evLRU, plLRU, pfsLRU := run(NewLRU())
	if evLRU == 0 {
		t.Fatal("LRU run never evicted despite undersized tier")
	}
	if plLRU <= plNone {
		t.Fatalf("LRU placements (%d) should exceed no-eviction (%d): churn", plLRU, plNone)
	}
	if pfsLRU <= pfsNone {
		t.Fatalf("LRU PFS reads (%d) should exceed no-eviction (%d): extra PFS pressure", pfsLRU, pfsNone)
	}
}

func TestEvictionVictimNeverTooBigLoop(t *testing.T) {
	// A file larger than the whole tier must not trigger an eviction
	// spiral: tryMakeRoom must bail out.
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	if err := pfsRaw.WriteFile(ctx, "small", bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	if err := pfsRaw.WriteFile(ctx, "huge", bytes.Repeat([]byte{2}, 10_000)); err != nil {
		t.Fatal(err)
	}
	pfsRaw.SetReadOnly(true)
	tier0 := storage.NewMemFS("ssd", 500)
	gp := pool.NewGoPool(1)
	m, err := New(Config{
		Levels:        []storage.Backend{tier0, pfsRaw},
		Pool:          gp,
		FullFileFetch: true,
		Eviction:      NewLRU(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 50)
	if _, err := m.ReadAt(ctx, "small", buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(ctx, "huge", buf, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !m.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("placement stuck")
		}
		time.Sleep(time.Millisecond)
	}
	if lvl, _ := m.LevelOf("small"); lvl != 0 {
		t.Fatal("small file should stay placed")
	}
	if lvl, _ := m.LevelOf("huge"); lvl != 1 {
		t.Fatal("huge file must remain on PFS")
	}
	if st := m.Stats(); st.Evictions != 0 {
		t.Fatalf("evicted %d files for an unplaceable giant", st.Evictions)
	}
}

// shutdownOnEvict is an LRU whose OnEvicted — called once the victim's
// entry has left the tier, before its bytes have — ends the pool
// context, as a Shutdown landing mid-eviction would.
type shutdownOnEvict struct {
	EvictionPolicy
	shutdown context.CancelFunc
}

func (p *shutdownOnEvict) OnEvicted(name string) {
	p.shutdown()
	p.EvictionPolicy.OnEvicted(name)
}

// TestEvictionOutlivesShutdown cancels the pool task's context between
// an eviction's markEvictedFrom and its Remove. Past that point no
// ledger, policy or namespace entry knows the victim's copy, so the
// Remove must go through all the same: the tier ends up holding nothing,
// Used() equal to the tenant ledger, and the eviction counted. A Remove
// the cancelled context refused would leave the whole copy behind, known
// only to errors{stage="evict"}.
func TestEvictionOutlivesShutdown(t *testing.T) {
	ctx := context.Background()
	const size = 64
	pfs := storage.NewMemFS("lustre", 0)
	for _, name := range []string{"job/a", "job/b"} {
		if err := pfs.WriteFile(ctx, name, bytes.Repeat([]byte(name[len(name)-1:]), size)); err != nil {
			t.Fatal(err)
		}
	}
	pfs.SetReadOnly(true)
	poolCtx, shutdown := context.WithCancel(ctx)
	defer shutdown()
	mp := &manualPool{}
	ssd := storage.NewMemFS("ssd", size) // room for one file
	m, err := New(Config{
		Levels:        []storage.Backend{ssd, pfs},
		Pool:          mp,
		FullFileFetch: true,
		Eviction:      &shutdownOnEvict{EvictionPolicy: NewLRU(), shutdown: shutdown},
		JobOf:         JobFromPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	for _, name := range []string{"job/a", "job/b"} {
		if _, err := m.ReadAt(ctx, name, buf, 0); err != nil {
			t.Fatal(err)
		}
		mp.drainWith(poolCtx) // job/b's placement evicts job/a, and is cancelled under it
	}

	st := m.Stats()
	if st.Placements != 1 || poolCtx.Err() == nil {
		t.Fatalf("no eviction ran under a shutdown: %+v", st)
	}
	list, _ := ssd.List(ctx)
	if ledger := m.tenants.usedBytes("job", 0); len(list) != 0 || ssd.Used() != 0 || ledger != 0 || st.Evictions != 1 {
		t.Errorf("tier 0 holds %v (%d bytes), the job's ledger says %d, %d evictions counted; want nothing on either and 1",
			list, ssd.Used(), ledger, st.Evictions)
	}
	if v, _ := m.Registry().Snapshot().Value("monarch_errors_total", obs.L("stage", "evict")); v != 0 {
		t.Errorf(`errors{stage="evict"} = %v, want 0`, v)
	}
	for _, name := range []string{"job/a", "job/b"} {
		if e, _ := m.meta.get(name); e.currentState() != stateSource {
			t.Errorf("%s in state %d, want source: evicted, and cancelled before its copy", name, e.currentState())
		}
	}
}
