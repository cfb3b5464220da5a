package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"monarch/internal/pool"
	"monarch/internal/storage"
	"monarch/internal/trace/analyze"
)

// tunedHeat is NewHeatPolicy with the half-life and admission margin the
// sweeps below vary in place of its constants.
func tunedHeat(halfLife, margin float64) *HeatPolicy {
	p := NewHeatPolicy()
	p.halfLife, p.margin = halfLife, margin
	return p
}

// TestHeatDecay exercises the online decay math: reads add heat, epochs
// halve it (at the one-epoch half-life), and untouched files
// stay cold.
func TestHeatDecay(t *testing.T) {
	p := NewHeatPolicy()
	for i := 0; i < 4; i++ {
		p.OnAccess("hot")
	}
	p.OnAccess("cold")
	if got := p.Heat("hot"); got != 4 {
		t.Fatalf("heat(hot) = %v, want 4", got)
	}
	p.AdvanceEpoch()
	if got := p.Heat("hot"); got != 2 {
		t.Fatalf("heat(hot) after one epoch = %v, want 2", got)
	}
	p.AdvanceEpoch()
	if got, want := p.Heat("hot"), 1.0; got != want {
		t.Fatalf("heat(hot) after two epochs = %v, want %v", got, want)
	}
	if got := p.Heat("cold"); got != 0.25 {
		t.Fatalf("heat(cold) = %v, want 0.25", got)
	}
	if got := p.Heat("never"); got != 0 {
		t.Fatalf("heat(never) = %v, want 0", got)
	}
}

// TestHeatMatchesAnalyzer locks the online engine to the analyzer's
// offline HeatScore: replaying a per-epoch read heatmap through
// OnAccess/AdvanceEpoch must land on exactly the score the analyzer
// derives from the same heatmap.
func TestHeatMatchesAnalyzer(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		halfLife := []float64{1, 2, 0.5}[trial%3]
		p := tunedHeat(halfLife, 1.25)
		epochs := 1 + rng.Intn(6)
		perEpoch := make([]int64, epochs)
		for i := range perEpoch {
			perEpoch[i] = int64(rng.Intn(5))
		}
		for i, reads := range perEpoch {
			if i > 0 {
				p.AdvanceEpoch()
			}
			for r := int64(0); r < reads; r++ {
				p.OnAccess("f")
			}
		}
		want := analyze.HeatScore(perEpoch, halfLife)
		if got := p.Heat("f"); got != want {
			t.Fatalf("trial %d (halfLife=%v, %v): online heat %v != analyzer %v",
				trial, halfLife, perEpoch, got, want)
		}
	}
}

// TestHeatVictimSelection checks the admission-aware Victim: a hot
// candidate displaces the coldest file, a lukewarm one is refused by
// the margin, and the candidate is never its own victim.
func TestHeatVictimSelection(t *testing.T) {
	p := tunedHeat(1, 2)
	for name, reads := range map[string]int{"a": 1, "b": 3, "c": 5, "hot": 6, "warm": 2} {
		for i := 0; i < reads; i++ {
			p.OnAccess(name)
		}
		if name == "a" || name == "b" || name == "c" {
			p.OnPlaced(name, 0)
		}
	}
	// Contests compare epoch-boundary heat: reads of the epoch in
	// progress count for nothing, so even a candidate with six fresh
	// reads is refused until an epoch completes. Read order within one
	// epoch must never create eviction pressure.
	if v, ok := p.Victim("hot", 0); ok {
		t.Fatalf("Victim(hot) before any epoch boundary = %q,%v, want refusal", v, ok)
	}

	p.AdvanceEpoch()
	// Boundary heats (half-life 1): a=0.5, b=1.5, c=2.5, hot=3, warm=1.
	for name, want := range map[string]float64{"a": 0.5, "b": 1.5, "c": 2.5, "hot": 3, "warm": 1} {
		if got := p.Heat(name); got != want {
			t.Fatalf("Heat(%s) = %v, want %v", name, got, want)
		}
	}
	if v, ok := p.Victim("hot", 1); ok {
		t.Fatalf("Victim(hot, 1) = %q,%v on empty level, want miss", v, ok)
	}
	// heat(hot)=3 > heat(a)=0.5 * margin 2 → admitted against a.
	if v, ok := p.Victim("hot", 0); !ok || v != "a" {
		t.Fatalf("Victim(hot) = %q,%v, want a,true", v, ok)
	}
	// heat(warm)=1 fails the 2x margin against a's 0.5.
	if v, ok := p.Victim("warm", 0); ok {
		t.Fatalf("Victim(warm) = %q,%v, want refusal", v, ok)
	}
	// The coldest resident asking for room must not evict itself; its
	// only options are the others, which are all hotter.
	if v, ok := p.Victim("a", 0); ok {
		t.Fatalf("Victim(a) = %q,%v, want refusal (never self)", v, ok)
	}

	// After eviction the file leaves the books but keeps its history:
	// with a gone the coldest resident is b, whose 1.5 × margin 2 hot's 3
	// does not beat.
	p.OnEvicted("a")
	if v, ok := p.Victim("hot", 0); ok {
		t.Fatalf("Victim(hot) after evicting a = %q,%v, want refusal (b is too warm)", v, ok)
	}
	if got := p.Heat("a"); got != 0.5 {
		t.Fatalf("heat(a) after eviction = %v, want history kept (0.5)", got)
	}
}

// TestTenantTableValidation covers Config.Tenants rejection paths.
func TestTenantTableValidation(t *testing.T) {
	base := func() Config {
		return Config{JobOf: JobFromPath}
	}
	for _, tc := range []struct {
		name    string
		tenants []TenantConfig
		wantErr bool
	}{
		{"ok", []TenantConfig{{Job: "a", Share: 0.5}, {Job: "b", Share: 0.5}}, false},
		{"negative share", []TenantConfig{{Job: "a", Share: -0.1}}, true},
		{"share above one", []TenantConfig{{Job: "a", Share: 1.5}}, true},
		{"sum above one", []TenantConfig{{Job: "a", Share: 0.7}, {Job: "b", Share: 0.7}}, true},
		{"duplicate job", []TenantConfig{{Job: "a", Share: 0.3}, {Job: "a", Share: 0.3}}, true},
	} {
		cfg := base()
		cfg.Tenants = tc.tenants
		_, err := newTenantTable(cfg, []int64{1000, 0})
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
	// Tenancy off: no JobOf, no Tenants.
	tt, err := newTenantTable(Config{}, []int64{1000, 0})
	if err != nil || tt != nil {
		t.Fatalf("tenancy-off table = %v, %v; want nil, nil", tt, err)
	}
	// Nil table is safe everywhere.
	var nilT *tenantTable
	nilT.charge("a", 0, 10)
	nilT.release("a", 0, 10)
	if nilT.job("a/x") != "" || nilT.usedBytes("a", 0) != 0 || nilT.overShare("a", 0) {
		t.Fatal("nil tenant table must act as a no-op")
	}
}

// TestJobFromPath pins the default namespace attribution.
func TestJobFromPath(t *testing.T) {
	for name, want := range map[string]string{
		"jobA/shard-0003": "jobA",
		"jobA/sub/x":      "jobA",
		"noslash":         "",
		"/lead":           "",
	} {
		if got := JobFromPath(name); got != want {
			t.Errorf("JobFromPath(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestQuotaAccountingNeverNegative drives random placement / eviction /
// demotion transition sequences through real fileEntry state machines
// with the tenant ledger attached, mirroring them in a plain model.
// After every step the ledger must match the model exactly and never go
// negative — the "quota accounting never negative" invariant, enforced
// structurally by charging only on entering statePlaced and releasing
// only on the guarded transitions out of it.
func TestQuotaAccountingNeverNegative(t *testing.T) {
	const (
		levels = 3
		nfiles = 12
	)
	jobs := []string{"jobA", "jobB", "jobC"}
	f := func(tape []byte) bool {
		tt, err := newTenantTable(Config{
			JobOf:   JobFromPath,
			Tenants: []TenantConfig{{Job: "jobA", Share: 0.4}, {Job: "jobB", Share: 0.4}},
		}, []int64{1 << 20, 1 << 20, 0})
		if err != nil {
			t.Fatal(err)
		}
		entries := make([]*fileEntry, nfiles)
		for i := range entries {
			entries[i] = &fileEntry{
				name:  fmt.Sprintf("%s/f%02d", jobs[i%len(jobs)], i),
				size:  int64(100 + i),
				level: levels - 1,
			}
			entries[i].publish()
		}
		model := map[string][]int64{} // job → per-level bytes
		bump := func(job string, lvl int, d int64) {
			r := model[job]
			if r == nil {
				r = make([]int64, levels)
				model[job] = r
			}
			r[lvl] += d
		}
		for pc := 0; pc+1 < len(tape); pc += 2 {
			op, arg := tape[pc], tape[pc+1]
			e := entries[int(arg)%nfiles]
			job := tt.job(e.name)
			lvl := int(op) / 3 % (levels - 1)
			switch op % 3 {
			case 0: // placement: queue (if possible) then land on lvl
				if e.tryQueue() {
					e.markPlaced(lvl)
					tt.charge(job, lvl, e.size)
					bump(job, lvl, e.size)
				}
			case 1: // eviction off lvl — release only when the CAS fires
				if e.markEvictedFrom(lvl, levels-1) {
					tt.release(job, lvl, e.size)
					bump(job, lvl, -e.size)
				}
			case 2: // breaker demotion off lvl — same pairing rule
				if e.markDemoted(lvl, levels-1) {
					tt.release(job, lvl, e.size)
					bump(job, lvl, -e.size)
				}
			}
			for _, j := range append(jobs, "") {
				for l := 0; l < levels; l++ {
					got := tt.usedBytes(j, l)
					if got < 0 {
						t.Errorf("used(%s,%d) = %d < 0", j, l, got)
						return false
					}
					want := int64(0)
					if r := model[j]; r != nil {
						want = r[l]
					}
					if got != want {
						t.Errorf("used(%s,%d) = %d, model %d", j, l, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuotaReclaimUnderPressure is the work-conserving borrowing story
// end to end: jobB borrows the whole tier while jobA is idle (free
// space is never wasted), then jobA's placements reclaim space from the
// borrower up to jobA's guaranteed share — without jobA's cold files
// needing any heat advantage over jobB's.
func TestQuotaReclaimUnderPressure(t *testing.T) {
	ctx := context.Background()
	const fileSize = 100
	pfs := storage.NewMemFS("lustre", 0)
	var names []string
	for j := 0; j < 8; j++ {
		for _, job := range []string{"jobA", "jobB"} {
			name := fmt.Sprintf("%s/f%d", job, j)
			if err := pfs.WriteFile(ctx, name, make([]byte, fileSize)); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
	}
	pfs.SetReadOnly(true)
	ssd := storage.NewMemFS("ssd", 8*fileSize) // room for 8 of the 16 files
	m, err := New(Config{
		Levels:        []storage.Backend{ssd, pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Eviction:      NewHeatPolicy(),
		JobOf:         JobFromPath,
		Tenants:       []TenantConfig{{Job: "jobA", Share: 0.5}, {Job: "jobB", Share: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}

	// jobB reads everything it has, twice: borrows the whole tier.
	buf := make([]byte, fileSize)
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < 8; j++ {
			if _, err := m.ReadAt(ctx, fmt.Sprintf("jobB/f%d", j), buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		waitIdleM(t, m)
	}
	if used := m.tenants.usedBytes("jobB", 0); used != 8*fileSize {
		t.Fatalf("jobB borrowed %d bytes, want the whole tier (%d)", used, 8*fileSize)
	}

	// jobA shows up with cold, read-once files. Its guaranteed share
	// lets each placement reclaim from the over-share borrower even
	// though jobB's files are hotter.
	for j := 0; j < 4; j++ {
		if _, err := m.ReadAt(ctx, fmt.Sprintf("jobA/f%d", j), buf, 0); err != nil {
			t.Fatal(err)
		}
		waitIdleM(t, m)
	}
	usedA := m.tenants.usedBytes("jobA", 0)
	usedB := m.tenants.usedBytes("jobB", 0)
	if usedA != 4*fileSize {
		t.Fatalf("jobA reclaimed %d bytes, want %d", usedA, 4*fileSize)
	}
	if usedB != 4*fileSize {
		t.Fatalf("jobB kept %d bytes, want shrunk to its share (%d)", usedB, 4*fileSize)
	}
	st := m.Stats()
	if st.Evictions != 4 {
		t.Fatalf("evictions = %d, want 4 quota reclaims", st.Evictions)
	}
	if st.Jobs["jobB"].Evictions != 4 || st.Jobs["jobA"].Evictions != 0 {
		t.Fatalf("per-job evictions = %+v, want all 4 charged to jobB", st.Jobs)
	}
	// jobB's second pass hit the tier, jobA has only read cold files,
	// and a job that never read has no ratio to divide.
	if b, a, none := st.Jobs["jobB"].HitRatio(), st.Jobs["jobA"].HitRatio(), st.Jobs["ghost"].HitRatio(); b != 0.5 || a != 0 || none != 0 {
		t.Fatalf("per-job hit ratios = %v, %v, %v; want 0.5, 0, 0", b, a, none)
	}
	// Once jobA is at its share, further jobA placements must NOT keep
	// eating jobB's guaranteed half without a heat win.
	for j := 4; j < 8; j++ {
		if _, err := m.ReadAt(ctx, fmt.Sprintf("jobA/f%d", j), buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitIdleM(t, m)
	if usedB := m.tenants.usedBytes("jobB", 0); usedB != 4*fileSize {
		t.Fatalf("jobB squeezed to %d bytes below its guaranteed share", usedB)
	}
	// The ledger always matches ground truth: sum of placed entries.
	assertLedgerExact(t, m)
}

// assertLedgerExact recomputes every job's per-level usage from the
// metadata container and compares it to the quota ledger.
func assertLedgerExact(t *testing.T, m *Monarch) {
	t.Helper()
	want := map[string][]int64{}
	for _, e := range m.meta.sortedEntries() {
		st, lvl := e.snapshot()
		if st != statePlaced {
			continue
		}
		job := m.tenants.job(e.name)
		r := want[job]
		if r == nil {
			r = make([]int64, len(m.levels))
			want[job] = r
		}
		r[lvl] += e.size
	}
	m.tenants.mu.Lock()
	jobs := make([]string, 0, len(m.tenants.used))
	for j := range m.tenants.used {
		jobs = append(jobs, j)
	}
	m.tenants.mu.Unlock()
	for j := range want {
		jobs = append(jobs, j)
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j] {
			continue
		}
		seen[j] = true
		for lvl := range m.levels {
			got := m.tenants.usedBytes(j, lvl)
			if got < 0 {
				t.Errorf("ledger used(%s,%d) = %d < 0", j, lvl, got)
			}
			var w int64
			if r := want[j]; r != nil {
				w = r[lvl]
			}
			if got != w {
				t.Errorf("ledger used(%s,%d) = %d, placed entries sum to %d", j, lvl, got, w)
			}
		}
	}
}

// TestHeatPromotion: a file that was unplaceable (tier full of
// then-hotter data) is promoted back into placement once its heat
// overtakes a resident's by the admission margin.
func TestHeatPromotion(t *testing.T) {
	ctx := context.Background()
	const fileSize = 100
	pfs := storage.NewMemFS("lustre", 0)
	for _, name := range []string{"resident", "latecomer"} {
		if err := pfs.WriteFile(ctx, name, make([]byte, fileSize)); err != nil {
			t.Fatal(err)
		}
	}
	pfs.SetReadOnly(true)
	m, err := New(Config{
		Levels:        []storage.Backend{storage.NewMemFS("ssd", fileSize), pfs}, // one file fits
		Pool:          pool.NewGoPool(1),
		FullFileFetch: true,
		Eviction:      tunedHeat(1, 1.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, fileSize)
	read := func(name string) {
		t.Helper()
		if _, err := m.ReadAt(ctx, name, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	read("resident")
	waitIdleM(t, m)
	read("latecomer") // tier full; latecomer heat 1 vs resident 1: refused
	waitIdleM(t, m)
	if lvl, _ := m.LevelOf("latecomer"); lvl != 1 {
		t.Fatalf("latecomer at level %d, want source (refused admission)", lvl)
	}
	if e, _ := m.meta.get("latecomer"); e.currentState() != stateUnplaceable {
		t.Fatalf("latecomer state = %v, want unplaceable", e.currentState())
	}

	// An epoch passes; the resident cools while the latecomer gets hot.
	m.MarkEpoch(1)
	read("latecomer")
	read("latecomer")
	m.MarkEpoch(2)
	read("latecomer") // promotion check fires here (rate-limited per epoch)
	waitIdleM(t, m)
	if lvl, _ := m.LevelOf("latecomer"); lvl != 0 {
		t.Fatalf("latecomer at level %d after heating up, want promoted to 0", lvl)
	}
	if lvl, _ := m.LevelOf("resident"); lvl != 1 {
		t.Fatalf("resident at level %d, want evicted back to source", lvl)
	}
	st := m.Stats()
	if st.Promotions == 0 || st.Evictions == 0 {
		t.Fatalf("promotions=%d evictions=%d, want both > 0", st.Promotions, st.Evictions)
	}
}

// TestHeatNoChurnUnderUniformAccess is the paper's §III-A stance as a
// degenerate case of the heat engine: one job reading every file once
// per epoch gives every file equal heat, nothing clears the admission
// margin, and the engine performs zero evictions — unlike LRU, which
// TestEvictionCausesThrashing shows churning on the same workload.
func TestHeatNoChurnUnderUniformAccess(t *testing.T) {
	ctx := context.Background()
	const (
		nfiles   = 10
		fileSize = 100
	)
	pfs := storage.NewMemFS("lustre", 0)
	for i := 0; i < nfiles; i++ {
		if err := pfs.WriteFile(ctx, fmt.Sprintf("f%02d", i), make([]byte, fileSize)); err != nil {
			t.Fatal(err)
		}
	}
	pfs.SetReadOnly(true)
	m, err := New(Config{
		Levels:        []storage.Backend{storage.NewMemFS("ssd", 5*fileSize), pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Eviction:      NewHeatPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, fileSize)
	for epoch := 1; epoch <= 3; epoch++ {
		for i := 0; i < nfiles; i++ {
			if _, err := m.ReadAt(ctx, fmt.Sprintf("f%02d", i), buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		waitIdleM(t, m)
		m.MarkEpoch(epoch)
	}
	if st := m.Stats(); st.Evictions != 0 {
		t.Fatalf("heat policy evicted %d times under uniform access, want 0 (no churn)", st.Evictions)
	}
}
