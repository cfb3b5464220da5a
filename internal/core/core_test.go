package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// fixture builds a 2-level hierarchy (tier0 memfs with quota, PFS memfs
// holding nfiles of fileSize bytes) and a Monarch over them.
type fixture struct {
	tier0 *storage.MemFS
	pfs   *storage.Counting
	m     *Monarch
	p     *pool.GoPool
}

// registryVars flattens a registry into exposition-name → value, for
// the parity tests that compare every series of two runs: each sample
// line of the Prometheus text, histograms by their _sum and _count (a
// latency bucket is the clock's to fill).
func registryVars(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// errorsAt is monarch_errors_total for one stage.
func errorsAt(m *Monarch, stage string) int64 {
	n, _ := m.Registry().Snapshot().Int("monarch_errors_total", obs.L("stage", stage))
	return n
}

func newFixture(t *testing.T, quota int64, nfiles int, fileSize int, cfgEdit func(*Config)) *fixture {
	t.Helper()
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	for i := 0; i < nfiles; i++ {
		content := bytes.Repeat([]byte{byte(i + 1)}, fileSize)
		if err := pfsRaw.WriteFile(ctx, fmt.Sprintf("f%03d", i), content); err != nil {
			t.Fatal(err)
		}
	}
	pfsRaw.SetReadOnly(true)
	pfs := storage.NewCounting(pfsRaw)
	tier0 := storage.NewMemFS("ssd", quota)
	gp := pool.NewGoPool(4)
	cfg := Config{
		Levels:        []storage.Backend{tier0, pfs},
		Pool:          gp,
		FullFileFetch: true,
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
	return &fixture{tier0: tier0, pfs: pfs, m: m, p: gp}
}

// waitIdle blocks until background placements settle.
func (f *fixture) waitIdle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !f.m.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("placements did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNewValidation(t *testing.T) {
	mem := storage.NewMemFS("a", 0)
	gp := pool.NewGoPool(1)
	defer gp.Close()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no levels", Config{Pool: gp}},
		{"one level", Config{Levels: []storage.Backend{mem}, Pool: gp}},
		{"nil backend", Config{Levels: []storage.Backend{mem, nil}, Pool: gp}},
		{"nil pool", Config{Levels: []storage.Backend{mem, mem}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := New(Config{Levels: []storage.Backend{mem, mem}, Pool: gp}); err != nil {
		t.Errorf("minimal valid config: %v", err)
	}
}

func TestReadBeforeInitFails(t *testing.T) {
	gp := pool.NewGoPool(1)
	defer gp.Close()
	m, err := New(Config{
		Levels: []storage.Backend{storage.NewMemFS("a", 0), storage.NewMemFS("b", 0)},
		Pool:   gp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(context.Background(), "f", make([]byte, 1), 0); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("got %v", err)
	}
}

func TestInitBuildsNamespace(t *testing.T) {
	f := newFixture(t, 0, 5, 100, nil)
	if f.m.NumFiles() != 5 {
		t.Fatalf("namespace has %d files", f.m.NumFiles())
	}
	files := f.m.Files()
	if len(files) != 5 || files[0].Name != "f000" || files[0].Size != 100 {
		t.Fatalf("files = %+v", files)
	}
	fi, err := f.m.Stat("f003")
	if err != nil || fi.Size != 100 {
		t.Fatalf("stat: %+v err=%v", fi, err)
	}
	// Namespace Stat must not touch storage.
	if got := f.pfs.Counts().Ops[storage.OpStat]; got != 0 {
		t.Fatalf("Stat hit the backend %d times", got)
	}
	// Every file starts at the source level.
	lvl, err := f.m.LevelOf("f000")
	if err != nil || lvl != 1 {
		t.Fatalf("level = %d err=%v", lvl, err)
	}
}

// TestInitLeavesOutStaleTempFiles: a PFS directory holding what a
// SIGKILL left behind — an OSFS temp file never renamed into place, a
// recovery probe's scratch file — yields a namespace of the dataset's
// shards and nothing else.
func TestInitLeavesOutStaleTempFiles(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const shards = 3
	for i := 0; i < shards; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%03d", i)), bytes.Repeat([]byte{byte(i + 1)}, 10), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{".monarch-12345", probeFile} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn!!!"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pfs, err := storage.NewOSFS("lustre", dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pfs.CloseIdle)
	m, err := New(Config{Levels: []storage.Backend{storage.NewMemFS("ssd", 0), pfs}, Pool: pool.NewGoPool(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if m.NumFiles() != shards {
		t.Fatalf("namespace has %d files, want the %d shards: %+v", m.NumFiles(), shards, m.Files())
	}
	if _, err := m.Stat(probeFile); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("Stat(%s) = %v, want ErrUnknownFile", probeFile, err)
	}
}

func TestInitTwiceRejected(t *testing.T) {
	f := newFixture(t, 0, 1, 10, nil)
	if err := f.m.Init(context.Background()); err == nil {
		t.Fatal("second Init should fail")
	}
}

func TestUnknownFile(t *testing.T) {
	f := newFixture(t, 0, 1, 10, nil)
	if _, err := f.m.ReadAt(context.Background(), "ghost", make([]byte, 1), 0); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("got %v", err)
	}
	if _, err := f.m.Stat("ghost"); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("stat: %v", err)
	}
	if _, err := f.m.LevelOf("ghost"); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("levelof: %v", err)
	}
}

func TestFirstReadServesFromPFSAndPlaces(t *testing.T) {
	f := newFixture(t, 0, 3, 1000, nil)
	ctx := context.Background()
	p := make([]byte, 100)
	n, err := f.m.ReadAt(ctx, "f000", p, 0)
	if err != nil || n != 100 {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if p[0] != 1 {
		t.Fatalf("wrong content: %d", p[0])
	}
	f.waitIdle(t)
	lvl, _ := f.m.LevelOf("f000")
	if lvl != 0 {
		t.Fatalf("file not promoted: level %d", lvl)
	}
	// Full file (not just the 100 read bytes) must be on tier 0: the
	// §III-A full-file fetch.
	got, err := f.tier0.ReadFile(ctx, "f000")
	if err != nil || len(got) != 1000 {
		t.Fatalf("tier0 copy: len=%d err=%v", len(got), err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{1}, 1000)) {
		t.Fatal("tier0 copy corrupted")
	}
	st := f.m.Stats()
	if st.Placements != 1 || st.PlacedBytes != 1000 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSubsequentReadsServedFromTier0(t *testing.T) {
	f := newFixture(t, 0, 1, 500, nil)
	ctx := context.Background()
	p := make([]byte, 500)
	if _, err := f.m.ReadAt(ctx, "f000", p, 0); err != nil {
		t.Fatal(err)
	}
	f.waitIdle(t)
	before := f.pfs.Counts().DataOps()
	for i := 0; i < 10; i++ {
		if _, err := f.m.ReadAt(ctx, "f000", p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.pfs.Counts().DataOps(); got != before {
		t.Fatalf("PFS ops grew from %d to %d after promotion", before, got)
	}
	st := f.m.Stats()
	if st.ReadsServed[0] != 10 || st.BytesServed[0] != 5000 {
		t.Fatalf("tier0 serving stats: %+v", st)
	}
	if st.HitRatio() < 0.9 {
		t.Fatalf("hit ratio = %v", st.HitRatio())
	}
}

func TestPlacementDeduplicated(t *testing.T) {
	f := newFixture(t, 0, 1, 100_000, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := make([]byte, 64)
			if _, err := f.m.ReadAt(ctx, "f000", p, int64(i)*64); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	f.waitIdle(t)
	st := f.m.Stats()
	if st.Placements != 1 {
		t.Fatalf("placements = %d, want exactly 1", st.Placements)
	}
	// The PFS should have been read roughly once for the copy (by
	// whole file), not 16 times.
	if br := f.pfs.Counts().BytesRead; br > 110_000 {
		t.Fatalf("PFS bytes read = %d, want ~100k + foreground", br)
	}
}

func TestFullReadReuseSkipsSourceReRead(t *testing.T) {
	f := newFixture(t, 0, 1, 2048, nil)
	ctx := context.Background()
	p := make([]byte, 2048)
	if _, err := f.m.ReadAt(ctx, "f000", p, 0); err != nil {
		t.Fatal(err)
	}
	f.waitIdle(t)
	st := f.m.Stats()
	if st.FullReadReuses != 1 {
		t.Fatalf("full-read reuses = %d", st.FullReadReuses)
	}
	// Exactly one PFS read op: the foreground one. No background fetch.
	if ops := f.pfs.Counts().Ops[storage.OpRead]; ops != 1 {
		t.Fatalf("PFS read ops = %d, want 1", ops)
	}
	got, err := f.tier0.ReadFile(ctx, "f000")
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{1}, 2048)) {
		t.Fatalf("tier0 content wrong (err=%v)", err)
	}
}

func TestPartialDatasetPlacementStopsAtQuota(t *testing.T) {
	// 10 files × 1000 bytes, tier0 quota 4500: only 4 files fit. The
	// paper's key scenario (§IV, 200 GiB dataset).
	f := newFixture(t, 4500, 10, 1000, nil)
	ctx := context.Background()
	p := make([]byte, 1000)
	for i := 0; i < 10; i++ {
		if _, err := f.m.ReadAt(ctx, fmt.Sprintf("f%03d", i), p, 0); err != nil {
			t.Fatal(err)
		}
		f.waitIdle(t)
	}
	st := f.m.Stats()
	if st.Placements != 4 {
		t.Fatalf("placements = %d, want 4", st.Placements)
	}
	if st.PlacementSkips != 6 {
		t.Fatalf("skips = %d, want 6", st.PlacementSkips)
	}
	if f.tier0.Used() != 4000 {
		t.Fatalf("tier0 used = %d", f.tier0.Used())
	}
	// Epoch 2: placed files hit tier0, the rest keep hitting the PFS —
	// and crucially no placement is retried.
	before := f.pfs.Counts().DataOps()
	placed, unplaced := 0, 0
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("f%03d", i)
		if _, err := f.m.ReadAt(ctx, name, p, 0); err != nil {
			t.Fatal(err)
		}
		if lvl, _ := f.m.LevelOf(name); lvl == 0 {
			placed++
		} else {
			unplaced++
		}
	}
	f.waitIdle(t)
	if placed != 4 || unplaced != 6 {
		t.Fatalf("placed/unplaced = %d/%d", placed, unplaced)
	}
	if got := f.pfs.Counts().DataOps() - before; got != 6 {
		t.Fatalf("epoch-2 PFS ops = %d, want 6", got)
	}
	if st := f.m.Stats(); st.Evictions != 0 {
		t.Fatalf("no-eviction policy evicted %d files", st.Evictions)
	}
}

func TestThreeLevelHierarchySpillover(t *testing.T) {
	// Files spill to level 1 when level 0 fills: §III-A's descending
	// placement across [0, N-2].
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	for i := 0; i < 6; i++ {
		if err := pfsRaw.WriteFile(ctx, fmt.Sprintf("f%d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	pfsRaw.SetReadOnly(true)
	ram := storage.NewMemFS("ram", 250) // fits 2
	ssd := storage.NewMemFS("ssd", 350) // fits 3
	gp := pool.NewGoPool(2)
	m, err := New(Config{
		Levels:        []storage.Backend{ram, ssd, pfsRaw},
		Pool:          gp,
		FullFileFetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 100)
	for i := 0; i < 6; i++ {
		if _, err := m.ReadAt(ctx, fmt.Sprintf("f%d", i), p, 0); err != nil {
			t.Fatal(err)
		}
		for !m.Idle() {
			time.Sleep(time.Millisecond)
		}
	}
	levels := make(map[int]int)
	for i := 0; i < 6; i++ {
		lvl, _ := m.LevelOf(fmt.Sprintf("f%d", i))
		levels[lvl]++
	}
	if levels[0] != 2 || levels[1] != 3 || levels[2] != 1 {
		t.Fatalf("level distribution = %v, want map[0:2 1:3 2:1]", levels)
	}
}

func TestReadAcrossOffsets(t *testing.T) {
	f := newFixture(t, 0, 1, 1000, nil)
	ctx := context.Background()
	p := make([]byte, 300)
	n, err := f.m.ReadAt(ctx, "f000", p, 900)
	if err != nil || n != 100 {
		t.Fatalf("tail read: n=%d err=%v", n, err)
	}
	n, err = f.m.ReadAt(ctx, "f000", p, 5000)
	if err != nil || n != 0 {
		t.Fatalf("past-EOF: n=%d err=%v", n, err)
	}
}

func TestReadFull(t *testing.T) {
	f := newFixture(t, 0, 1, 777, nil)
	data, err := f.m.ReadFull(context.Background(), "f000")
	if err != nil || len(data) != 777 {
		t.Fatalf("len=%d err=%v", len(data), err)
	}
}

func TestTierFailureFallsBackToPFS(t *testing.T) {
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	if err := pfsRaw.WriteFile(ctx, "f", bytes.Repeat([]byte{9}, 100)); err != nil {
		t.Fatal(err)
	}
	tier0 := storage.NewFaulty(storage.NewMemFS("ssd", 0))
	gp := pool.NewGoPool(1)
	m, err := New(Config{
		Levels:        []storage.Backend{tier0, pfsRaw},
		Pool:          gp,
		FullFileFetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 100)
	if _, err := m.ReadAt(ctx, "f", p, 0); err != nil {
		t.Fatal(err)
	}
	for !m.Idle() {
		time.Sleep(time.Millisecond)
	}
	if lvl, _ := m.LevelOf("f"); lvl != 0 {
		t.Fatal("file should be placed before fault")
	}
	tier0.Break()
	n, err := m.ReadAt(ctx, "f", p, 0)
	if err != nil || n != 100 || p[0] != 9 {
		t.Fatalf("fallback read: n=%d err=%v", n, err)
	}
	if st := m.Stats(); st.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d", st.Fallbacks)
	}
}

func TestPlacementWriteFailureLeavesFileOnPFS(t *testing.T) {
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	if err := pfsRaw.WriteFile(ctx, "f", bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	tier0 := storage.NewFaulty(storage.NewMemFS("ssd", 0))
	tier0.FailEveryNthWrite(1)
	gp := pool.NewGoPool(1)
	m, err := New(Config{
		Levels:        []storage.Backend{tier0, pfsRaw},
		Pool:          gp,
		FullFileFetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 10)
	if _, err := m.ReadAt(ctx, "f", p, 0); err != nil {
		t.Fatal(err)
	}
	for !m.Idle() {
		time.Sleep(time.Millisecond)
	}
	if lvl, _ := m.LevelOf("f"); lvl != 1 {
		t.Fatalf("file level = %d, want 1 (still on PFS)", lvl)
	}
	st := m.Stats()
	if st.PlacementErrors != 1 {
		t.Fatalf("placement errors = %d", st.PlacementErrors)
	}
	// Reads must keep working from the PFS.
	if _, err := m.ReadAt(ctx, "f", p, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFullFetchDisabledAblation(t *testing.T) {
	f := newFixture(t, 0, 2, 1000, func(c *Config) { c.FullFileFetch = false })
	ctx := context.Background()
	p := make([]byte, 100)
	// Partial first read: without the optimisation, nothing is placed.
	if _, err := f.m.ReadAt(ctx, "f000", p, 0); err != nil {
		t.Fatal(err)
	}
	f.waitIdle(t)
	if lvl, _ := f.m.LevelOf("f000"); lvl != 1 {
		t.Fatalf("partial read placed file at level %d", lvl)
	}
	// Full first read still places (content reuse path).
	full := make([]byte, 1000)
	if _, err := f.m.ReadAt(ctx, "f001", full, 0); err != nil {
		t.Fatal(err)
	}
	f.waitIdle(t)
	if lvl, _ := f.m.LevelOf("f001"); lvl != 0 {
		t.Fatalf("full read did not place: level %d", lvl)
	}
}

func TestPreStaging(t *testing.T) {
	f := newFixture(t, 2500, 5, 1000, func(c *Config) { c.Staging = StagePreTraining })
	// Init already pre-staged: first reads hit tier 0 immediately.
	st := f.m.Stats()
	if st.Placements != 2 || st.PlacementSkips != 3 {
		t.Fatalf("pre-stage placements/skips = %d/%d", st.Placements, st.PlacementSkips)
	}
	ctx := context.Background()
	p := make([]byte, 1000)
	if _, err := f.m.ReadAt(ctx, "f000", p, 0); err != nil {
		t.Fatal(err)
	}
	if got := f.m.Stats().ReadsServed[0]; got != 1 {
		t.Fatalf("first read not served from tier0 (served=%d)", got)
	}
}

func TestStagingModeString(t *testing.T) {
	if StageOnFirstRead.String() != "on-first-read" ||
		StagePreTraining.String() != "pre-training" ||
		StagingMode(99).String() != "unknown" {
		t.Fatal("StagingMode.String broken")
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	f := newFixture(t, 50_000, 40, 1000, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := make([]byte, 250)
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("f%03d", (w*7+i*13)%40)
				off := int64((i % 4) * 250)
				n, err := f.m.ReadAt(ctx, name, p, off)
				if err != nil {
					t.Error(err)
					return
				}
				if n != 250 {
					t.Errorf("short read %d", n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	f.waitIdle(t)
	st := f.m.Stats()
	if st.Placements != 40 {
		t.Fatalf("placements = %d, want 40", st.Placements)
	}
	total := st.ReadsServed[0] + st.ReadsServed[1]
	if total != 1600 {
		t.Fatalf("reads recorded = %d, want 1600", total)
	}
}

func TestStatsHitRatioEmpty(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("empty HitRatio should be 0")
	}
}
