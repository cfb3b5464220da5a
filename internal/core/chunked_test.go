package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monarch/internal/pool"
	"monarch/internal/storage"
)

// chunkContent generates deterministic, offset-sensitive file content so
// byte-identity checks catch misplaced chunks, not just missing ones.
func chunkContent(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte((i+1)*37 + j*131)
	}
	return b
}

// newChunkStack builds a 2-level hierarchy over an arbitrary tier-0
// backend with chunked placement on (ChunkSize 256 unless edited) and
// nfiles of fileSize bytes named c000, c001, ... on the PFS.
func newChunkStack(t *testing.T, tier0 storage.Backend, workers, nfiles, fileSize int, edit func(*Config)) *Monarch {
	t.Helper()
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	for i := 0; i < nfiles; i++ {
		if err := pfs.WriteFile(ctx, fmt.Sprintf("c%03d", i), chunkContent(i, fileSize)); err != nil {
			t.Fatal(err)
		}
	}
	pfs.SetReadOnly(true)
	cfg := Config{
		Levels:        []storage.Backend{tier0, pfs},
		Pool:          pool.NewGoPool(workers),
		FullFileFetch: true,
		ChunkSize:     256,
	}
	if edit != nil {
		edit(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	return m
}

// newOSFSTier is a tier-0 backend on a real directory, for the tests
// that need the real read path: cached descriptors and mapped views.
func newOSFSTier(t *testing.T, capacity int64) *storage.OSFS {
	t.Helper()
	o, err := storage.NewOSFS("ssd", t.TempDir(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.CloseIdle)
	return o
}

func waitIdleM(t *testing.T, m *Monarch) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !m.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("placements did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedFS lets the first WriteAt through and blocks every later one
// until release is closed, freezing a chunked placement mid-copy.
type gatedFS struct {
	*storage.MemFS
	release chan struct{}
	writes  atomic.Int64
}

func (g *gatedFS) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if g.writes.Add(1) > 1 {
		select {
		case <-g.release:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return g.MemFS.WriteAt(ctx, name, p, off)
}

// TestChunkedMidCopyReadThrough is the tentpole's acceptance test: with
// a chunked placement frozen after its first chunk, a read of the
// already-landed range is served from the upper tier (PartialHits > 0)
// while a range touching a missing chunk still goes to the source.
func TestChunkedMidCopyReadThrough(t *testing.T) {
	g := &gatedFS{MemFS: storage.NewMemFS("ssd", 0), release: make(chan struct{})}
	var once sync.Once
	open := func() { once.Do(func() { close(g.release) }) }
	m := newChunkStack(t, g, 1, 1, 1024, nil) // 4 chunks of 256
	t.Cleanup(open)                           // unblock the worker even if the test fails early
	ctx := context.Background()
	want := chunkContent(0, 1024)

	// A partial first read triggers the chunked placement (a full read
	// would take the §III-B full-content reuse path instead).
	if _, err := m.ReadAt(ctx, "c000", make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	// Wait for chunk 0 to land; the single worker then blocks inside
	// chunk 1's WriteAt, so exactly one chunk is resident.
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().ChunkPlacements == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no chunk landed")
		}
		time.Sleep(time.Millisecond)
	}

	// Covered range: chunk 0 only — must be served from tier 0.
	buf := make([]byte, 256)
	n, err := m.ReadAt(ctx, "c000", buf, 0)
	if err != nil || n != 256 {
		t.Fatalf("mid-copy read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(buf, want[:256]) {
		t.Fatal("mid-copy read returned corrupt bytes")
	}
	st := m.Stats()
	if st.PartialHits != 1 || st.PartialHitBytes != 256 {
		t.Fatalf("partial hits = %d (%d B), want 1 (256 B)", st.PartialHits, st.PartialHitBytes)
	}
	if st.ReadsServed[0] != 1 {
		t.Fatalf("tier-0 reads = %d, want 1", st.ReadsServed[0])
	}

	// Straddling range [128,384) touches the unlanded chunk 1: source.
	buf2 := make([]byte, 256)
	if _, err := m.ReadAt(ctx, "c000", buf2, 128); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2, want[128:384]) {
		t.Fatal("straddling read returned corrupt bytes")
	}
	if st := m.Stats(); st.PartialHits != 1 {
		t.Fatalf("straddling read counted as partial hit (%d)", st.PartialHits)
	}

	// Release the copy; the placement must complete normally.
	open()
	waitIdleM(t, m)
	st = m.Stats()
	if st.Placements != 1 || st.ChunkPlacements != 4 || st.PlacedBytes != 1024 {
		t.Fatalf("final stats: placements=%d chunks=%d bytes=%d",
			st.Placements, st.ChunkPlacements, st.PlacedBytes)
	}
	if lvl, _ := m.LevelOf("c000"); lvl != 0 {
		t.Fatalf("file on level %d after placement", lvl)
	}
	got, err := m.ReadFull(ctx, "c000")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("placed content differs from source (err=%v)", err)
	}
}

// TestChunkedPlacementMatchesSource fans several files out across a
// multi-worker pool and checks the landed copies byte-for-byte.
func TestChunkedPlacementMatchesSource(t *testing.T) {
	tier0 := storage.NewMemFS("ssd", 0)
	const nfiles, fileSize = 5, 1000 // 4 chunks per file (256-byte chunks)
	m := newChunkStack(t, tier0, 4, nfiles, fileSize, nil)
	ctx := context.Background()
	for i := 0; i < nfiles; i++ {
		if _, err := m.ReadAt(ctx, fmt.Sprintf("c%03d", i), make([]byte, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitIdleM(t, m)
	st := m.Stats()
	if st.Placements != nfiles || st.ChunkPlacements != 4*nfiles || st.PlacedBytes != nfiles*fileSize {
		t.Fatalf("stats: placements=%d chunks=%d bytes=%d",
			st.Placements, st.ChunkPlacements, st.PlacedBytes)
	}
	for i := 0; i < nfiles; i++ {
		name := fmt.Sprintf("c%03d", i)
		if lvl, _ := m.LevelOf(name); lvl != 0 {
			t.Fatalf("%s on level %d", name, lvl)
		}
		got, err := tier0.ReadFile(ctx, name)
		if err != nil || !bytes.Equal(got, chunkContent(i, fileSize)) {
			t.Fatalf("%s: placed copy differs from source (err=%v)", name, err)
		}
	}
}

// TestChunkSizeZeroParity runs the same workload with ChunkSize=0 and
// with chunking on: bytes must be identical, and the ChunkSize=0 run
// must be stat-for-stat the whole-file behaviour — which, for files this
// small, is fetch-through: each partial first read is the file's one
// source fetch and the copy reuses it, where the chunked run's copies
// read the source again.
func TestChunkSizeZeroParity(t *testing.T) {
	const nfiles, fileSize = 4, 1000
	workload := func(chunkSize int64) ([]byte, Stats) {
		t.Helper()
		m := newChunkStack(t, storage.NewMemFS("ssd", 0), 4, nfiles, fileSize,
			func(c *Config) { c.ChunkSize = chunkSize })
		ctx := context.Background()
		var out []byte
		small := make([]byte, 7)
		for i := 0; i < nfiles; i++ {
			n, err := m.ReadAt(ctx, fmt.Sprintf("c%03d", i), small, 900)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, small[:n]...)
		}
		waitIdleM(t, m)
		full := make([]byte, fileSize)
		for i := 0; i < nfiles; i++ {
			name := fmt.Sprintf("c%03d", i)
			n, err := m.ReadAt(ctx, name, full, 0)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, full[:n]...)
			if n, err := m.ReadAt(ctx, name, full, fileSize); err != nil || n != 0 {
				t.Fatalf("read at EOF: n=%d err=%v", n, err)
			}
		}
		st := m.Stats()
		st.InFlight = 0
		return out, st
	}

	wholeBytes, whole := workload(0)
	chunkBytes, chunked := workload(256)
	if !bytes.Equal(wholeBytes, chunkBytes) {
		t.Fatal("chunked and whole-file runs returned different bytes")
	}
	if whole.ChunkPlacements != 0 || whole.PartialHits != 0 || whole.PartialHitBytes != 0 {
		t.Fatalf("ChunkSize=0 produced chunk activity: %+v", whole)
	}
	if whole.FetchThroughs != nfiles || whole.FetchThroughBytes != nfiles*fileSize || whole.FullReadReuses != nfiles {
		t.Fatalf("ChunkSize=0: %d fetch-throughs of %d bytes, %d reuses; want every file's first read to be its fetch",
			whole.FetchThroughs, whole.FetchThroughBytes, whole.FullReadReuses)
	}
	if chunked.FetchThroughs != 0 || chunked.FetchThroughBytes != 0 || chunked.FullReadReuses != 0 {
		t.Fatalf("chunked run fetched through: %+v", chunked)
	}
	// With each mode's own counters factored out, every other counter
	// must match the whole-file run exactly.
	chunked.ChunkPlacements = 0
	whole.FetchThroughs, whole.FetchThroughBytes, whole.FullReadReuses = 0, 0, 0
	if !reflect.DeepEqual(whole, chunked) {
		t.Fatalf("stats diverge:\nwhole-file: %+v\nchunked:    %+v", whole, chunked)
	}
}

// bareBackend hides MemFS's optional interfaces (RangeWriter, Copier) so
// the stack behaves like a tier that only supports whole-file writes.
type bareBackend struct{ storage.Backend }

// TestChunkedFallsBackWithoutRangeWriter checks both fallback routes:
// a tier that does not type-assert to RangeWriter, and an
// instrumentation wrapper that advertises RangeWriter but whose inner
// backend lacks it (errors.ErrUnsupported).
func TestChunkedFallsBackWithoutRangeWriter(t *testing.T) {
	cases := []struct {
		name  string
		tier0 func() storage.Backend
		read  func(ctx context.Context, b storage.Backend, name string) ([]byte, error)
	}{
		{"bare", func() storage.Backend { return bareBackend{storage.NewMemFS("ssd", 0)} },
			func(ctx context.Context, b storage.Backend, name string) ([]byte, error) {
				return b.ReadFile(ctx, name)
			}},
		{"counting-over-bare", func() storage.Backend {
			return storage.NewCounting(bareBackend{storage.NewMemFS("ssd", 0)})
		},
			func(ctx context.Context, b storage.Backend, name string) ([]byte, error) {
				return b.ReadFile(ctx, name)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tier0 := tc.tier0()
			m := newChunkStack(t, tier0, 4, 2, 1000, nil)
			ctx := context.Background()
			for i := 0; i < 2; i++ {
				if _, err := m.ReadAt(ctx, fmt.Sprintf("c%03d", i), make([]byte, 1), 0); err != nil {
					t.Fatal(err)
				}
			}
			waitIdleM(t, m)
			st := m.Stats()
			if st.Placements != 2 || st.ChunkPlacements != 0 {
				t.Fatalf("stats: placements=%d chunks=%d (want whole-file fallback)",
					st.Placements, st.ChunkPlacements)
			}
			for i := 0; i < 2; i++ {
				name := fmt.Sprintf("c%03d", i)
				got, err := tc.read(ctx, tier0, name)
				if err != nil || !bytes.Equal(got, chunkContent(i, 1000)) {
					t.Fatalf("%s: fallback copy differs from source (err=%v)", name, err)
				}
			}
		})
	}
}

// failFS fails every WriteAt targeting one file; other files write
// normally.
type failFS struct {
	*storage.MemFS
	failName string
}

func (f *failFS) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if name == f.failName {
		return 0, fmt.Errorf("ssd: write %q: injected chunk failure", name)
	}
	return f.MemFS.WriteAt(ctx, name, p, off)
}

// TestChunkFailureDemotesOnlyThatFile: a failed chunk removes the
// partial copy and marks only that file unplaceable — siblings place
// normally and reads of the failed file still come from the source.
func TestChunkFailureDemotesOnlyThatFile(t *testing.T) {
	tier0 := &failFS{MemFS: storage.NewMemFS("ssd", 0), failName: "c000"}
	m := newChunkStack(t, tier0, 2, 2, 1000, nil)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := m.ReadAt(ctx, fmt.Sprintf("c%03d", i), make([]byte, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitIdleM(t, m)
	st := m.Stats()
	if st.PlacementErrors != 1 || st.Placements != 1 {
		t.Fatalf("stats: errors=%d placements=%d", st.PlacementErrors, st.Placements)
	}
	// The partial copy must not survive: the tier would serve torn data.
	if _, err := tier0.MemFS.ReadFile(ctx, "c000"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("partial copy left on tier 0: err=%v", err)
	}
	if lvl, _ := m.LevelOf("c000"); lvl != 1 {
		t.Fatalf("failed file on level %d, want source", lvl)
	}
	got, err := m.ReadFull(ctx, "c000")
	if err != nil || !bytes.Equal(got, chunkContent(0, 1000)) {
		t.Fatalf("failed file unreadable from source: %v", err)
	}
	// The sibling is unaffected.
	if lvl, _ := m.LevelOf("c001"); lvl != 0 {
		t.Fatalf("sibling on level %d, want 0", lvl)
	}
	if got, err := tier0.MemFS.ReadFile(ctx, "c001"); err != nil || !bytes.Equal(got, chunkContent(1, 1000)) {
		t.Fatalf("sibling copy differs from source (err=%v)", err)
	}
}

// flakyFS fails the first WriteAt, then recovers.
type flakyFS struct {
	*storage.MemFS
	failures atomic.Int64
}

func (f *flakyFS) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if f.failures.Add(1) == 1 {
		return 0, fmt.Errorf("ssd: write %q: transient device error", name)
	}
	return f.MemFS.WriteAt(ctx, name, p, off)
}

// TestChunkFailureRetriesTransiently: with Config.Retry set, a
// transient chunk failure re-queues the whole placement instead of
// marking the file unplaceable.
func TestChunkFailureRetriesTransiently(t *testing.T) {
	tier0 := &flakyFS{MemFS: storage.NewMemFS("ssd", 0)}
	m := newChunkStack(t, tier0, 2, 1, 1000, func(c *Config) {
		c.Retry = RetryPolicy{MaxAttempts: 3}
	})
	ctx := context.Background()
	if _, err := m.ReadAt(ctx, "c000", make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	waitIdleM(t, m)
	st := m.Stats()
	if st.Placements != 1 || st.PlacementRetries != 1 || st.PlacementErrors != 0 {
		t.Fatalf("stats: placements=%d retries=%d errors=%d",
			st.Placements, st.PlacementRetries, st.PlacementErrors)
	}
	got, err := tier0.MemFS.ReadFile(ctx, "c000")
	if err != nil || !bytes.Equal(got, chunkContent(0, 1000)) {
		t.Fatalf("retried copy differs from source (err=%v)", err)
	}
}

// TestChunkedNoSpaceMidCopyIsASkip: a tier that runs out of room after a
// chunked copy began landing on it settles the attempt there — the torn
// copy dropped, the file a skip — rather than sending the copy down to
// the next level with the first tier's prefix still armed.
func TestChunkedNoSpaceMidCopyIsASkip(t *testing.T) {
	tier0 := &copyTier{MemFS: storage.NewMemFS("ssd", 0), onCopy: func(n int) error {
		if n == 2 {
			return storage.ErrNoSpace
		}
		return nil
	}}
	tier1 := storage.NewMemFS("hdd", 0)
	m := newChunkStack(t, tier0, 1, 1, 1024, func(c *Config) {
		c.Levels = []storage.Backend{tier0, tier1, c.Levels[1]}
	})
	ctx := context.Background()
	if _, err := m.ReadAt(ctx, "c000", make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	waitIdleM(t, m)
	if st := m.Stats(); st.PlacementSkips != 1 || st.Placements != 0 || st.ChunkPlacements != 1 {
		t.Fatalf("stats: skips=%d placements=%d chunks=%d, want 1, 0 and 1",
			st.PlacementSkips, st.Placements, st.ChunkPlacements)
	}
	if e, _ := m.meta.get("c000"); e.currentState() != stateUnplaceable {
		t.Fatalf("entry state %v, want unplaceable", e.currentState())
	}
	for _, b := range []*storage.MemFS{tier0.MemFS, tier1} {
		if infos, err := b.List(ctx); err != nil || len(infos) != 0 || b.Used() != 0 {
			t.Fatalf("%s holds %v (%d bytes, err=%v), want nothing", b.Name(), infos, b.Used(), err)
		}
	}
}

// cancellingTier cancels a context after its first successful
// whole-file write, simulating a shutdown that lands mid-pre-stage.
type cancellingTier struct {
	*storage.MemFS
	cancel context.CancelFunc
	writes atomic.Int64
}

func (c *cancellingTier) WriteFile(ctx context.Context, name string, data []byte) error {
	err := c.MemFS.WriteFile(ctx, name, data)
	if err == nil && c.writes.Add(1) == 1 {
		c.cancel()
	}
	return err
}

// TestPreStageHonoursCancellation covers the preStage bugfix: the
// namespace walk must check ctx between files, both when the context is
// cancelled up front and when cancellation lands mid-walk.
func TestPreStageHonoursCancellation(t *testing.T) {
	t.Run("cancelled-before", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m := buildPreStage(t, storage.NewMemFS("ssd", 0), 0)
		if err := m.Init(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("Init = %v, want context.Canceled", err)
		}
		if st := m.Stats(); st.Placements != 0 {
			t.Fatalf("placements = %d after cancelled pre-stage", st.Placements)
		}
	})
	t.Run("cancelled-mid-walk", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		tier0 := &cancellingTier{MemFS: storage.NewMemFS("ssd", 0), cancel: cancel}
		m := buildPreStage(t, tier0, 0)
		if err := m.Init(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("Init = %v, want context.Canceled", err)
		}
		if st := m.Stats(); st.Placements != 1 {
			t.Fatalf("placements = %d, want 1 (walk must stop after the cancel)", st.Placements)
		}
	})
}

// buildPreStage assembles a pre-training-staging stack over tier0 with
// three files, without calling Init.
func buildPreStage(t *testing.T, tier0 storage.Backend, chunkSize int64) *Monarch {
	t.Helper()
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	for i := 0; i < 3; i++ {
		if err := pfs.WriteFile(ctx, fmt.Sprintf("c%03d", i), chunkContent(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	pfs.SetReadOnly(true)
	m, err := New(Config{
		Levels:        []storage.Backend{tier0, pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Staging:       StagePreTraining,
		ChunkSize:     chunkSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestPreStageCompletesBeforeInit: pre-training staging happens before
// training starts, so with ChunkSize set every file is placed, and
// byte-identical on the tier, by the time Init returns — its chunked
// copies run on the caller, window by window, like any other.
func TestPreStageCompletesBeforeInit(t *testing.T) {
	tier0 := storage.NewMemFS("ssd", 0)
	m := buildPreStage(t, tier0, 256)
	ctx := context.Background()
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Placements != 3 || st.ChunkPlacements != 3*2 {
		t.Fatalf("stats: placements=%d chunks=%d when Init returned, want 3 and 6",
			st.Placements, st.ChunkPlacements)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("c%03d", i)
		if lvl, _ := m.LevelOf(name); lvl != 0 {
			t.Fatalf("%s on level %d when Init returned", name, lvl)
		}
		if got, err := tier0.ReadFile(ctx, name); err != nil || !bytes.Equal(got, chunkContent(i, 512)) {
			t.Fatalf("%s: pre-staged copy differs from source (err=%v)", name, err)
		}
	}
}

// countingPool is a GoPool that counts the tasks submitted to it.
type countingPool struct {
	*pool.GoPool
	submits atomic.Int64
}

func (p *countingPool) Submit(t pool.Task) bool {
	p.submits.Add(1)
	return p.GoPool.Submit(t)
}

// offsetLog records the offset of every WriteAt that reaches it.
type offsetLog struct {
	*storage.MemFS
	mu   sync.Mutex
	offs []int64
}

func (o *offsetLog) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	o.mu.Lock()
	o.offs = append(o.offs, off)
	o.mu.Unlock()
	return o.MemFS.WriteAt(ctx, name, p, off)
}

// TestChunkedPlacementIsOneTask: a chunked placement is the one pool
// task its first read queued, and that task copies the file's windows in
// offset order — on a pool with idle workers to spare, nothing fans out.
func TestChunkedPlacementIsOneTask(t *testing.T) {
	tier0 := &offsetLog{MemFS: storage.NewMemFS("ssd", 0)}
	gp := &countingPool{GoPool: pool.NewGoPool(4)}
	m := newChunkStack(t, tier0, 4, 1, 8*256, func(c *Config) { // 8 windows of 256
		c.Pool.Close()
		c.Pool = gp
	})
	if _, err := m.ReadAt(context.Background(), "c000", make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	waitIdleM(t, m)
	if got := gp.submits.Load(); got != 1 {
		t.Fatalf("one placement submitted %d pool tasks, want 1", got)
	}
	if st := m.Stats(); st.Placements != 1 || st.ChunkPlacements != 8 {
		t.Fatalf("stats: placements=%d chunks=%d, want 1 and 8", st.Placements, st.ChunkPlacements)
	}
	tier0.mu.Lock()
	defer tier0.mu.Unlock()
	if len(tier0.offs) != 8 {
		t.Fatalf("%d window writes, want 8: %v", len(tier0.offs), tier0.offs)
	}
	for i := 1; i < len(tier0.offs); i++ {
		if tier0.offs[i] <= tier0.offs[i-1] {
			t.Fatalf("window writes out of offset order: %v", tier0.offs)
		}
	}
}
