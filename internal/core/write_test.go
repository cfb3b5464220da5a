package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"monarch/internal/pool"
	"monarch/internal/storage"
	"monarch/internal/trace"
)

// newWriteFixture builds a 2-level hierarchy with a WRITABLE PFS (the
// write path needs the source to accept flushes and recovery) and the
// write subsystem enabled.
type writeFixture struct {
	tier0 *storage.MemFS
	pfs   *storage.MemFS
	m     *Monarch
}

func newWriteFixture(t *testing.T, nfiles int, cfgEdit func(*Config)) *writeFixture {
	t.Helper()
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	for i := 0; i < nfiles; i++ {
		if err := pfs.WriteFile(ctx, fmt.Sprintf("data/f%03d", i), bytes.Repeat([]byte{byte(i + 1)}, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	tier0 := storage.NewMemFS("ssd", 1<<30)
	cfg := Config{
		Levels:        []storage.Backend{tier0, pfs},
		Pool:          pool.NewGoPool(4),
		FullFileFetch: true,
		Write:         WriteConfig{Enabled: true},
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
	return &writeFixture{tier0: tier0, pfs: pfs, m: m}
}

func backAll(string) Durability { return WriteBack }

func TestWritesDisabled(t *testing.T) {
	f := newFixture(t, 1<<20, 1, 64, nil)
	ctx := context.Background()
	if err := f.m.Create(ctx, "c", 10); !errors.Is(err, ErrWritesDisabled) {
		t.Fatalf("Create without Write config: %v", err)
	}
	if _, err := f.m.WriteAt(ctx, "c", []byte("x"), 0); !errors.Is(err, ErrWritesDisabled) {
		t.Fatalf("WriteAt without Write config: %v", err)
	}
	if err := f.m.Remove(ctx, "c"); !errors.Is(err, ErrWritesDisabled) {
		t.Fatalf("Remove without Write config: %v", err)
	}
	if err := f.m.Flush(ctx, ""); !errors.Is(err, ErrWritesDisabled) {
		t.Fatalf("Flush without Write config: %v", err)
	}
	if f.m.DirtyBytes() != 0 || f.m.WriteBurstActive() {
		t.Fatal("a read-only instance reports a write backlog")
	}
}

func TestWriteThrough(t *testing.T) {
	f := newWriteFixture(t, 2, nil)
	ctx := context.Background()
	const name = "ckpt/epoch-1"
	payload := bytes.Repeat([]byte{0xCD}, 4096)
	if err := f.m.Create(ctx, name, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if n, err := f.m.WriteAt(ctx, name, payload, 0); err != nil || n != len(payload) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	// Write-through: the PFS has the bytes before the ack.
	got, err := f.pfs.ReadFile(ctx, name)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("PFS content mismatch after write-through: %v", err)
	}
	// The file reads back through the middleware.
	buf := make([]byte, len(payload))
	if n, err := f.m.ReadAt(ctx, name, buf, 0); err != nil || !bytes.Equal(buf[:n], payload) {
		t.Fatalf("ReadAt after write: %d, %v", n, err)
	}
	s := f.m.Stats()
	if s.Creates != 1 || s.Writes != 1 || s.WriteBacks != 0 || s.WrittenBytes != int64(len(payload)) {
		t.Fatalf("stats after write-through: %+v", s)
	}
	if s.DirtyBytes != 0 {
		t.Fatalf("write-through left %d dirty bytes", s.DirtyBytes)
	}
}

func TestWriteBackAcksOnTier0ThenFlushes(t *testing.T) {
	f := newWriteFixture(t, 2, func(c *Config) {
		c.Write.Durability = backAll
	})
	ctx := context.Background()
	const name = "ckpt/shard-0"
	payload := bytes.Repeat([]byte{0xEE}, 8192)
	if err := f.m.Create(ctx, name, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.WriteAt(ctx, name, payload, 0); err != nil {
		t.Fatal(err)
	}
	// The ack landed on tier 0.
	if got, err := f.tier0.ReadFile(ctx, name); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("tier-0 content after write-back ack: %v", err)
	}
	if err := f.m.Flush(ctx, name); err != nil {
		t.Fatal(err)
	}
	if got, err := f.pfs.ReadFile(ctx, name); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("PFS content after flush: %v", err)
	}
	s := f.m.Stats()
	if s.WriteBacks != 1 || s.Flushes == 0 || s.DirtyBytes != 0 {
		t.Fatalf("stats after flush: WriteBacks=%d Flushes=%d Dirty=%d", s.WriteBacks, s.Flushes, s.DirtyBytes)
	}
	// Reads of the write-back file serve from tier 0.
	if lvl, err := f.m.LevelOf(name); err != nil || lvl != 0 {
		t.Fatalf("LevelOf(%s) = %d, %v; want tier 0", name, lvl, err)
	}
}

func TestWriteValidation(t *testing.T) {
	f := newWriteFixture(t, 2, nil)
	ctx := context.Background()
	if err := f.m.Create(ctx, "", 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := f.m.Create(ctx, "x", -1); err == nil {
		t.Fatal("negative size accepted")
	}
	// A dataset name must not be shadowed.
	if err := f.m.Create(ctx, "data/f000", 10); !errors.Is(err, storage.ErrExist) {
		t.Fatalf("Create over dataset file: %v", err)
	}
	if err := f.m.Create(ctx, "w", 16); err != nil {
		t.Fatal(err)
	}
	// Double create collides.
	if err := f.m.Create(ctx, "w", 16); !errors.Is(err, storage.ErrExist) {
		t.Fatalf("double Create: %v", err)
	}
	// Out-of-bounds writes are rejected.
	if _, err := f.m.WriteAt(ctx, "w", make([]byte, 8), 12); err == nil {
		t.Fatal("write past EOF accepted")
	}
	if _, err := f.m.WriteAt(ctx, "w", []byte("x"), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	// Dataset files are not writable.
	if _, err := f.m.WriteAt(ctx, "data/f000", []byte("x"), 0); !errors.Is(err, ErrNotWritable) {
		t.Fatalf("WriteAt on dataset file: %v", err)
	}
	if err := f.m.Remove(ctx, "data/f000"); !errors.Is(err, ErrNotWritable) {
		t.Fatalf("Remove on dataset file: %v", err)
	}
	if err := f.m.Flush(ctx, "data/f000"); !errors.Is(err, ErrNotWritable) {
		t.Fatalf("Flush on dataset file: %v", err)
	}
	// Zero-length writes are a no-op.
	if n, err := f.m.WriteAt(ctx, "w", nil, 0); n != 0 || err != nil {
		t.Fatalf("zero-length write: %d, %v", n, err)
	}
	// Every refusal above went through WriteAt's or Remove's one account
	// tail: counted against the write stage, nothing counted as written.
	if got := errorsAt(f.m, "write"); got != 4 {
		t.Fatalf(`errors{stage="write"} = %v, want 4 (three WriteAt, one Remove)`, got)
	}
	if s := f.m.Stats(); s.Writes != 0 || s.Removes != 0 {
		t.Fatalf("refused operations counted as done: %+v", s)
	}
	for d, want := range map[Durability]string{WriteThrough: "write-through", WriteBack: "write-back", Durability(7): "unknown"} {
		if d.String() != want {
			t.Errorf("Durability(%d) = %q, want %q", d, d, want)
		}
	}
}

func TestRemoveWritableFile(t *testing.T) {
	f := newWriteFixture(t, 1, func(c *Config) {
		c.Write.Durability = backAll
	})
	ctx := context.Background()
	const name = "ckpt/tmp"
	if err := f.m.Create(ctx, name, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.WriteAt(ctx, name, bytes.Repeat([]byte{1}, 32), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Flush(ctx, name); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Remove(ctx, name); err != nil {
		t.Fatal(err)
	}
	if _, err := f.tier0.Stat(ctx, name); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("tier-0 copy survived Remove: %v", err)
	}
	if _, err := f.pfs.Stat(ctx, name); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("PFS copy survived Remove: %v", err)
	}
	if _, err := f.m.Stat(name); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("namespace entry survived Remove: %v", err)
	}
	// The name is reusable.
	if err := f.m.Create(ctx, name, 8); err != nil {
		t.Fatalf("re-Create after Remove: %v", err)
	}
	if f.m.Stats().Removes != 1 {
		t.Fatalf("Removes = %d", f.m.Stats().Removes)
	}
}

// gatedBackend wraps a PFS so tests can control flush fate: every op
// the flusher lands bytes with — WriteFile for a whole-file claim,
// Allocate and WriteAt for ranges — blocks until release() (pinning
// dirty bytes deterministically) or fails outright after breakPFS()
// (the crash-test shape: acked bytes must survive on the journal alone,
// never reaching the PFS).
type gatedBackend struct {
	storage.Backend
	gate    chan struct{}
	fail    chan struct{}
	blocked chan struct{} // closed once the first write op is waiting
	landed  chan struct{} // closed once the first write op has returned
	once    sync.Once
	done    sync.Once
}

func newGatedBackend(b storage.Backend) *gatedBackend {
	return &gatedBackend{
		Backend: b,
		gate:    make(chan struct{}),
		fail:    make(chan struct{}),
		blocked: make(chan struct{}),
		landed:  make(chan struct{}),
	}
}

var errGated = errors.New("gated: PFS unavailable")

// pass parks the calling write op at the gate, or refuses it.
func (g *gatedBackend) pass() error {
	g.once.Do(func() { close(g.blocked) })
	select {
	case <-g.gate:
		return nil
	case <-g.fail:
		return errGated
	}
}

func (g *gatedBackend) returned() { g.done.Do(func() { close(g.landed) }) }

func (g *gatedBackend) WriteFile(ctx context.Context, name string, data []byte) error {
	defer g.returned()
	if err := g.pass(); err != nil {
		return err
	}
	return g.Backend.WriteFile(ctx, name, data)
}

func (g *gatedBackend) Allocate(ctx context.Context, name string, size int64) error {
	defer g.returned()
	if err := g.pass(); err != nil {
		return err
	}
	return g.Backend.(storage.RangeWriter).Allocate(ctx, name, size)
}

func (g *gatedBackend) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	defer g.returned()
	if err := g.pass(); err != nil {
		return 0, err
	}
	return g.Backend.(storage.RangeWriter).WriteAt(ctx, name, p, off)
}

func (g *gatedBackend) release()  { close(g.gate) }
func (g *gatedBackend) breakPFS() { close(g.fail) }

func TestDirtyBudgetStallsWriters(t *testing.T) {
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	if err := pfsRaw.WriteFile(ctx, "data/a", bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	pfs := newGatedBackend(pfsRaw)
	m, err := New(Config{
		Levels:        []storage.Backend{storage.NewMemFS("ssd", 1<<30), pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Write:         WriteConfig{Enabled: true, Durability: backAll},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.writes.budget = 1024 // one 1 KiB write fills it
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Create(ctx, "w", 4096); err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{9}, 1024)
	if _, err := m.WriteAt(ctx, "w", chunk, 0); err != nil {
		t.Fatal(err)
	}
	// The flusher is now stuck in the gated WriteFile with the budget
	// full; the next write must stall until we release the gate.
	<-pfs.blocked
	done := make(chan error, 1)
	go func() {
		_, werr := m.WriteAt(ctx, "w", chunk, 1024)
		done <- werr
	}()
	select {
	case err := <-done:
		t.Fatalf("second write did not stall (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	pfs.release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stalled write failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled write never completed")
	}
	if err := m.Flush(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.WriteStalls == 0 {
		t.Fatalf("WriteStalls = %d, want > 0", s.WriteStalls)
	}
}

func TestBurstGatePausesPlacement(t *testing.T) {
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	if err := pfsRaw.WriteFile(ctx, "data/a", bytes.Repeat([]byte{1}, 2048)); err != nil {
		t.Fatal(err)
	}
	pfs := newGatedBackend(pfsRaw)
	m, err := New(Config{
		Levels:        []storage.Backend{storage.NewMemFS("ssd", 1<<30), pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Write:         WriteConfig{Enabled: true, Durability: backAll},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.writes.idle = 20 * time.Millisecond
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	if err := m.Create(ctx, "ckpt", 1024); err != nil {
		t.Fatal(err)
	}
	// Dirty bytes pinned by the gated flush hold the burst gate open.
	if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{7}, 1024), 0); err != nil {
		t.Fatal(err)
	}
	<-pfs.blocked
	if !m.WriteBurstActive() {
		t.Fatal("burst not active with dirty bytes outstanding")
	}
	// Trigger a placement; it must pause while the burst is active.
	buf := make([]byte, 16)
	if _, err := m.ReadAt(ctx, "data/a", buf, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got := m.Stats().Placements; got != 0 {
		t.Fatalf("placement landed during burst (%d)", got)
	}
	pfs.release()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Placements == 0 {
		if time.Now().After(deadline) {
			t.Fatal("placement never resumed after burst drained")
		}
		time.Sleep(time.Millisecond)
	}
	if m.Stats().PlacementPauses == 0 {
		t.Fatal("no placement pause recorded")
	}
}

// TestRemoveDuringFlush: a Remove landing while the flusher is inside
// the source's WriteFile waits the flush out, so its PFS remove runs
// after the flusher's write (no ghost file) and the dirty bytes leave
// the ledger exactly once (never negative — which used to wedge
// Flush("") and cost Close its whole 30 s drain).
func TestRemoveDuringFlush(t *testing.T) {
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	pfs := newGatedBackend(pfsRaw)
	tier0 := storage.NewMemFS("ssd", 1<<30)
	m, err := New(Config{
		Levels: []storage.Backend{tier0, pfs},
		Pool:   pool.NewGoPool(2),
		Write:  WriteConfig{Enabled: true, Durability: backAll},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown() // a no-op after the timed Close below
	if err := m.Create(ctx, "ckpt", 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{3}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	<-pfs.blocked // the flusher is inside WriteFile
	removed := make(chan error, 1)
	go func() { removed <- m.Remove(ctx, "ckpt") }()
	early := false
	select {
	case err := <-removed:
		early = true
		t.Errorf("Remove returned (%v) with the flush still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	pfs.release()
	if !early {
		select {
		case err := <-removed:
			if err != nil {
				t.Errorf("Remove: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Remove never returned after the flush finished")
		}
	}
	<-pfs.landed
	fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := m.Flush(fctx, ""); err != nil {
		t.Errorf("Flush after Remove: %v", err)
	}
	if d := m.DirtyBytes(); d != 0 {
		t.Errorf("dirty ledger = %d after Remove, want 0", d)
	}
	if _, err := pfsRaw.Stat(ctx, "ckpt"); !errors.Is(err, storage.ErrNotExist) {
		t.Errorf("removed file is back on the PFS: %v", err)
	}
	if _, err := tier0.Stat(ctx, "ckpt"); !errors.Is(err, storage.ErrNotExist) {
		t.Errorf("removed file still on tier 0: %v", err)
	}
	start := time.Now()
	m.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with nothing left to drain", took)
	}
}

// gate parks its callers until opened; entered closes when the first
// one arrives. A nil gate lets everyone through.
type gate struct {
	entered, open chan struct{}
	once          sync.Once
}

func newGate() *gate { return &gate{entered: make(chan struct{}), open: make(chan struct{})} }

func (g *gate) pass() {
	if g != nil {
		g.once.Do(func() { close(g.entered) })
		<-g.open
	}
}

// parkedTier is a tier whose Remove and WriteAt can each be parked,
// pinning a core Remove between marking the file and deleting its
// bytes, or a writer between its reservation and its ack.
type parkedTier struct {
	*storage.MemFS
	removes, writes *gate
}

func (p *parkedTier) Remove(ctx context.Context, name string) error {
	p.removes.pass()
	return p.MemFS.Remove(ctx, name)
}

func (p *parkedTier) WriteAt(ctx context.Context, name string, b []byte, off int64) (int, error) {
	p.writes.pass()
	return p.MemFS.WriteAt(ctx, name, b, off)
}

// TestCreateDuringRemove: while a Remove is still deleting a file's
// bytes, a Create of the same name either fails with ErrExist or gets
// a file that survives the Remove and is writable — the stale Remove
// must never delete the fresh allocation.
func TestCreateDuringRemove(t *testing.T) {
	ctx := context.Background()
	tier0 := &parkedTier{MemFS: storage.NewMemFS("ssd", 1<<30), removes: newGate()}
	m, err := New(Config{
		Levels: []storage.Backend{tier0, storage.NewMemFS("lustre", 0)},
		Pool:   pool.NewGoPool(2),
		Write:  WriteConfig{Enabled: true, Durability: backAll},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Create(ctx, "ckpt", 64); err != nil {
		t.Fatal(err)
	}
	removed := make(chan error, 1)
	go func() { removed <- m.Remove(ctx, "ckpt") }()
	<-tier0.removes.entered // the Remove is parked inside tier 0
	cerr := m.Create(ctx, "ckpt", 64)
	if cerr != nil && !errors.Is(cerr, storage.ErrExist) {
		t.Fatalf("Create during Remove: %v", cerr)
	}
	close(tier0.removes.open)
	if err := <-removed; err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if cerr != nil {
		// Refused while the old file was going; the name is free now.
		if err := m.Create(ctx, "ckpt", 64); err != nil {
			t.Fatalf("Create after Remove returned: %v", err)
		}
	}
	payload := bytes.Repeat([]byte{8}, 64)
	if _, err := m.WriteAt(ctx, "ckpt", payload, 0); err != nil {
		t.Fatalf("the created file is not writable: %v", err)
	}
	if got, err := tier0.ReadFile(ctx, "ckpt"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("the created file did not survive the Remove: %v", err)
	}
}

// TestWriteRacingRemoveIsRefused: a write-back write whose bytes land
// on tier 0 after a Remove took the file is refused at its ack — not
// counted, not left on the ledger — and its reservation, visible while
// it was in flight, goes back exactly once.
func TestWriteRacingRemoveIsRefused(t *testing.T) {
	ctx := context.Background()
	tier0 := &parkedTier{MemFS: storage.NewMemFS("ssd", 1<<30), removes: newGate(), writes: newGate()}
	m, err := New(Config{
		Levels: []storage.Backend{tier0, storage.NewMemFS("lustre", 0)},
		Pool:   pool.NewGoPool(2),
		Write:  WriteConfig{Enabled: true, Durability: backAll},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Create(ctx, "ckpt", 64); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{1}, 64), 0)
		wrote <- err
	}()
	<-tier0.writes.entered // reserved, inside the tier-0 write
	if d := m.DirtyBytes(); d != 64 {
		t.Fatalf("in-flight reservation = %d, want 64", d)
	}
	removed := make(chan error, 1)
	go func() { removed <- m.Remove(ctx, "ckpt") }()
	<-tier0.removes.entered // the file is marked; its bytes are still there
	close(tier0.writes.open)
	if err := <-wrote; !errors.Is(err, ErrNotWritable) {
		t.Fatalf("write acked against a file being removed: %v", err)
	}
	close(tier0.removes.open)
	if err := <-removed; err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if s := m.Stats(); s.Writes != 0 || s.DirtyBytes != 0 || s.Removes != 1 {
		t.Fatalf("after the race: Writes=%d Dirty=%d Removes=%d", s.Writes, s.DirtyBytes, s.Removes)
	}
}

// TestWriteBackFailureReleasesBudget: a write-back write that dies on
// the journal append or on the tier-0 write acks nothing — the budget
// it reserved is back, the failure is counted once against its stage
// (and once against the write stage), and the file stays clean.
func TestWriteBackFailureReleasesBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		inject func(*Monarch, *storage.Faulty)
		stage  string
	}{
		{"journal append", func(m *Monarch, _ *storage.Faulty) { m.writes.jn.Close() }, "journal"},
		{"tier-0 write", func(_ *Monarch, tier0 *storage.Faulty) { tier0.FailNextWrites(1) }, "write"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			tier0 := storage.NewFaulty(storage.NewMemFS("ssd", 1<<30))
			m, err := New(Config{
				Levels: []storage.Backend{tier0, storage.NewMemFS("lustre", 0)},
				Pool:   pool.NewGoPool(2),
				Write: WriteConfig{Enabled: true, Durability: backAll,
					JournalPath: filepath.Join(t.TempDir(), "write.journal")},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Init(ctx); err != nil {
				t.Fatal(err)
			}
			defer m.Shutdown()
			if err := m.Create(ctx, "ckpt", 1024); err != nil {
				t.Fatal(err)
			}
			errsBefore := map[string]int64{"write": errorsAt(m, "write"), tc.stage: errorsAt(m, tc.stage)}
			tc.inject(m, tier0)
			if n, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{4}, 1024), 0); err == nil || n != 0 {
				t.Fatalf("WriteAt = %d, %v; want the injected failure", n, err)
			}
			if d := m.DirtyBytes(); d != 0 {
				t.Errorf("budget not released: %d dirty bytes", d)
			}
			if f := m.writes.file("ckpt"); f.dirty != 0 || f.state != writeClean || f.lastSeq != 0 {
				t.Errorf("failed write left the file dirty=%d state=%d lastSeq=%d", f.dirty, f.state, f.lastSeq)
			}
			for stage, before := range errsBefore {
				if got := errorsAt(m, stage) - before; got != 1 {
					t.Errorf("monarch_errors_total{stage=%q} moved by %v, want 1", stage, got)
				}
			}
			if s := m.Stats(); s.Writes != 0 || s.WriteBacks != 0 || s.WrittenBytes != 0 {
				t.Errorf("failed write counted as acked: %+v", s)
			}
			fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			if err := m.Flush(fctx, ""); err != nil {
				t.Errorf("Flush with nothing acked: %v", err)
			}
		})
	}
}

// TestWriteLifecycleEdges: the write subsystem of an instance that was
// never initialised, or is closed twice, or whose journal cannot be
// opened, fails or finishes cleanly — no hang, no panic.
func TestWriteLifecycleEdges(t *testing.T) {
	ctx := context.Background()
	build := func(jpath string) *Monarch {
		m, err := New(Config{
			Levels: []storage.Backend{storage.NewMemFS("ssd", 1<<30), storage.NewMemFS("lustre", 0)},
			Pool:   pool.NewGoPool(1),
			Write:  WriteConfig{Enabled: true, Durability: backAll, JournalPath: jpath},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	never := build(filepath.Join(t.TempDir(), "write.journal"))
	if err := never.Create(ctx, "ckpt", 8); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("Create before Init: %v", err)
	}
	never.Close() // no workers, no journal, nothing to drain
	never.Close()
	never.Shutdown()

	plain := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(plain, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	unopenable := build(filepath.Join(plain, "write.journal")) // its directory is a file
	defer unopenable.Close()
	if err := unopenable.Init(ctx); err == nil || !strings.Contains(err.Error(), "write journal") {
		t.Fatalf("Init over an unopenable journal: %v", err)
	}
}

// TestTraceTrailerCarriesWriteCounters: with the write path on, the
// trace trailer a replay is checked against includes the write-side
// counters.
func TestTraceTrailerCarriesWriteCounters(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "w.bin")
	f := newWriteFixture(t, 1, func(c *Config) {
		c.Write.Durability = backAll
		c.TracePath = path
	})
	if err := f.m.Create(ctx, "ckpt", 16); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{6}, 16), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Flush(ctx, "ckpt"); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Remove(ctx, "ckpt"); err != nil {
		t.Fatal(err)
	}
	f.m.Close()
	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{"writes": 1, "write_backs": 1, "written_bytes": 16, "flushes": 1, "removes": 1} {
		if got, ok := tr.Summary[key]; !ok || got != want {
			t.Errorf("trailer %s = %d (present=%v), want %d", key, got, ok, want)
		}
	}
}

// journalOp is one mutation the crash harness both issues against the
// write-back instance and replays against a reference PFS.
type journalOp struct {
	alloc bool
	name  string
	size  int64
	off   int64
	data  []byte
}

// TestJournalRecovery is the core-level crash harness: a write-back
// burst is journaled while the PFS is unreachable (every flush fails),
// then the process "dies" via Shutdown — no drain, tier 0 discarded.
// A fresh instance over the same PFS and journal must recover every
// acked byte, byte-identical to what a direct write-through run
// produces. The journal is then additionally truncated at every
// record boundary, asserting replay applies exactly the surviving
// prefix — no acked-write loss before the cut, no torn state after.
// A second crash run dies mid-flush instead: the PFS holds the
// allocated file and the first of two claimed ranges, the journal no
// flush record, and replay lands both ranges again.
func TestJournalRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	jpath := filepath.Join(dir, "write.journal")

	ops := []journalOp{
		{alloc: true, name: "ckpt/s0", size: 1024},
		{alloc: true, name: "ckpt/s1", size: 512},
		{name: "ckpt/s0", off: 0, data: bytes.Repeat([]byte{0xA0}, 1000)},
		{name: "ckpt/s1", off: 0, data: bytes.Repeat([]byte{0xB1}, 300)},
		{name: "ckpt/s0", off: 1000, data: bytes.Repeat([]byte{0xA2}, 24)},
		{name: "ckpt/s1", off: 300, data: bytes.Repeat([]byte{0xB3}, 212)},
		{name: "ckpt/s0", off: 512, data: bytes.Repeat([]byte{0xA4}, 100)}, // overwrite mid-file
	}
	applyRef := func(ref *storage.MemFS, ops []journalOp) {
		t.Helper()
		for _, o := range ops {
			if o.alloc {
				if err := ref.Allocate(ctx, o.name, o.size); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if _, err := ref.WriteAt(ctx, o.name, o.data, o.off); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Reference: the same ops written straight through to a bare PFS.
	ref := storage.NewMemFS("ref", 0)
	applyRef(ref, ops)
	want := map[string][]byte{}
	for _, name := range []string{"ckpt/s0", "ckpt/s1"} {
		data, err := ref.ReadFile(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = data
	}

	build := func(src storage.Backend) *Monarch {
		m, err := New(Config{
			Levels:        []storage.Backend{storage.NewMemFS("ssd", 1<<30), src},
			Pool:          pool.NewGoPool(2),
			FullFileFetch: true,
			Write: WriteConfig{
				Enabled:     true,
				Durability:  backAll,
				JournalPath: jpath,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
		return m
	}
	seed := func() *storage.MemFS {
		pfs := storage.NewMemFS("lustre", 0)
		if err := pfs.WriteFile(ctx, "data/a", bytes.Repeat([]byte{1}, 64)); err != nil {
			t.Fatal(err)
		}
		return pfs
	}

	// Crash run: flushes fail (PFS "down"), so durability rests on the
	// journal alone.
	pfs := seed()
	gated := newGatedBackend(pfs)
	gated.breakPFS()
	m1 := build(gated)
	// boundaries[i] = journal size after i acked ops: the record edges
	// the truncation sweep cuts at.
	boundaries := []int64{m1.writes.jn.Stats().Size}
	for _, o := range ops {
		if o.alloc {
			if err := m1.Create(ctx, o.name, o.size); err != nil {
				t.Fatal(err)
			}
		} else if _, err := m1.WriteAt(ctx, o.name, o.data, o.off); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, m1.writes.jn.Stats().Size)
	}
	m1.Shutdown() // kill -9: no flush, no drain, journal sealed as-is
	if _, err := pfs.Stat(ctx, "ckpt/s0"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("PFS saw checkpoint bytes before the crash: %v", err)
	}
	blob, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}

	// Full-journal recovery: byte-identical to the write-through run.
	m2 := build(pfs)
	for name, data := range want {
		got, err := pfs.ReadFile(ctx, name)
		if err != nil {
			t.Fatalf("recovered %s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("recovered %s differs from write-through reference", name)
		}
		// Recovered files are normal namespace entries.
		if _, err := m2.Stat(name); err != nil {
			t.Fatalf("recovered %s missing from namespace: %v", name, err)
		}
	}
	if s := m2.Stats(); s.RecoveredFiles != 2 {
		t.Fatalf("RecoveredFiles = %d, want 2", s.RecoveredFiles)
	}
	m2.Close()

	// Crash mid-flush: Shutdown after the first of two range writes
	// landed and before any flush record.
	pfs = seed()
	latched := latchedPFS{storage.NewFaulty(pfs)}
	m3 := build(latched)
	dieMidFlush(t, m3, latched)
	m3.Shutdown()
	half, err := pfs.ReadFile(ctx, twoRangeFile)
	if err != nil || !bytes.Equal(half[:1000], twoRangeOps[1].data) || bytes.Equal(half[3000:4000], twoRangeOps[2].data) {
		t.Fatalf("want the PFS to hold the first range and not the second at the crash: %v", err)
	}
	m4 := build(pfs)
	ref = storage.NewMemFS("ref", 0)
	applyRef(ref, twoRangeOps)
	wantTwo, _ := ref.ReadFile(ctx, twoRangeFile)
	if got, err := pfs.ReadFile(ctx, twoRangeFile); err != nil || !bytes.Equal(got, wantTwo) {
		t.Fatalf("recovery after a mid-flush crash differs from the write-through reference: %v", err)
	}
	if s := m4.Stats(); s.RecoveredFiles != 1 {
		t.Fatalf("RecoveredFiles = %d after the mid-flush crash, want 1", s.RecoveredFiles)
	}
	m4.Close()

	// Truncation sweep: cut the journal at every acked-op boundary and
	// assert recovery applies exactly that prefix.
	for cut := 0; cut < len(boundaries); cut++ {
		pfsN := seed()
		if err := os.WriteFile(jpath, blob[:boundaries[cut]], 0o644); err != nil {
			t.Fatal(err)
		}
		mN := build(pfsN)
		refN := storage.NewMemFS("ref", 0)
		applyRef(refN, ops[:cut])
		infos, err := refN.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range infos {
			gotData, err := pfsN.ReadFile(ctx, fi.Name)
			if err != nil {
				t.Fatalf("cut %d: recovered %s: %v", cut, fi.Name, err)
			}
			refData, _ := refN.ReadFile(ctx, fi.Name)
			if !bytes.Equal(gotData, refData) {
				t.Fatalf("cut %d: %s differs from prefix replay", cut, fi.Name)
			}
		}
		if cut == 0 {
			if _, err := pfsN.Stat(ctx, "ckpt/s0"); !errors.Is(err, storage.ErrNotExist) {
				t.Fatalf("cut 0: phantom file recovered from empty journal: %v", err)
			}
		}
		mN.Close()
	}
}

// TestJournalRemoveRecovery: a journaled Remove voids the file's
// pending records; recovery must not resurrect it.
func TestJournalRemoveRecovery(t *testing.T) {
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "write.journal")
	pfs := storage.NewMemFS("lustre", 0)
	if err := pfs.WriteFile(ctx, "data/a", []byte("dataset")); err != nil {
		t.Fatal(err)
	}
	gated := newGatedBackend(pfs)
	gated.breakPFS()
	build := func(src storage.Backend) *Monarch {
		m, err := New(Config{
			Levels:        []storage.Backend{storage.NewMemFS("ssd", 1<<30), src},
			Pool:          pool.NewGoPool(2),
			FullFileFetch: true,
			Write:         WriteConfig{Enabled: true, Durability: backAll, JournalPath: jpath},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := build(gated)
	if err := m1.Create(ctx, "tmp", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.WriteAt(ctx, "tmp", bytes.Repeat([]byte{5}, 64), 0); err != nil {
		t.Fatal(err)
	}
	if err := m1.Remove(ctx, "tmp"); err != nil {
		t.Fatal(err)
	}
	m1.Shutdown()

	m2 := build(pfs)
	defer m2.Close()
	if _, err := pfs.Stat(ctx, "tmp"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("removed file resurrected by recovery: %v", err)
	}
	if _, err := m2.Stat("tmp"); !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("removed file in recovered namespace: %v", err)
	}
}

// TestHeatPersistence (satellite): heat-policy state survives a
// graceful stop/reopen through the journal — the reopened instance
// picks the identical eviction victim.
func TestHeatPersistence(t *testing.T) {
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "write.journal")
	pfs := storage.NewMemFS("lustre", 0)
	for i := 0; i < 4; i++ {
		if err := pfs.WriteFile(ctx, fmt.Sprintf("data/f%d", i), bytes.Repeat([]byte{byte(i + 1)}, 256)); err != nil {
			t.Fatal(err)
		}
	}
	build := func(hp *HeatPolicy) *Monarch {
		m, err := New(Config{
			Levels:        []storage.Backend{storage.NewMemFS("ssd", 1<<30), pfs},
			Pool:          pool.NewGoPool(2),
			FullFileFetch: true,
			Eviction:      hp,
			Write:         WriteConfig{Enabled: true, JournalPath: jpath},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
		return m
	}
	hp1 := tunedHeat(2, 1.25)
	m1 := build(hp1)
	// Skewed access pattern: f0 hottest, f3 coldest.
	buf := make([]byte, 8)
	reads := map[string]int{"data/f0": 9, "data/f1": 5, "data/f2": 3, "data/f3": 1}
	for name, n := range reads {
		for i := 0; i < n; i++ {
			if _, err := m1.ReadAt(ctx, name, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	m1.MarkEpoch(1)
	wantEpoch := hp1.Epoch()
	wantHeat := map[string]float64{}
	for name := range reads {
		wantHeat[name] = hp1.Heat(name)
	}
	m1.Close() // graceful: persists the heat snapshot into the journal

	hp2 := tunedHeat(2, 1.25)
	m2 := build(hp2)
	defer m2.Close()
	if hp2.Epoch() != wantEpoch {
		t.Fatalf("restored epoch %d, want %d", hp2.Epoch(), wantEpoch)
	}
	for name, want := range wantHeat {
		if got := hp2.Heat(name); got != want {
			t.Fatalf("restored heat of %s = %v, want %v", name, got, want)
		}
	}
	// Identical victim choices: rebuild the placed books (a restart
	// re-places files) and contest the two policies with a candidate hot
	// enough to displace anyone.
	for _, hp := range []*HeatPolicy{hp1, hp2} {
		for name := range reads {
			hp.OnPlaced(name, 0)
		}
		for i := 0; i < 100; i++ {
			hp.OnAccess("data/new")
		}
		hp.AdvanceEpoch()
	}
	coldest := "data/f0"
	for name := range reads {
		if hp2.Heat(name) != hp1.Heat(name) {
			t.Fatalf("heat of %s diverged after restart: %v vs %v", name, hp1.Heat(name), hp2.Heat(name))
		}
		if hp2.Heat(name) < hp2.Heat(coldest) {
			coldest = name
		}
	}
	v1, ok1 := hp1.Victim("data/new", 0)
	v2, ok2 := hp2.Victim("data/new", 0)
	if !ok1 || !ok2 || v1 != v2 {
		t.Fatalf("victim diverged after restart: (%q,%v) vs (%q,%v)", v1, ok1, v2, ok2)
	}
	if v2 != coldest || coldest != "data/f3" {
		t.Fatalf("victim = %q, coldest by Heat = %q, want data/f3 for both", v2, coldest)
	}
}

// TestWritableFilesNeverEvicted: the eviction guard treats writable
// files as off-limits even when the policy's books propose them.
func TestWritableFilesNeverEvicted(t *testing.T) {
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	if err := pfs.WriteFile(ctx, "data/a", bytes.Repeat([]byte{1}, 600)); err != nil {
		t.Fatal(err)
	}
	lru := NewLRU()
	tier0 := storage.NewMemFS("ssd", 1024)
	m, err := New(Config{
		Levels:        []storage.Backend{tier0, pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Eviction:      lru,
		Write:         WriteConfig{Enabled: true, Durability: backAll},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// A writable file occupies most of tier 0.
	if err := m.Create(ctx, "ckpt", 600); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{2}, 600), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(ctx, "ckpt"); err != nil {
		t.Fatal(err)
	}
	// Poison the policy books: pretend ckpt is a placed resident, so it
	// is the only victim the policy can propose.
	lru.OnPlaced("ckpt", 0)
	// data/a (600 B) cannot fit beside ckpt (600 B) in 1024 B; the only
	// proposable victim is ckpt, which the guard must refuse.
	buf := make([]byte, 16)
	if _, err := m.ReadAt(ctx, "data/a", buf, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !m.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("placement did not settle")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := tier0.Stat(ctx, "ckpt"); err != nil {
		t.Fatalf("writable file evicted from tier 0: %v", err)
	}
	if got, err := tier0.ReadFile(ctx, "ckpt"); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{2}, 600)) {
		t.Fatalf("writable tier-0 content corrupted: %v", err)
	}
}
