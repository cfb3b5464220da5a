package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"monarch/internal/bufpool"
	"monarch/internal/journal"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// opLog is a PFS that writes down which op each flush landed with.
type opLog struct {
	storage.Backend
	mu  sync.Mutex
	ops []string
}

func (o *opLog) note(op string) {
	o.mu.Lock()
	o.ops = append(o.ops, op)
	o.mu.Unlock()
}

func (o *opLog) take() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	ops := o.ops
	o.ops = nil
	return ops
}

func (o *opLog) WriteFile(ctx context.Context, name string, data []byte) error {
	o.note("WriteFile")
	return o.Backend.WriteFile(ctx, name, data)
}

func (o *opLog) Allocate(ctx context.Context, name string, size int64) error {
	o.note("Allocate")
	return o.Backend.(storage.RangeWriter).Allocate(ctx, name, size)
}

func (o *opLog) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	o.note(fmt.Sprintf("WriteAt[%d,%d)", off, off+int64(len(p))))
	return o.Backend.(storage.RangeWriter).WriteAt(ctx, name, p, off)
}

// latchedPFS is a storage.Faulty that goes down at its first injected
// range-write fault and stays down until the test fixes it, so the state
// a refused flush leaves behind holds still long enough to be looked at.
type latchedPFS struct{ *storage.Faulty }

func (l latchedPFS) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	down := l.Broken() // a write refused for that is no new fault — and may race the test's Fix
	n, err := l.Faulty.WriteAt(ctx, name, p, off)
	if errors.Is(err, storage.ErrInjected) && !down {
		l.Break()
	}
	return n, err
}

// writeBackStack is an initialised write-back stack over tier0 and src;
// jpath "" runs it without a journal. idle, when set, replaces the
// flusher's back-off.
func writeBackStack(t testing.TB, tier0, src storage.Backend, jpath string, idle time.Duration) *Monarch {
	t.Helper()
	m, err := New(Config{
		Levels: []storage.Backend{tier0, src},
		Pool:   pool.NewGoPool(2),
		Write:  WriteConfig{Enabled: true, Durability: backAll, JournalPath: jpath},
	})
	if err != nil {
		t.Fatal(err)
	}
	if idle > 0 {
		m.writes.idle = idle
	}
	if err := m.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m
}

func eventually(t testing.TB, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// Two ranges of one 4 KiB file with a gap between them: a claim that is
// not the whole file and takes two PFS writes.
const twoRangeFile, twoRangeSize = "ckpt/two", 4096

var twoRangeOps = []journalOp{
	{alloc: true, name: twoRangeFile, size: twoRangeSize},
	{name: twoRangeFile, off: 0, data: bytes.Repeat([]byte{0xA1}, 1000)},
	{name: twoRangeFile, off: 3000, data: bytes.Repeat([]byte{0xA2}, 1000)},
}

// dieMidFlush acks twoRangeOps with the PFS down, so both ranges wait in
// one claim, then lets the PFS take exactly the Allocate and the first
// range: the second range's write is refused and the PFS stays down.
func dieMidFlush(t testing.TB, m *Monarch, pfs latchedPFS) {
	t.Helper()
	ctx := context.Background()
	pfs.Break()
	for _, o := range twoRangeOps {
		if o.alloc {
			if err := m.Create(ctx, o.name, o.size); err != nil {
				t.Fatal(err)
			}
		} else if _, err := m.WriteAt(ctx, o.name, o.data, o.off); err != nil {
			t.Fatal(err)
		}
	}
	// A claim of the first range alone, taken before the second was
	// acked, may still be on its way to the PFS: let it be refused first,
	// or it lands once the PFS is back and the second range gets a claim
	// of its own.
	f := m.writes.file(twoRangeFile)
	eventually(t, "both ranges wait in one claim", func() bool {
		m.writes.mu.Lock()
		defer m.writes.mu.Unlock()
		return f.state == writeDirty && len(f.ranges) == 2
	})
	pfs.FailEveryNthWrite(3) // Allocate, the first range, then the fault
	pfs.Fix()
	eventually(t, "the second range's write is refused", pfs.Broken)
}

// TestRangeFlushRefusalKeepsEveryRangeDirty: the PFS refuses the second
// range of a two-range claim after the first has landed. Nothing is
// released — both ranges are dirty again, the ledger still reads the
// whole claim — and once the PFS is back the retry lands both.
func TestRangeFlushRefusalKeepsEveryRangeDirty(t *testing.T) {
	ctx := context.Background()
	tier0, raw := storage.NewMemFS("ssd", 0), storage.NewMemFS("lustre", 0)
	pfs := latchedPFS{storage.NewFaulty(raw)}
	m := writeBackStack(t, tier0, pfs, "", time.Millisecond)
	defer m.Shutdown()
	dieMidFlush(t, m, pfs)

	f := m.writes.file(twoRangeFile)
	eventually(t, "both ranges merged back", func() bool {
		m.writes.mu.Lock()
		defer m.writes.mu.Unlock()
		return len(f.ranges) == 2 && f.ranges[0] == span{0, 1000} && f.ranges[1] == span{3000, 4000}
	})
	if d := m.DirtyBytes(); d != 2000 {
		t.Fatalf("DirtyBytes = %d after the refusal, want the whole claim (2000)", d)
	}
	got, err := raw.ReadFile(ctx, twoRangeFile)
	if err != nil {
		t.Fatalf("the PFS lacks the file its Allocate was let through for: %v", err)
	}
	if !bytes.Equal(got[:1000], twoRangeOps[1].data) || !bytes.Equal(got[3000:4000], make([]byte, 1000)) {
		t.Fatal("want the first range landed and the second not")
	}
	if s := m.Stats(); s.Flushes != 0 || s.FlushedBytes != 0 {
		t.Fatalf("a refused flush was counted: %+v", s)
	}

	pfs.FailEveryNthWrite(0)
	pfs.Fix()
	eventually(t, "the retry lands", func() bool { return m.DirtyBytes() == 0 })
	want, _ := tier0.ReadFile(ctx, twoRangeFile)
	if got, _ := raw.ReadFile(ctx, twoRangeFile); !bytes.Equal(got, want) {
		t.Fatal("PFS bytes differ from tier 0 after the retry")
	}
	if err := m.Flush(ctx, twoRangeFile); err != nil {
		t.Fatalf("Flush after the retry landed: %v", err)
	}
	if s := m.Stats(); s.Flushes != 1 || s.FlushedBytes != 2000 {
		t.Fatalf("after the retry: Flushes=%d FlushedBytes=%d, want 1 and 2000", s.Flushes, s.FlushedBytes)
	}
}

// TestShortPFSWriteIsARefusal: a PFS range write that lands half its
// bytes and reports no error refuses the flush — the range stays dirty
// and is pushed again, whole.
func TestShortPFSWriteIsARefusal(t *testing.T) {
	ctx := context.Background()
	tier0, raw := storage.NewMemFS("ssd", 0), storage.NewMemFS("lustre", 0)
	pfs := storage.NewFaulty(raw)
	m := writeBackStack(t, tier0, pfs, "", time.Millisecond)
	defer m.Shutdown()
	if err := m.Create(ctx, "ckpt", 4096); err != nil {
		t.Fatal(err)
	}
	pfs.ShortNextWrites(1)
	payload := bytes.Repeat([]byte{0x5C}, 1000)
	if _, err := m.WriteAt(ctx, "ckpt", payload, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(ctx, "ckpt"); err != nil {
		t.Fatal(err)
	}
	if got := errorsAt(m, "flush"); got != 1 {
		t.Fatalf(`errors{stage="flush"} = %v, want 1: the short write is a refusal`, got)
	}
	if s := m.Stats(); s.Flushes != 1 || s.FlushedBytes != 1000 {
		t.Fatalf("Flushes=%d FlushedBytes=%d, want 1 and 1000", s.Flushes, s.FlushedBytes)
	}
	got, _ := raw.ReadFile(ctx, "ckpt")
	if !bytes.Equal(got[100:1100], payload) {
		t.Fatal("the PFS holds half the range after Flush returned")
	}
}

// TestFlushSurfacesARefusingPFS: once the PFS has refused a file's
// flush flushRefusals times in a row, Flush — by name or of everything —
// and Close stop waiting and return its error. The bytes stay dirty and
// journaled: a reopened stack replays every one.
func TestFlushSurfacesARefusingPFS(t *testing.T) {
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "write.journal")
	raw := storage.NewMemFS("lustre", 0)
	pfs := newGatedBackend(raw)
	pfs.breakPFS()
	m := writeBackStack(t, storage.NewMemFS("ssd", 0), pfs, jpath, 10*time.Millisecond)
	defer m.Shutdown()
	payload := bytes.Repeat([]byte{0x77}, 3000)
	if err := m.Create(ctx, "ckpt", 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(ctx, "ckpt", payload, 500); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ckpt", ""} {
		fctx, cancel := context.WithTimeout(ctx, time.Second)
		err := m.Flush(fctx, name)
		cancel()
		if !errors.Is(err, errGated) {
			t.Fatalf("Flush(%q) = %v, want the PFS's error inside a second", name, err)
		}
	}
	if d := m.DirtyBytes(); d != 3000 {
		t.Fatalf("DirtyBytes = %d after the refused flushes, want 3000", d)
	}
	start := time.Now()
	m.Close()
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Close waited %v on a PFS that refuses every flush", took)
	}
	if _, err := raw.Stat(ctx, "ckpt"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("the PFS saw the file before the reopen: %v", err)
	}

	// A replay the PFS cuts short fails Init and keeps the journal: the
	// next one lands every byte.
	short := storage.NewFaulty(raw)
	short.ShortNextWrites(1)
	mShort, err := New(Config{
		Levels: []storage.Backend{storage.NewMemFS("ssd", 0), short},
		Pool:   pool.NewGoPool(1),
		Write:  WriteConfig{Enabled: true, Durability: backAll, JournalPath: jpath},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mShort.Init(ctx); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Init over a PFS that cut the replay short: %v", err)
	}
	mShort.Close()

	m2 := writeBackStack(t, storage.NewMemFS("ssd", 0), raw, jpath, 0)
	defer m2.Close()
	got, err := raw.ReadFile(ctx, "ckpt")
	if err != nil || !bytes.Equal(got[500:3500], payload) {
		t.Fatalf("the reopened stack did not replay every acked byte: %v", err)
	}
	if s := m2.Stats(); s.RecoveredFiles != 1 {
		t.Fatalf("RecoveredFiles = %d, want 1", s.RecoveredFiles)
	}
}

// TestFlushSuccessClearsRefusals: a flush that lands forgets the
// refusals before it.
func TestFlushSuccessClearsRefusals(t *testing.T) {
	ctx := context.Background()
	pfs := storage.NewFaulty(storage.NewMemFS("lustre", 0))
	m := writeBackStack(t, storage.NewMemFS("ssd", 0), pfs, "", time.Millisecond)
	defer m.Shutdown()
	pfs.Break()
	if err := m.Create(ctx, "ckpt", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{1}, 64), 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(ctx, "ckpt"); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Flush against a broken PFS = %v", err)
	}
	pfs.Fix()
	eventually(t, "the flusher's own retry lands", func() bool { return m.DirtyBytes() == 0 })
	if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{2}, 8), 8); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(ctx, "ckpt"); err != nil {
		t.Fatalf("Flush after the PFS came back: %v", err)
	}
	if f := m.writes.file("ckpt"); f.refused != 0 || f.err != nil {
		t.Fatalf("a landed flush left refused=%d err=%v", f.refused, f.err)
	}
}

// TestFlushOpShapes pins which PFS ops a claim lands with: a claim that
// is the whole of a file the PFS lacks is one WriteFile; anything else
// is one Allocate the first time, then one WriteAt per dirty range —
// and a range longer than a pooled buffer goes in pieces.
func TestFlushOpShapes(t *testing.T) {
	ctx := context.Background()
	pfs := &opLog{Backend: storage.NewMemFS("lustre", 0)}
	m := writeBackStack(t, storage.NewMemFS("ssd", 0), pfs, "", 0)
	defer m.Close()
	write := func(name string, off, n int64) {
		t.Helper()
		if _, err := m.WriteAt(ctx, name, bytes.Repeat([]byte{byte(off>>8 + 1)}, int(n)), off); err != nil {
			t.Fatal(err)
		}
		if err := m.Flush(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(what string, want ...string) {
		t.Helper()
		if got := pfs.take(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: PFS ops %v, want %v", what, got, want)
		}
	}
	for _, name := range []string{"whole", "parts", "big"} {
		size := int64(4096)
		if name == "big" {
			size = 6 << 20
		}
		if err := m.Create(ctx, name, size); err != nil {
			t.Fatal(err)
		}
	}
	write("whole", 0, 4096)
	expect("whole-file claim, file not on the PFS", "WriteFile")
	write("whole", 0, 4096)
	expect("whole-file claim, file on the PFS", "WriteAt[0,4096)")
	write("parts", 1024, 1024)
	expect("first range of a file", "Allocate", "WriteAt[1024,2048)")
	write("parts", 3072, 512)
	expect("a later range", "WriteAt[3072,3584)")
	write("big", 1<<20, 4<<20+4096)
	expect("a range above the pooled size", "Allocate", "WriteAt[1048576,5242880)", "WriteAt[5242880,5246976)")
}

// TestWritePathNeedsRangeWritersAtBothEnds: write-back files are
// flushed in ranges and write-through ones written in them, so New
// refuses a write-enabled stack whose tier 0 or source cannot take
// range writes — there is no whole-file flush to fall back to.
func TestWritePathNeedsRangeWritersAtBothEnds(t *testing.T) {
	bare := struct{ storage.Backend }{storage.NewMemFS("bare", 0)} // hides Allocate/WriteAt
	full := storage.NewMemFS("full", 0)
	for _, levels := range [][]storage.Backend{{full, bare}, {bare, full}} {
		_, err := New(Config{
			Levels: levels,
			Pool:   pool.NewGoPool(1),
			Write:  WriteConfig{Enabled: true, Durability: backAll},
		})
		if err == nil || !strings.Contains(err.Error(), "storage.RangeWriter") {
			t.Fatalf("New over %s/%s: %v", levels[0].Name(), levels[1].Name(), err)
		}
	}
}

// TestRecoveryCountsOnlyWhatItReplayed: a journal whose every data
// record a flush record covers, over a PFS that holds the file, leaves
// recovery nothing to do — and RecoveredFiles says so.
func TestRecoveryCountsOnlyWhatItReplayed(t *testing.T) {
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "write.journal")
	jn, err := journal.Open(jpath, journal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{9}, 64)
	var seq uint64
	for _, rec := range []journal.Record{
		{Kind: recAlloc, Name: "done", Off: 64},
		{Kind: recData, Name: "done", Off: 0, Data: payload},
	} {
		if seq, err = jn.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := jn.Append(journal.Record{Kind: recFlush, Name: "done", Off: seq}); err != nil {
		t.Fatal(err)
	}
	if _, err := jn.Append(journal.Record{Kind: recAlloc, Name: "lost", Off: 32}); err != nil {
		t.Fatal(err)
	}
	jn.Close()
	raw := storage.NewMemFS("lustre", 0)
	if err := raw.WriteFile(ctx, "done", payload); err != nil {
		t.Fatal(err)
	}
	pfs := storage.NewCounting(raw)
	m := writeBackStack(t, storage.NewMemFS("ssd", 0), pfs, jpath, 0)
	defer m.Close()
	// "lost" was created and never flushed: the PFS copy had to be made.
	if s := m.Stats(); s.RecoveredFiles != 1 {
		t.Fatalf("RecoveredFiles = %d, want 1 (the allocation; the flushed file needed nothing)", s.RecoveredFiles)
	}
	if _, err := raw.Stat(ctx, "lost"); err != nil {
		t.Fatalf("the unflushed file was not allocated on the PFS: %v", err)
	}
	if c := pfs.Counts(); c.BytesWritten != 0 {
		t.Fatalf("recovery wrote %d bytes for records a flush had covered", c.BytesWritten)
	}
}

// TestFlushPlanProperty: writers race the flusher, over a MemFS tier 0
// (the flusher copies) and an OSFS one (it pushes the mapping the
// writers' bytes show through). Whatever the interleaving, after Flush
// the PFS holds what tier 0 holds; and when no two writes overlap,
// every acked byte crossed to the PFS exactly once.
func TestFlushPlanProperty(t *testing.T) {
	for _, tier := range flushTiers {
		t.Run(tier.name, func(t *testing.T) { flushPlanProperty(t, tier.make) })
	}
}

func flushPlanProperty(t *testing.T, newTier0 func(*testing.T) storage.Backend) {
	const (
		files    = 3
		fileSize = 32 << 10
		slot     = 1 << 10
		writers  = 4
	)
	ctx := context.Background()
	for _, disjoint := range []bool{false, true} {
		for seed := int64(1); seed <= 8; seed++ {
			tier0 := newTier0(t)
			pfs := storage.NewCounting(storage.NewMemFS("lustre", 0))
			m := writeBackStack(t, tier0, pfs, "", 0)
			for i := 0; i < files; i++ {
				if err := m.Create(ctx, fmt.Sprintf("ckpt/%d", i), fileSize); err != nil {
					t.Fatal(err)
				}
			}
			// Disjoint: the slots of every file, dealt out to the writers in
			// a shuffled order, most but not all of them.
			slots := rand.New(rand.NewSource(seed)).Perm(files * fileSize / slot)
			slots = slots[:len(slots)*7/8]
			var acked int64
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*100 + int64(w)))
					var mine int64
					for i := 0; i < len(slots)/writers; i++ {
						s := slots[w*(len(slots)/writers)+i]
						name, off, n := fmt.Sprintf("ckpt/%d", s%files), int64(s/files)*slot, int64(slot)
						if !disjoint {
							off = rng.Int63n(fileSize - 1)
							n = 1 + rng.Int63n(min(fileSize-off, 6*slot))
						}
						p := make([]byte, n)
						rng.Read(p)
						got, err := m.WriteAt(ctx, name, p, off)
						if err != nil || int64(got) != n {
							t.Errorf("WriteAt(%s, %d, %d) = %d, %v", name, off, n, got, err)
							return
						}
						mine += n
					}
					mu.Lock()
					acked += mine
					mu.Unlock()
				}(w)
			}
			wg.Wait()
			if err := m.Flush(ctx, ""); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < files; i++ {
				name := fmt.Sprintf("ckpt/%d", i)
				want, err := tier0.ReadFile(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := pfs.ReadFile(ctx, name); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("disjoint=%v seed %d: PFS copy of %s differs from tier 0 (%v)", disjoint, seed, name, err)
				}
			}
			c, s := pfs.Counts(), m.Stats()
			if s.FlushedBytes != acked || s.DirtyBytes != 0 {
				t.Fatalf("disjoint=%v seed %d: FlushedBytes=%d Dirty=%d, acked %d", disjoint, seed, s.FlushedBytes, s.DirtyBytes, acked)
			}
			if disjoint && c.BytesWritten != acked {
				t.Fatalf("seed %d: %d bytes crossed to the PFS for %d acked (%.2fx)", seed, c.BytesWritten, acked, float64(c.BytesWritten)/float64(acked))
			}
			if !disjoint && c.BytesWritten > acked {
				t.Fatalf("seed %d: overlapping writes pushed %d bytes for %d acked", seed, c.BytesWritten, acked)
			}
			m.Close()
		}
	}
}

// flushTiers are the two tier 0s the flusher treats differently: MemFS,
// whose view holds the file's read lock, is copied into a pooled buffer;
// OSFS lends windows of its mapping, pushed to the PFS as they are.
var flushTiers = []struct {
	name    string
	make    func(*testing.T) storage.Backend
	lending bool
}{
	{"memfs", func(*testing.T) storage.Backend { return storage.NewMemFS("ssd", 0) }, false},
	{"osfs", func(t *testing.T) storage.Backend { return mappedTier(t) }, true},
}

// mappedTier is an OSFS tier 0 that lends views, or a skip.
func mappedTier(t *testing.T) *storage.OSFS {
	t.Helper()
	o := newOSFSTier(t, 0)
	if _, err := o.ReadView(context.Background(), "probe", 0, 1); errors.Is(err, errors.ErrUnsupported) {
		t.Skip("OSFS lends no views on this platform")
	}
	return o
}

// TestFlushLendsTierZeroWindows: a journaled write-back checkpoint — one
// shard flushed whole, one as a range longer than a pooled buffer —
// lands on the PFS byte for byte; over an OSFS tier 0 it does
// so without a single bufpool Get, every piece pushed out of the tier's
// mapping, and over MemFS by copying. The PFS ops are the same either
// way.
func TestFlushLendsTierZeroWindows(t *testing.T) {
	ctx := context.Background()
	for _, tier := range flushTiers {
		t.Run(tier.name, func(t *testing.T) {
			tier0 := tier.make(t)
			pfs := &opLog{Backend: storage.NewMemFS("lustre", 0)}
			m := writeBackStack(t, tier0, pfs, filepath.Join(t.TempDir(), "write.journal"), 0)
			defer m.Close()
			shards := []struct {
				name      string
				size      int64
				off, n    int64
				wantedOps []string
			}{
				{"ckpt/whole", 64 << 10, 0, 64 << 10, []string{"WriteFile"}},
				{"ckpt/ranges", 6 << 20, 1 << 20, 4<<20 + 4096, []string{"Allocate", "WriteAt[1048576,5242880)", "WriteAt[5242880,5246976)"}},
			}
			before := bufpool.Snapshot()
			for i, sh := range shards {
				if err := m.Create(ctx, sh.name, sh.size); err != nil {
					t.Fatal(err)
				}
				payload := bytes.Repeat([]byte{byte(0xB0 + i)}, int(sh.n))
				if _, err := m.WriteAt(ctx, sh.name, payload, sh.off); err != nil {
					t.Fatal(err)
				}
				if err := m.Flush(ctx, sh.name); err != nil {
					t.Fatal(err)
				}
				if got := pfs.take(); fmt.Sprint(got) != fmt.Sprint(sh.wantedOps) {
					t.Errorf("%s: PFS ops %v, want %v", sh.name, got, sh.wantedOps)
				}
			}
			gets := bufpool.Snapshot().Gets - before.Gets
			if tier.lending && gets != 0 {
				t.Errorf("the flush drew %d pooled buffers out of a tier that lends its mapping, want 0", gets)
			}
			if !tier.lending && gets == 0 {
				t.Error("the flush drew no pooled buffer out of a tier whose views it must copy")
			}
			for _, sh := range shards {
				want, err := tier0.ReadFile(ctx, sh.name)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := pfs.ReadFile(ctx, sh.name); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: the PFS copy differs from tier 0 (%v)", sh.name, err)
				}
			}
		})
	}
}

// TestFlushInFlightBlocksNoWriter: while a flush of a file sits in the
// PFS call, a writer of the same file still lands its bytes and acks —
// over MemFS because the flusher copied out from under the file's lock
// before the call, over OSFS because a window of the mapping holds none.
// The bytes it landed are flushed after.
func TestFlushInFlightBlocksNoWriter(t *testing.T) {
	ctx := context.Background()
	for _, tier := range flushTiers {
		t.Run(tier.name, func(t *testing.T) {
			tier0, raw := tier.make(t), storage.NewMemFS("lustre", 0)
			pfs := newGatedBackend(raw)
			m := writeBackStack(t, tier0, pfs, "", 0)
			defer m.Close()
			if err := m.Create(ctx, "ckpt", 64<<10); err != nil {
				t.Fatal(err)
			}
			if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{1}, 64<<10), 0); err != nil {
				t.Fatal(err)
			}
			<-pfs.blocked // the flush is in the PFS call
			acked := make(chan error, 1)
			go func() {
				_, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{2}, 4096), 8192)
				acked <- err
			}()
			select {
			case err := <-acked:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				pfs.release() // or Close waits on the parked flush for ever
				t.Fatal("a writer waited on the flush in flight")
			}
			pfs.release()
			if err := m.Flush(ctx, "ckpt"); err != nil {
				t.Fatal(err)
			}
			want, _ := tier0.ReadFile(ctx, "ckpt")
			if got, err := raw.ReadFile(ctx, "ckpt"); err != nil || !bytes.Equal(got, want) || want[8192] != 2 {
				t.Fatalf("the PFS does not hold the write that raced the flush (%v)", err)
			}
		})
	}
}

// TestFlushFaultIsARefusal: a tier-0 checkpoint truncated from outside
// while its flush sits in the PFS call leaves the flusher's window over
// pages the file no longer has. The PFS's copy out of it faults: that is
// a refused flush wrapping storage.ErrFault — again on every retry, the
// mapping outliving the truncate — not a SIGBUS. After flushRefusals of
// them Flush returns the error; the bytes stay dirty, the process lives.
func TestFlushFaultIsARefusal(t *testing.T) {
	ctx := context.Background()
	tier0 := mappedTier(t)
	pfs := newGatedBackend(storage.NewMemFS("lustre", 0))
	m := writeBackStack(t, tier0, pfs, "", time.Millisecond)
	defer m.Shutdown()
	const size = 64 << 10
	if err := m.Create(ctx, "ckpt", size); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{3}, size), 0); err != nil {
		t.Fatal(err)
	}
	<-pfs.blocked // the first flush holds its window, mapped at the full size
	if err := os.Truncate(filepath.Join(tier0.Root(), "ckpt"), 4096); err != nil {
		t.Fatal(err)
	}
	pfs.release()
	fctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := m.Flush(fctx, "ckpt"); !errors.Is(err, storage.ErrFault) {
		t.Fatalf("Flush of a checkpoint truncated under its flush = %v, want the ErrFault refusal", err)
	}
	if d := m.DirtyBytes(); d != size {
		t.Fatalf("DirtyBytes = %d after the refusals, want %d", d, size)
	}
	if got := errorsAt(m, "flush"); got < flushRefusals {
		t.Fatalf(`errors{stage="flush"} = %v, want at least %d`, got, flushRefusals)
	}
}
