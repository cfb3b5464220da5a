package storage_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"monarch/internal/storage"
	"monarch/internal/storage/storagetest"
)

// TestRangeWriterConformance runs the Allocate/WriteAt contract against
// every Backend that implements RangeWriter, the same way
// TestBackendConformance covers the base interface. Chunked placement
// depends on these semantics: reserve-then-fill quota accounting,
// in-bounds enforcement, and readers seeing written ranges mid-copy.
func TestRangeWriterConformance(t *testing.T) {
	for name, mk := range backendFactories(t) {
		t.Run(name, func(t *testing.T) {
			storagetest.RunRangeWriterConformance(t, mk)
		})
	}
}

// TestWriteConformance runs the write-lifecycle contract (the shapes
// Monarch.Create/WriteAt/Flush/Remove and journal recovery lean on)
// against every in-tree backend, including the instrumentation
// wrappers — the write path reaches the PFS through Counting in every
// experiment, so sentinel preservation through wrappers is load-bearing.
func TestWriteConformance(t *testing.T) {
	factories := backendFactories(t)
	factories["counting-memfs"] = func(capacity int64) storage.Backend {
		return storage.NewCounting(storage.NewMemFS("mem", capacity))
	}
	factories["faulty-memfs"] = func(capacity int64) storage.Backend {
		return storage.NewFaulty(storage.NewMemFS("mem", capacity))
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			storagetest.RunWriteConformance(t, mk)
		})
	}
}

// noRange hides the optional interfaces of a Backend so wrapper
// fallback paths can be exercised.
type noRange struct{ storage.Backend }

// TestWrapperRangeWriterPassthrough pins down the instrumentation
// wrappers' RangeWriter behaviour: forwarding when the inner backend
// supports ranges, errors.ErrUnsupported when it does not, fault
// injection on chunk writes, and byte accounting.
func TestWrapperRangeWriterPassthrough(t *testing.T) {
	ctx := context.Background()

	t.Run("CountingForwardsAndCounts", func(t *testing.T) {
		inner := storage.NewMemFS("mem", 0)
		c := storage.NewCounting(inner)
		if err := c.Allocate(ctx, "f", 8); err != nil {
			t.Fatal(err)
		}
		if n, err := c.WriteAt(ctx, "f", []byte("abcd"), 2); err != nil || n != 4 {
			t.Fatalf("writeat: n=%d err=%v", n, err)
		}
		counts := c.Counts()
		if counts.BytesWritten != 4 {
			t.Fatalf("bytes written = %d, want 4 (allocate moves no bytes)", counts.BytesWritten)
		}
		if counts.Ops[storage.OpWrite] != 2 {
			t.Fatalf("write ops = %d, want 2 (allocate + writeat)", counts.Ops[storage.OpWrite])
		}
	})

	t.Run("CountingUnsupportedInner", func(t *testing.T) {
		c := storage.NewCounting(noRange{storage.NewMemFS("mem", 0)})
		if err := c.Allocate(ctx, "f", 8); !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("allocate over bare backend: %v, want ErrUnsupported", err)
		}
		if _, err := c.WriteAt(ctx, "f", []byte("x"), 0); !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("writeat over bare backend: %v, want ErrUnsupported", err)
		}
	})

	t.Run("FaultyInjectsOnChunkWrites", func(t *testing.T) {
		inner := storage.NewMemFS("mem", 0)
		f := storage.NewFaulty(inner)
		if err := f.Allocate(ctx, "f", 8); err != nil {
			t.Fatal(err)
		}
		f.FailNextWrites(1)
		if _, err := f.WriteAt(ctx, "f", []byte("ab"), 0); err == nil {
			t.Fatal("faulted chunk write succeeded")
		}
		// The window has healed: the retry goes through.
		if n, err := f.WriteAt(ctx, "f", []byte("ab"), 0); err != nil || n != 2 {
			t.Fatalf("post-heal writeat: n=%d err=%v", n, err)
		}
	})

	t.Run("FaultyUnsupportedInner", func(t *testing.T) {
		f := storage.NewFaulty(noRange{storage.NewMemFS("mem", 0)})
		if err := f.Allocate(ctx, "f", 8); !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("allocate over bare backend: %v, want ErrUnsupported", err)
		}
		if _, err := f.WriteAt(ctx, "f", []byte("x"), 0); !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("writeat over bare backend: %v, want ErrUnsupported", err)
		}
	})

	t.Run("ReadOnlyBackendRejects", func(t *testing.T) {
		m := storage.NewMemFS("mem", 0)
		if err := m.Allocate(ctx, "f", 4); err != nil {
			t.Fatal(err)
		}
		m.SetReadOnly(true)
		if err := m.Allocate(ctx, "g", 4); !errors.Is(err, storage.ErrReadOnly) {
			t.Fatalf("allocate on read-only: %v", err)
		}
		if _, err := m.WriteAt(ctx, "f", []byte("x"), 0); !errors.Is(err, storage.ErrReadOnly) {
			t.Fatalf("writeat on read-only: %v", err)
		}
	})

	t.Run("InvalidName", func(t *testing.T) {
		m := storage.NewMemFS("mem", 0)
		if err := m.Allocate(ctx, "../escape", 4); err == nil ||
			!strings.Contains(err.Error(), "name") {
			t.Fatalf("allocate with traversal name: %v", err)
		}
	})
}

// newOSFS is a fresh OSFS over a temp directory, its descriptor table
// emptied when the test ends.
func newOSFS(t *testing.T, capacity int64) *storage.OSFS {
	t.Helper()
	o, err := storage.NewOSFS("os", t.TempDir(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.CloseIdle)
	return o
}

// TestOSFSWriteAtFollowsReplace: a WriteAt after the name was allocated
// again (a replace) lands in the new inode, and a view held across the
// replace keeps the old inode's bytes. Each round's inode is filled by
// two writers beside a reader, so the race detector sees the writes
// share the name's table entry.
func TestOSFSWriteAtFollowsReplace(t *testing.T) {
	ctx := context.Background()
	o := newOSFS(t, 0)
	const size, rounds = 8 << 10, 4
	var held []storage.View
	defer func() {
		for _, v := range held {
			v.Release()
		}
	}()
	for r := 0; r < rounds; r++ {
		want := bytes.Repeat([]byte{byte('a' + r)}, size)
		if err := o.Allocate(ctx, "f", size); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errc := make(chan error, 3)
		for off := 0; off < size; off += size / 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := o.WriteAt(ctx, "f", want[off:off+size/2], int64(off))
				errc <- err
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := o.ReadAt(ctx, "f", make([]byte, 512), 0)
			errc <- err
		}()
		wg.Wait()
		close(errc)
		for err := range errc {
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
		}
		if got, err := o.ReadFile(ctx, "f"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round %d: the name does not hold the round's writes (err %v)", r, err)
		}
		if got := o.Used(); got != size {
			t.Fatalf("round %d: used = %d, want %d", r, got, size)
		}
		v, err := o.ReadView(ctx, "f", 0, size)
		if errors.Is(err, errors.ErrUnsupported) {
			continue // no views on this platform: the bytes above are the row
		}
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, v)
		for i, v := range held {
			if !bytes.Equal(v.Data, bytes.Repeat([]byte{byte('a' + i)}, size)) {
				t.Fatalf("after round %d the view held since round %d changed: a write landed in a replaced inode", r, i)
			}
		}
	}
}

// TestOSFSWriteAtAcrossTableEviction: more Allocated files than OSFS's
// descriptor table holds, written round-robin from two goroutines with
// reads between the writes, so entries are evicted and reopened — for a
// read first, then for a write, once the table is emptied — and every
// byte lands in its own file.
func TestOSFSWriteAtAcrossTableEviction(t *testing.T) {
	ctx := context.Background()
	o := newOSFS(t, 0)
	const files, chunk, chunks = 80, 1 << 10, 4
	names := make([]string, files)
	want := make([][]byte, files)
	for i := range names {
		names[i] = fmt.Sprintf("ckpt/%03d", i)
		want[i] = make([]byte, chunk*chunks)
		for j := range want[i] {
			want[i][j] = byte(i*7 + j*13)
		}
		if err := o.Allocate(ctx, names[i], chunk*chunks); err != nil {
			t.Fatal(err)
		}
	}
	p := make([][]byte, 2)
	for c := 0; c < chunks; c++ {
		if c == 2 {
			o.CloseIdle() // the next access of every file opens it again
		}
		var wg sync.WaitGroup
		for g := range p {
			p[g] = make([]byte, chunk)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < files; i += len(p) {
					if (c+i)%3 == 0 {
						if _, err := o.ReadAt(ctx, names[i], p[g], 0); err != nil {
							t.Errorf("read %s: %v", names[i], err)
							return
						}
					}
					off := c * chunk
					if n, err := o.WriteAt(ctx, names[i], want[i][off:off+chunk], int64(off)); err != nil || n != chunk {
						t.Errorf("write %s at %d: n=%d err=%v", names[i], off, n, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	for i, name := range names {
		if got, err := o.ReadFile(ctx, name); err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("%s does not hold its writes (err %v)", name, err)
		}
	}
}

// TestOSFSWriteAtPermissionDenied: a WriteAt on a file the process may
// not write fails with an error wrapping fs.ErrPermission — whether the
// table holds no entry for it or a read-only one — and its reads are
// still served. The chmod comes between two table lifetimes: a
// descriptor opened for writing before it may keep writing, as any open
// file may.
func TestOSFSWriteAtPermissionDenied(t *testing.T) {
	ctx := context.Background()
	o := newOSFS(t, 0)
	if err := o.Allocate(ctx, "f", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(ctx, "f", []byte("abcd"), 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(o.Root(), "f")
	if err := os.Chmod(path, 0o444); err != nil {
		t.Fatal(err)
	}
	if f, err := os.OpenFile(path, os.O_WRONLY, 0); err == nil {
		f.Close()
		t.Skip("permission bits are not enforced for this process")
	}
	p := make([]byte, 4)
	for _, readFirst := range []bool{false, true} {
		o.CloseIdle()
		if readFirst { // the table holds a read-only entry for f
			if _, err := o.ReadAt(ctx, "f", p, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := o.WriteAt(ctx, "f", []byte("x"), 0); !errors.Is(err, fs.ErrPermission) {
			t.Fatalf("read first %v: a write to a read-only file: %v, want fs.ErrPermission", readFirst, err)
		}
		if n, err := o.ReadAt(ctx, "f", p, 0); err != nil || n != 4 || string(p) != "abcd" {
			t.Fatalf("read first %v: read after the refused write: n=%d err=%v p=%q", readFirst, n, err, p)
		}
	}
}

// TestOSFSWriteAtAfterRemove: once a file the table held is removed, a
// WriteAt of it is ErrNotExist, reported as a write.
func TestOSFSWriteAtAfterRemove(t *testing.T) {
	ctx := context.Background()
	o := newOSFS(t, 0)
	if err := o.Allocate(ctx, "f", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(ctx, "f", []byte("ab"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := o.ReadAt(ctx, "f", make([]byte, 2), 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Remove(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	_, err := o.WriteAt(ctx, "f", []byte("cd"), 2)
	if !errors.Is(err, storage.ErrNotExist) || !strings.Contains(err.Error(), "write") {
		t.Fatalf("a write after Remove: %v, want a write's ErrNotExist", err)
	}
	if err := o.Remove(ctx, "f"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("a second Remove: %v, want ErrNotExist", err)
	}
}

// TestOSFSRemoveFreesItsQuota: Remove frees exactly the removed inode's
// size — for a file the table holds after an Allocate, a WriteFile, a
// replace by a smaller Allocate, and a read of a file OSFS found at
// construction — and nothing for a name that is not there.
func TestOSFSRemoveFreesItsQuota(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "found"), make([]byte, 7), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := storage.NewOSFS("os", dir, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseIdle()
	if err := o.Allocate(ctx, "a", 30); err != nil {
		t.Fatal(err)
	}
	if _, err := o.WriteAt(ctx, "a", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := o.WriteFile(ctx, "b", make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int64{40, 25} {
		if err := o.Allocate(ctx, "c", size); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"a", "b", "c", "found"} {
		if _, err := o.ReadAt(ctx, name, make([]byte, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	used := int64(7 + 30 + 20 + 25)
	if got := o.Used(); got != used {
		t.Fatalf("used = %d, want %d", got, used)
	}
	for _, rm := range []struct {
		name string
		size int64
	}{{"a", 30}, {"c", 25}, {"found", 7}, {"b", 20}} {
		if err := o.Remove(ctx, rm.name); err != nil {
			t.Fatal(err)
		}
		used -= rm.size
		if got := o.Used(); got != used {
			t.Fatalf("used = %d after removing %s, want %d", got, rm.name, used)
		}
	}
	if err := o.Remove(ctx, "a"); !errors.Is(err, storage.ErrNotExist) || o.Used() != 0 {
		t.Fatalf("removing a missing name: %v, used %d", err, o.Used())
	}
}

// TestOSFSWriteAtAllocatesNothing: a warm 256 KiB WriteAt into an
// allocated file is one pwrite through the descriptor the Allocate
// created, with no allocation.
func TestOSFSWriteAtAllocatesNothing(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
	ctx := context.Background()
	o := newOSFS(t, 0)
	const size, block = 1 << 20, 256 << 10
	if err := o.Allocate(ctx, "ckpt", size); err != nil {
		t.Fatal(err)
	}
	p := bytes.Repeat([]byte{9}, block)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := o.WriteAt(ctx, "ckpt", p, int64(i%(size/block))*block); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("a warm WriteAt allocates %.1f times, want 0", allocs)
	}
}
