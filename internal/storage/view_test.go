package storage_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"monarch/internal/bufpool"
	"monarch/internal/storage"
	"monarch/internal/storage/storagetest"
)

// TestViewReaderConformance runs the view contract — lifetime cases
// included — against every backend that lends views, bare and behind
// Counting (the wrapper every experiment reads its tiers through).
func TestViewReaderConformance(t *testing.T) {
	factories := make(map[string]storagetest.Factory)
	for name, mk := range backendFactories(t) {
		factories[name] = mk
		factories["counting-"+name] = func(capacity int64) storage.Backend {
			return storage.NewCounting(mk(capacity))
		}
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			if _, err := mk(0).(storage.ViewReader).ReadView(context.Background(), "probe", 0, 1); errors.Is(err, errors.ErrUnsupported) {
				t.Skipf("%s lends no views on this platform", name)
			}
			storagetest.RunViewReaderConformance(t, mk)
		})
	}
}

// TestMemFSViewBlocksWriteAt pins the MemFS view contract: a held view
// keeps chunked placement's WriteAt out of the file, so borrowers never
// observe bytes mutating under them.
func TestMemFSViewBlocksWriteAt(t *testing.T) {
	ctx := context.Background()
	m := storage.NewMemFS("mem", 0)
	if err := m.Allocate(ctx, "f", 64); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadView(ctx, "f", 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := m.WriteAt(ctx, "f", []byte{1, 2, 3}, 0); err != nil {
			t.Errorf("WriteAt: %v", err)
		}
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("WriteAt completed while a view was held")
	case <-time.After(20 * time.Millisecond):
	}
	if v.Data[0] != 0 {
		t.Fatal("view mutated while held")
	}
	v.Release()
	wg.Wait()
	select {
	case <-wrote:
	default:
		t.Fatal("WriteAt still blocked after Release")
	}
}

// TestOSFSViewsAliasOneMapping: OSFS views are windows of one shared
// mapping per file — no scratch drawn from bufpool, no copy per view —
// and the mapping outlives the table: CloseIdle unmaps what no view
// holds and leaves a held view's bytes alone.
func TestOSFSViewsAliasOneMapping(t *testing.T) {
	ctx := context.Background()
	o, err := storage.NewOSFS("os", t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseIdle()
	content := bytes.Repeat([]byte("mapped! "), 1024)
	if err := o.WriteFile(ctx, "f", content); err != nil {
		t.Fatal(err)
	}
	first, err := o.ReadView(ctx, "f", 0, 8192)
	if errors.Is(err, errors.ErrUnsupported) {
		t.Skip("OSFS lends no views on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	before := bufpool.Snapshot()
	for i := 0; i < 10; i++ {
		v, err := o.ReadView(ctx, "f", 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		if &v.Data[0] != &first.Data[16] {
			t.Fatalf("view %d does not alias the first view's mapping", i)
		}
		v.Release()
	}
	if gets := bufpool.Snapshot().Gets - before.Gets; gets != 0 {
		t.Fatalf("ten views drew %d bufpool buffers, want 0", gets)
	}

	o.CloseIdle()
	if !bytes.Equal(first.Data, content) {
		t.Fatal("held view lost its bytes to CloseIdle")
	}
	again, err := o.ReadView(ctx, "f", 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Data[0] == &first.Data[0] {
		t.Fatal("CloseIdle kept the mapping in the table")
	}
	again.Release()
	first.Release()
}

// TestViewCopySurvivesAFault: View.Copy out of a mapping whose file was
// truncated from outside — a SIGBUS on the pages past the new end — is
// an ErrFault error, and the goroutine carries on: the next copy of a
// healthy view works and no fault handling is left switched on.
func TestViewCopySurvivesAFault(t *testing.T) {
	ctx := context.Background()
	o, err := storage.NewOSFS("os", t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseIdle()
	content := bytes.Repeat([]byte("mapped! "), 8192) // 64 KiB
	if err := o.WriteFile(ctx, "f", content); err != nil {
		t.Fatal(err)
	}
	v, err := o.ReadView(ctx, "f", 0, int64(len(content)))
	if errors.Is(err, errors.ErrUnsupported) {
		t.Skip("OSFS lends no views on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	p := make([]byte, len(content))
	if n, err := v.Copy(p); err != nil || n != len(content) || !bytes.Equal(p, content) {
		t.Fatalf("healthy copy: n=%d err=%v", n, err)
	}
	if err := os.Truncate(filepath.Join(o.Root(), "f"), 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Copy(p); !errors.Is(err, storage.ErrFault) {
		t.Fatalf("copy past the truncated end: %v, want ErrFault", err)
	}
	if n, err := (storage.View{Data: content}).Copy(p); err != nil || n != len(content) {
		t.Fatalf("copy after the fault: n=%d err=%v", n, err)
	}
	if debug.SetPanicOnFault(false) {
		t.Fatal("Copy left SetPanicOnFault on")
	}
}

// TestViewLendSurvivesAFault: a view whose file was truncated from
// outside, lent to another backend's write, refuses that write with an
// ErrFault error whichever way the write meets the fault — MemFS's copy
// in user space (a SIGBUS, recovered) or OSFS's write(2) (EFAULT from the
// kernel) — and the goroutine carries on: the MemFS write unwound its
// lock, and no fault handling is left switched on.
func TestViewLendSurvivesAFault(t *testing.T) {
	ctx := context.Background()
	o, err := storage.NewOSFS("os", t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseIdle()
	content := bytes.Repeat([]byte("mapped! "), 8192) // 64 KiB
	if err := o.WriteFile(ctx, "f", content); err != nil {
		t.Fatal(err)
	}
	v, err := o.ReadView(ctx, "f", 0, int64(len(content)))
	if errors.Is(err, errors.ErrUnsupported) {
		t.Skip("OSFS lends no views on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	mem := storage.NewMemFS("mem", 0)
	dst, err := storage.NewOSFS("dst", t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Allocate(ctx, "g", int64(len(content))); err != nil {
		t.Fatal(err)
	}
	writes := map[string]func([]byte) error{
		"memfs WriteFile": func(p []byte) error { return mem.WriteFile(ctx, "g", p) },
		"osfs WriteAt": func(p []byte) error {
			_, err := dst.WriteAt(ctx, "g", p, 0)
			return err
		},
	}
	for name, write := range writes {
		if err := v.Lend(write); err != nil {
			t.Fatalf("%s of a healthy view: %v", name, err)
		}
	}
	if err := os.Truncate(filepath.Join(o.Root(), "f"), 4096); err != nil {
		t.Fatal(err)
	}
	for name, write := range writes {
		if err := v.Lend(write); !errors.Is(err, storage.ErrFault) {
			t.Fatalf("%s past the truncated end: %v, want ErrFault", name, err)
		}
	}
	if err := mem.WriteFile(ctx, "g", content[:8]); err != nil {
		t.Fatalf("MemFS after the fault: %v", err)
	}
	if debug.SetPanicOnFault(false) {
		t.Fatal("Lend left SetPanicOnFault on")
	}
}

// TestHoldableView: OSFS lends the range as a window of its mapping —
// the FileWindow view itself, no bufpool buffer; MemFS's view, held
// under the file's read lock, is not held at all: the range comes back
// copied into a pooled buffer, and the file's writers go on while the
// caller holds it. A file that ends first is io.ErrUnexpectedEOF, a
// missing one ErrNotExist.
func TestHoldableView(t *testing.T) {
	ctx := context.Background()
	content := bytes.Repeat([]byte("holdable"), 1024)
	o, err := storage.NewOSFS("os", t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseIdle()
	mem := storage.NewMemFS("mem", 0)
	for _, b := range []storage.Backend{o, mem} {
		if err := b.(storage.RangeWriter).Allocate(ctx, "f", int64(len(content))); err != nil {
			t.Fatal(err)
		}
		if _, err := b.(storage.RangeWriter).WriteAt(ctx, "f", content, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.ReadView(ctx, "f", 0, 1); errors.Is(err, errors.ErrUnsupported) {
		t.Skip("OSFS lends no views on this platform")
	}
	for _, tc := range []struct {
		b      storage.Backend
		window bool
	}{{o, true}, {storage.NewCounting(o), true}, {mem, false}} {
		before := bufpool.Snapshot()
		v, err := storage.HoldableView(ctx, tc.b, "f", 64, 4096)
		if err != nil || !bytes.Equal(v.Data, content[64:64+4096]) {
			t.Fatalf("%T: %v", tc.b, err)
		}
		_, window := v.R.(storage.FileWindow)
		gets := bufpool.Snapshot().Gets - before.Gets
		if window != tc.window || (gets == 0) != tc.window {
			t.Fatalf("%T: a window %v with %d bufpool Gets, want a window %v", tc.b, window, gets, tc.window)
		}
		if _, err := tc.b.(storage.RangeWriter).WriteAt(ctx, "f", []byte("!"), 0); err != nil {
			t.Fatalf("%T: a writer while the view is held: %v", tc.b, err)
		}
		v.Release()
		if _, err := storage.HoldableView(ctx, tc.b, "f", int64(len(content))-8, 16); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%T: a range past the end: %v, want io.ErrUnexpectedEOF", tc.b, err)
		}
		if _, err := storage.HoldableView(ctx, tc.b, "nope", 0, 16); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("%T: a missing file: %v, want ErrNotExist", tc.b, err)
		}
	}
}

// TestOSFSRemembersARefusedMapping: a name the kernel will not map — a
// directory: it opens, but has no mmap — is refused with ErrUnsupported,
// and every later view of the entry gets that same error back, without
// asking the kernel again or allocating: core pays the refusal before
// each warm ReadAt on such a tier.
func TestOSFSRemembersARefusedMapping(t *testing.T) {
	ctx := context.Background()
	o, err := storage.NewOSFS("os", t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseIdle()
	if err := os.Mkdir(filepath.Join(o.Root(), "dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, first := o.ReadView(ctx, "dir", 0, 1)
	if !errors.Is(first, errors.ErrUnsupported) {
		t.Skipf("a directory's view: %v, want a refusal", first)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := o.ReadView(ctx, "dir", 0, 1); err != first {
			t.Fatalf("a later view: %v, want the remembered %v", err, first)
		}
	})
	if allocs != 0 {
		t.Errorf("a remembered refusal allocates %.1f times, want 0", allocs)
	}
}

// TestOSFSFDCacheServesRepeatedReads: repeated reads of one file reuse
// a cached descriptor, and Remove invalidates it.
func TestOSFSFDCacheServesRepeatedReads(t *testing.T) {
	ctx := context.Background()
	o, err := storage.NewOSFS("os", t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseIdle()
	if err := o.WriteFile(ctx, "f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 4)
	for i := 0; i < 5; i++ {
		if n, err := o.ReadAt(ctx, "f", p, 2); err != nil || n != 4 || string(p) != "2345" {
			t.Fatalf("read %d: n=%d err=%v p=%q", i, n, err, p)
		}
	}
	if err := o.Remove(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.ReadAt(ctx, "f", p, 0); err == nil {
		t.Fatal("read of removed file succeeded via stale descriptor")
	}
}
