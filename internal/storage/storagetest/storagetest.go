// Package storagetest exports the storage.Backend conformance suite so
// every implementation — in-tree (MemFS, OSFS) and out-of-tree (the
// peernet client, which serves the same interface over a wire) — is
// held to one contract. Tests construct backends through a factory so
// each subtest gets a fresh store at a chosen capacity.
package storagetest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"monarch/internal/storage"
)

// Factory builds a fresh backend with the given capacity (0 =
// unlimited) for one subtest.
type Factory func(capacity int64) storage.Backend

// RunConformance drives the base Backend contract against mk: roundtrip
// fidelity, ReadAt window semantics, sorted listings, sentinel errors,
// quota accounting, name validation, concurrency safety and context
// cancellation.
func RunConformance(t *testing.T, mk Factory) {
	ctx := context.Background()

	t.Run("WriteReadRoundtrip", func(t *testing.T) {
		b := mk(0)
		content := []byte("hello tier zero")
		if err := b.WriteFile(ctx, "a/b/file.rec", content); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadFile(ctx, "a/b/file.rec")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("roundtrip mismatch: %q", got)
		}
	})

	t.Run("ReadAtWindows", func(t *testing.T) {
		b := mk(0)
		content := []byte("0123456789")
		if err := b.WriteFile(ctx, "f", content); err != nil {
			t.Fatal(err)
		}
		p := make([]byte, 4)
		n, err := b.ReadAt(ctx, "f", p, 3)
		if err != nil || n != 4 || string(p) != "3456" {
			t.Fatalf("mid read: n=%d err=%v p=%q", n, err, p)
		}
		n, err = b.ReadAt(ctx, "f", p, 8) // short read at EOF
		if err != nil || n != 2 || string(p[:n]) != "89" {
			t.Fatalf("tail read: n=%d err=%v p=%q", n, err, p[:n])
		}
		n, err = b.ReadAt(ctx, "f", p, 100) // past EOF
		if err != nil || n != 0 {
			t.Fatalf("past-EOF read: n=%d err=%v", n, err)
		}
	})

	t.Run("StatAndList", func(t *testing.T) {
		b := mk(0)
		if err := b.WriteFile(ctx, "z.rec", make([]byte, 7)); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteFile(ctx, "a.rec", make([]byte, 3)); err != nil {
			t.Fatal(err)
		}
		fi, err := b.Stat(ctx, "z.rec")
		if err != nil || fi.Size != 7 || fi.Name != "z.rec" {
			t.Fatalf("stat: %+v err=%v", fi, err)
		}
		infos, err := b.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 2 || infos[0].Name != "a.rec" || infos[1].Name != "z.rec" {
			t.Fatalf("list not sorted or wrong: %+v", infos)
		}
	})

	t.Run("MissingFileErrors", func(t *testing.T) {
		b := mk(0)
		if _, err := b.Stat(ctx, "ghost"); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("stat ghost: %v", err)
		}
		if _, err := b.ReadFile(ctx, "ghost"); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("read ghost: %v", err)
		}
		if _, err := b.ReadAt(ctx, "ghost", make([]byte, 1), 0); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("readat ghost: %v", err)
		}
		if err := b.Remove(ctx, "ghost"); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("remove ghost: %v", err)
		}
	})

	t.Run("QuotaEnforcement", func(t *testing.T) {
		b := mk(10)
		if err := b.WriteFile(ctx, "small", make([]byte, 6)); err != nil {
			t.Fatal(err)
		}
		err := b.WriteFile(ctx, "big", make([]byte, 5))
		if !errors.Is(err, storage.ErrNoSpace) {
			t.Fatalf("expected ErrNoSpace, got %v", err)
		}
		// Overwrite within quota must work: replacing 6 bytes with 9.
		if err := b.WriteFile(ctx, "small", make([]byte, 9)); err != nil {
			t.Fatalf("overwrite within quota: %v", err)
		}
		if b.Used() != 9 {
			t.Fatalf("used = %d, want 9", b.Used())
		}
	})

	t.Run("RemoveFreesQuota", func(t *testing.T) {
		b := mk(10)
		if err := b.WriteFile(ctx, "f", make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
		if err := b.Remove(ctx, "f"); err != nil {
			t.Fatal(err)
		}
		if b.Used() != 0 {
			t.Fatalf("used = %d after remove", b.Used())
		}
		if err := b.WriteFile(ctx, "g", make([]byte, 10)); err != nil {
			t.Fatalf("write after remove: %v", err)
		}
	})

	t.Run("NameValidation", func(t *testing.T) {
		b := mk(0)
		for _, bad := range []string{"", "/abs", "../escape", "a/../../b", ".."} {
			if err := b.WriteFile(ctx, bad, []byte("x")); err == nil {
				t.Errorf("write %q should fail", bad)
			}
			if _, err := b.ReadFile(ctx, bad); err == nil {
				t.Errorf("read %q should fail", bad)
			}
		}
		// Legitimate dotted names must pass.
		for _, good := range []string{"a.b", "dir/.hidden", "dir/..double", "x/y..z"} {
			if err := b.WriteFile(ctx, good, []byte("x")); err != nil {
				t.Errorf("write %q failed: %v", good, err)
			}
		}
	})

	t.Run("ConcurrentReadersAndWriters", func(t *testing.T) {
		b := mk(0)
		if err := b.WriteFile(ctx, "shared", bytes.Repeat([]byte{7}, 1024)); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p := make([]byte, 128)
				for j := 0; j < 50; j++ {
					if _, err := b.ReadAt(ctx, "shared", p, int64(j%8)*128); err != nil {
						t.Error(err)
						return
					}
					name := fmt.Sprintf("w-%d-%d", i, j)
					if err := b.WriteFile(ctx, name, p); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
	})

	t.Run("CanceledContext", func(t *testing.T) {
		b := mk(0)
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		if err := b.WriteFile(cctx, "f", []byte("x")); !errors.Is(err, context.Canceled) {
			t.Fatalf("write with canceled ctx: %v", err)
		}
		if _, err := b.List(cctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("list with canceled ctx: %v", err)
		}
	})
}

// RunRangeWriterConformance drives the Allocate/WriteAt contract against
// every backend mk produces; each must implement storage.RangeWriter.
// Chunked placement depends on these semantics: reserve-then-fill quota
// accounting, in-bounds enforcement, and readers seeing written ranges
// mid-copy.
func RunRangeWriterConformance(t *testing.T, mk Factory) {
	ctx := context.Background()
	asRW := func(t *testing.T, b storage.Backend) storage.RangeWriter {
		t.Helper()
		rw, ok := b.(storage.RangeWriter)
		if !ok {
			t.Fatalf("%s does not implement RangeWriter", b.Name())
		}
		return rw
	}

	t.Run("AllocateReservesQuotaAndZeroFills", func(t *testing.T) {
		b := mk(100)
		rw := asRW(t, b)
		if err := rw.Allocate(ctx, "f", 64); err != nil {
			t.Fatal(err)
		}
		if got := b.Used(); got != 64 {
			t.Fatalf("used = %d after allocate, want 64", got)
		}
		fi, err := b.Stat(ctx, "f")
		if err != nil || fi.Size != 64 {
			t.Fatalf("stat: %+v err=%v, want size 64", fi, err)
		}
		data, err := b.ReadFile(ctx, "f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, make([]byte, 64)) {
			t.Fatalf("allocated file not zero-filled: %v", data)
		}
	})

	t.Run("AllocateOverQuota", func(t *testing.T) {
		b := mk(10)
		rw := asRW(t, b)
		if err := rw.Allocate(ctx, "big", 11); !errors.Is(err, storage.ErrNoSpace) {
			t.Fatalf("over-quota allocate: %v, want ErrNoSpace", err)
		}
		if got := b.Used(); got != 0 {
			t.Fatalf("failed allocate leaked quota: used = %d", got)
		}
	})

	t.Run("AllocateNegativeSize", func(t *testing.T) {
		rw := asRW(t, mk(0))
		if err := rw.Allocate(ctx, "f", -1); err == nil {
			t.Fatal("negative-size allocate succeeded")
		}
	})

	t.Run("AllocateReplacesExisting", func(t *testing.T) {
		b := mk(100)
		rw := asRW(t, b)
		if err := b.WriteFile(ctx, "f", make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
		if err := rw.Allocate(ctx, "f", 16); err != nil {
			t.Fatal(err)
		}
		if got := b.Used(); got != 16 {
			t.Fatalf("used = %d after re-allocate, want 16", got)
		}
	})

	t.Run("WriteAtFillsRanges", func(t *testing.T) {
		b := mk(0)
		rw := asRW(t, b)
		if err := rw.Allocate(ctx, "f", 10); err != nil {
			t.Fatal(err)
		}
		if n, err := rw.WriteAt(ctx, "f", []byte("456"), 4); err != nil || n != 3 {
			t.Fatalf("writeat: n=%d err=%v", n, err)
		}
		// The written range is readable while the rest is still zero —
		// the mid-copy read-through contract.
		p := make([]byte, 3)
		if n, err := b.ReadAt(ctx, "f", p, 4); err != nil || n != 3 || string(p) != "456" {
			t.Fatalf("mid-copy read: n=%d err=%v p=%q", n, err, p)
		}
		if n, err := rw.WriteAt(ctx, "f", []byte("0123"), 0); err != nil || n != 4 {
			t.Fatalf("writeat head: n=%d err=%v", n, err)
		}
		if n, err := rw.WriteAt(ctx, "f", []byte("789"), 7); err != nil || n != 3 {
			t.Fatalf("writeat tail: n=%d err=%v", n, err)
		}
		data, err := b.ReadFile(ctx, "f")
		if err != nil || string(data) != "0123456789" {
			t.Fatalf("assembled file = %q err=%v", data, err)
		}
		if got := b.Used(); got != 10 {
			t.Fatalf("used = %d after fills, want 10 (WriteAt must not re-charge quota)", got)
		}
	})

	t.Run("WriteAtMissingFile", func(t *testing.T) {
		rw := asRW(t, mk(0))
		if _, err := rw.WriteAt(ctx, "ghost", []byte("x"), 0); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("writeat ghost: %v, want ErrNotExist", err)
		}
	})

	t.Run("WriteAtOutOfBounds", func(t *testing.T) {
		rw := asRW(t, mk(0))
		if err := rw.Allocate(ctx, "f", 8); err != nil {
			t.Fatal(err)
		}
		if _, err := rw.WriteAt(ctx, "f", []byte("xx"), 7); err == nil {
			t.Fatal("write past allocated size succeeded")
		}
		if _, err := rw.WriteAt(ctx, "f", []byte("x"), -1); err == nil {
			t.Fatal("negative-offset write succeeded")
		}
	})

	t.Run("ConcurrentChunkFill", func(t *testing.T) {
		b := mk(0)
		rw := asRW(t, b)
		const chunk, nchunks = 128, 16
		want := make([]byte, chunk*nchunks)
		for i := range want {
			want[i] = byte(i * 31)
		}
		if err := rw.Allocate(ctx, "f", int64(len(want))); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errc := make(chan error, nchunks)
		for i := 0; i < nchunks; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				off := int64(i * chunk)
				_, err := rw.WriteAt(ctx, "f", want[off:off+chunk], off)
				errc <- err
			}(i)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			if err != nil {
				t.Fatal(err)
			}
		}
		data, err := b.ReadFile(ctx, "f")
		if err != nil || !bytes.Equal(data, want) {
			t.Fatalf("concurrent fill mismatch (err=%v)", err)
		}
	})

	t.Run("ContextCancelled", func(t *testing.T) {
		rw := asRW(t, mk(0))
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		if err := rw.Allocate(cctx, "f", 4); !errors.Is(err, context.Canceled) {
			t.Fatalf("allocate with cancelled ctx: %v", err)
		}
	})
}

// RunViewReaderConformance drives the zero-copy ViewReader contract
// against mk: agreement with ReadAt over arbitrary windows, short
// reads at EOF, sentinel errors, rejection of negative ranges, release
// safety (a released view's buffer may be recycled, so the suite never
// touches Data after Release) and view lifetime — a held view is a
// snapshot that outlives its file's removal or replacement.
func RunViewReaderConformance(t *testing.T, mk Factory) {
	ctx := context.Background()
	asVR := func(t *testing.T, b storage.Backend) storage.ViewReader {
		t.Helper()
		vr, ok := b.(storage.ViewReader)
		if !ok {
			t.Fatalf("%T does not implement storage.ViewReader", b)
		}
		return vr
	}

	t.Run("AgreesWithReadAt", func(t *testing.T) {
		b := mk(0)
		vr := asVR(t, b)
		content := make([]byte, 1000)
		for i := range content {
			content[i] = byte(i*13 + 7)
		}
		if err := b.WriteFile(ctx, "f", content); err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct{ off, n int64 }{
			{0, 1000}, {0, 10}, {500, 250}, {990, 100}, {1000, 4}, {2000, 4}, {7, 0},
		} {
			v, err := vr.ReadView(ctx, "f", w.off, w.n)
			if err != nil {
				t.Fatalf("ReadView(%d,%d): %v", w.off, w.n, err)
			}
			p := make([]byte, w.n)
			n, err := b.ReadAt(ctx, "f", p, w.off)
			if err != nil {
				t.Fatalf("ReadAt(%d,%d): %v", w.off, w.n, err)
			}
			if int64(len(v.Data)) > w.n {
				t.Fatalf("ReadView(%d,%d): %d bytes, more than asked", w.off, w.n, len(v.Data))
			}
			if len(v.Data) != n || !bytes.Equal(v.Data, p[:n]) {
				t.Fatalf("ReadView(%d,%d) = %d bytes, ReadAt = %d; content equal=%v",
					w.off, w.n, len(v.Data), n, bytes.Equal(v.Data, p[:n]))
			}
			v.Release()
		}
	})

	t.Run("MissingFile", func(t *testing.T) {
		vr := asVR(t, mk(0))
		if _, err := vr.ReadView(ctx, "nope", 0, 4); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("missing file: %v", err)
		}
	})

	t.Run("NegativeRanges", func(t *testing.T) {
		b := mk(0)
		vr := asVR(t, b)
		if err := b.WriteFile(ctx, "f", []byte("abc")); err != nil {
			t.Fatal(err)
		}
		if _, err := vr.ReadView(ctx, "f", -1, 4); err == nil {
			t.Fatal("negative offset accepted")
		}
		if _, err := vr.ReadView(ctx, "f", 0, -4); err == nil {
			t.Fatal("negative length accepted")
		}
	})

	t.Run("ConcurrentViews", func(t *testing.T) {
		b := mk(0)
		vr := asVR(t, b)
		content := bytes.Repeat([]byte{0xA5}, 4096)
		if err := b.WriteFile(ctx, "f", content); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					v, err := vr.ReadView(ctx, "f", 0, 4096)
					if err != nil {
						t.Errorf("ReadView: %v", err)
						return
					}
					if len(v.Data) != 4096 || v.Data[0] != 0xA5 || v.Data[4095] != 0xA5 {
						t.Errorf("view content wrong")
						v.Release()
						return
					}
					v.Release()
				}
			}()
		}
		wg.Wait()
	})

	t.Run("WriteThenView", func(t *testing.T) {
		// A view taken after WriteFile replaced the content must see
		// the new bytes (the OSFS descriptor cache invalidates on the
		// rename-over).
		b := mk(0)
		vr := asVR(t, b)
		if err := b.WriteFile(ctx, "f", []byte("old-old-old")); err != nil {
			t.Fatal(err)
		}
		v, err := vr.ReadView(ctx, "f", 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
		if err := b.WriteFile(ctx, "f", []byte("new-new-new")); err != nil {
			t.Fatal(err)
		}
		v, err = vr.ReadView(ctx, "f", 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		got := string(v.Data)
		v.Release()
		if got != "new-new-new" {
			t.Fatalf("view after rewrite = %q", got)
		}
	})

	// Lifetime: every byte of a held view is read after its file was
	// mutated, and must be what the view was taken of — a mapped view
	// whose file was truncated in place would die of SIGBUS here, a
	// view over recycled scratch would show the new bytes. Contents
	// span several pages with a ragged tail so a shrink drops whole
	// pages.
	pattern := func(seed byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*7)
		}
		return b
	}
	const held = 3*4096 + 123
	wholeView := func(t *testing.T, vr storage.ViewReader, name string) storage.View {
		t.Helper()
		v, err := vr.ReadView(ctx, name, 0, 1<<20)
		if err != nil {
			t.Fatalf("ReadView(%s): %v", name, err)
		}
		return v
	}
	for _, tc := range []struct {
		name string
		// mutate replaces or removes "f" and returns what a fresh view
		// must see (nil: the name is gone).
		mutate func(t *testing.T, b storage.Backend) []byte
	}{
		{"Remove", func(t *testing.T, b storage.Backend) []byte {
			if err := b.Remove(ctx, "f"); err != nil {
				t.Fatal(err)
			}
			return nil
		}},
		{"WriteFileLonger", func(t *testing.T, b storage.Backend) []byte {
			next := pattern(0x80, 2*held)
			if err := b.WriteFile(ctx, "f", next); err != nil {
				t.Fatal(err)
			}
			return next
		}},
		{"WriteFileShorter", func(t *testing.T, b storage.Backend) []byte {
			next := pattern(0x80, 100)
			if err := b.WriteFile(ctx, "f", next); err != nil {
				t.Fatal(err)
			}
			return next
		}},
		{"ShrinkingAllocate", func(t *testing.T, b storage.Backend) []byte {
			rw, ok := b.(storage.RangeWriter)
			if !ok {
				t.Skipf("%s does not implement RangeWriter", b.Name())
			}
			next := pattern(0x80, 4096+50)
			if err := rw.Allocate(ctx, "f", int64(len(next))); err != nil {
				t.Fatal(err)
			}
			if _, err := rw.WriteAt(ctx, "f", next, 0); err != nil {
				t.Fatal(err)
			}
			return next
		}},
	} {
		t.Run("Lifetime/"+tc.name, func(t *testing.T) {
			b := mk(0)
			vr := asVR(t, b)
			orig := pattern(1, held)
			if err := b.WriteFile(ctx, "f", orig); err != nil {
				t.Fatal(err)
			}
			v := wholeView(t, vr, "f")
			defer v.Release()
			next := tc.mutate(t, b)
			if !bytes.Equal(v.Data, orig) {
				t.Fatalf("held view changed under %s", tc.name)
			}
			if next == nil {
				if _, err := vr.ReadView(ctx, "f", 0, 1); !errors.Is(err, storage.ErrNotExist) {
					t.Fatalf("fresh view of removed file: %v, want ErrNotExist", err)
				}
			} else {
				fresh := wholeView(t, vr, "f")
				ok := bytes.Equal(fresh.Data, next)
				fresh.Release()
				if !ok {
					t.Fatal("fresh view does not see the new content")
				}
			}
			if !bytes.Equal(v.Data, orig) {
				t.Fatal("held view changed after a fresh view was taken")
			}
		})
	}

	t.Run("Lifetime/EmptyAndEOF", func(t *testing.T) {
		b := mk(0)
		vr := asVR(t, b)
		if err := b.WriteFile(ctx, "empty", nil); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteFile(ctx, "f", []byte("abc")); err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			name string
			off  int64
		}{{"empty", 0}, {"empty", 5}, {"f", 3}, {"f", 4}} {
			v, err := vr.ReadView(ctx, w.name, w.off, 8)
			if err != nil || len(v.Data) != 0 {
				t.Fatalf("ReadView(%s, %d): %d bytes, err=%v; want an empty view", w.name, w.off, len(v.Data), err)
			}
			v.Release()
		}
	})

	t.Run("Lifetime/ConcurrentReplace", func(t *testing.T) {
		// Readers hold views while a writer replaces and removes the
		// file under them. Version k is k*1500 bytes of byte k, so a
		// view is right iff it is uniform and as long as its first byte
		// says — whichever version it caught.
		b := mk(0)
		vr := asVR(t, b)
		version := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, k*1500) }
		if err := b.WriteFile(ctx, "f", version(1)); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					v, err := vr.ReadView(ctx, "f", 0, 1<<20)
					if errors.Is(err, storage.ErrNotExist) {
						continue
					}
					if err != nil {
						t.Errorf("ReadView: %v", err)
						return
					}
					if len(v.Data) == 0 || !bytes.Equal(v.Data, version(int(v.Data[0]))) {
						t.Errorf("view of %d bytes starting %v is no version of the file", len(v.Data), v.Data[:min(len(v.Data), 1)])
						v.Release()
						return
					}
					v.Release()
				}
			}()
		}
		last := 0
		for i := 0; i < 60 && !t.Failed(); i++ {
			if i%7 == 6 {
				if err := b.Remove(ctx, "f"); err != nil {
					t.Error(err)
				}
			}
			last = 1 + (i*5)%9 // lengths go up and down
			if err := b.WriteFile(ctx, "f", version(last)); err != nil {
				t.Error(err)
			}
		}
		close(stop)
		wg.Wait()
		// No reader that raced a replacement may have left the replaced
		// file behind for later ones.
		v := wholeView(t, vr, "f")
		defer v.Release()
		if !bytes.Equal(v.Data, version(last)) {
			t.Fatalf("after the last write, a fresh view starts %v over %d bytes; want version %d", v.Data[:1], len(v.Data), last)
		}
	})
}

// RunWriteConformance drives the write-lifecycle contract the core
// write path (Monarch.Create/WriteAt/Flush/Remove and journal
// recovery) leans on, beyond the base RangeWriter semantics:
// flush-style whole-file overwrites of allocated files, journal-replay
// idempotence, remove-then-recreate quota hygiene, and range writes
// into files that already exist with content.
func RunWriteConformance(t *testing.T, mk Factory) {
	ctx := context.Background()
	// Whole-file backends (the peernet client: no ALLOC/WRITEAT wire
	// ops) run the lifecycle and sentinel subtests; range subtests skip.
	asRW := func(t *testing.T, b storage.Backend) storage.RangeWriter {
		t.Helper()
		rw, ok := b.(storage.RangeWriter)
		if !ok {
			t.Skipf("%s does not implement RangeWriter; range subtests skipped", b.Name())
		}
		return rw
	}

	t.Run("WholeFileLifecycle", func(t *testing.T) {
		// WriteFile → overwrite → Remove → recreate, the shapes the
		// flusher and Monarch.Remove drive against the PFS; needs only
		// the base Backend contract so every write target runs it.
		b := mk(64)
		if err := b.WriteFile(ctx, "ckpt", bytes.Repeat([]byte{1}, 64)); err != nil {
			t.Fatal(err)
		}
		next := bytes.Repeat([]byte{2}, 48)
		if err := b.WriteFile(ctx, "ckpt", next); err != nil {
			t.Fatalf("overwrite at quota edge: %v", err)
		}
		got, err := b.ReadFile(ctx, "ckpt")
		if err != nil || !bytes.Equal(got, next) {
			t.Fatalf("post-overwrite content: %v err=%v", got, err)
		}
		if b.Used() != 48 {
			t.Fatalf("used = %d after shrink-overwrite, want 48", b.Used())
		}
		if err := b.Remove(ctx, "ckpt"); err != nil {
			t.Fatal(err)
		}
		if err := b.Remove(ctx, "ckpt"); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("double remove: %v, want ErrNotExist", err)
		}
		if err := b.WriteFile(ctx, "ckpt", bytes.Repeat([]byte{3}, 64)); err != nil {
			t.Fatalf("recreate after remove: %v", err)
		}
	})

	t.Run("FlushOverwritesAllocation", func(t *testing.T) {
		// The flusher does WriteFile over a name that may exist on the
		// PFS from an earlier flush (or from recovery's Allocate): the
		// overwrite must replace content and re-settle quota.
		b := mk(100)
		rw := asRW(t, b)
		if err := rw.Allocate(ctx, "ckpt", 40); err != nil {
			t.Fatal(err)
		}
		if _, err := rw.WriteAt(ctx, "ckpt", []byte("old!"), 0); err != nil {
			t.Fatal(err)
		}
		flushed := bytes.Repeat([]byte{0xF1}, 24)
		if err := b.WriteFile(ctx, "ckpt", flushed); err != nil {
			t.Fatalf("flush-style overwrite: %v", err)
		}
		got, err := b.ReadFile(ctx, "ckpt")
		if err != nil || !bytes.Equal(got, flushed) {
			t.Fatalf("post-flush content: %q err=%v", got, err)
		}
		if b.Used() != 24 {
			t.Fatalf("used = %d after shrink-overwrite, want 24", b.Used())
		}
	})

	t.Run("ReplayIdempotence", func(t *testing.T) {
		// Journal recovery may re-apply a write the previous process
		// already landed; the double apply must be byte-neutral.
		b := mk(0)
		rw := asRW(t, b)
		if err := rw.Allocate(ctx, "f", 16); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := rw.WriteAt(ctx, "f", []byte("abcd"), 4); err != nil {
				t.Fatalf("apply %d: %v", i, err)
			}
		}
		want := append(append(make([]byte, 4), []byte("abcd")...), make([]byte, 8)...)
		got, err := b.ReadFile(ctx, "f")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("content after double apply: %v err=%v", got, err)
		}
		if b.Used() != 16 {
			t.Fatalf("used = %d, want 16 (replay must not re-charge)", b.Used())
		}
	})

	t.Run("RemoveThenRecreate", func(t *testing.T) {
		b := mk(64)
		rw := asRW(t, b)
		if err := rw.Allocate(ctx, "tmp", 64); err != nil {
			t.Fatal(err)
		}
		if err := b.Remove(ctx, "tmp"); err != nil {
			t.Fatal(err)
		}
		if b.Used() != 0 {
			t.Fatalf("used = %d after remove", b.Used())
		}
		// The freed quota admits a fresh allocation under the same name.
		if err := rw.Allocate(ctx, "tmp", 64); err != nil {
			t.Fatalf("re-allocate after remove: %v", err)
		}
		if _, err := rw.WriteAt(ctx, "tmp", []byte("new"), 0); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadAt(ctx, "tmp", make([]byte, 3), 0)
		if err != nil || got != 3 {
			t.Fatalf("read recreated file: n=%d err=%v", got, err)
		}
	})

	t.Run("RangeWriteIntoExistingContent", func(t *testing.T) {
		// Recovery WriteAts into a file the PFS already holds (a flush
		// landed before the crash): untouched bytes must survive.
		b := mk(0)
		rw := asRW(t, b)
		if err := b.WriteFile(ctx, "f", []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		if _, err := rw.WriteAt(ctx, "f", []byte("XY"), 4); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadFile(ctx, "f")
		if err != nil || string(got) != "0123XY6789" {
			t.Fatalf("partial overwrite: %q err=%v", got, err)
		}
	})

	t.Run("SentinelsSurviveWrappers", func(t *testing.T) {
		// The write path branches on these sentinels (errors.Is), so any
		// wrapper or wire hop in the factory chain must preserve them.
		b := mk(8)
		if err := b.Remove(ctx, "ghost"); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("remove ghost: %v, want ErrNotExist", err)
		}
		if err := b.WriteFile(ctx, "big", make([]byte, 9)); !errors.Is(err, storage.ErrNoSpace) {
			t.Fatalf("over-quota write: %v, want ErrNoSpace", err)
		}
		rw := asRW(t, b)
		if _, err := rw.WriteAt(ctx, "ghost", []byte("x"), 0); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("writeat ghost: %v, want ErrNotExist", err)
		}
		if err := rw.Allocate(ctx, "big2", 9); !errors.Is(err, storage.ErrNoSpace) {
			t.Fatalf("over-quota allocate: %v, want ErrNoSpace", err)
		}
	})
}
