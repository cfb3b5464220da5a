package storage_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"monarch/internal/storage"
	"monarch/internal/storage/storagetest"
)

// backendFactories builds each Backend implementation fresh for the
// shared conformance suite (which lives in storagetest so other
// implementations — the peernet client in particular — run the same
// contract).
func backendFactories(t *testing.T) map[string]storagetest.Factory {
	return map[string]storagetest.Factory{
		"memfs": func(capacity int64) storage.Backend {
			return storage.NewMemFS("mem", capacity)
		},
		"osfs": func(capacity int64) storage.Backend {
			dir := t.TempDir()
			o, err := storage.NewOSFS("os", dir, capacity)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(o.CloseIdle)
			return o
		},
	}
}

func TestBackendConformance(t *testing.T) {
	for name, mk := range backendFactories(t) {
		t.Run(name, func(t *testing.T) {
			storagetest.RunConformance(t, mk)
		})
	}
}

func TestBackendPropertyRoundtrip(t *testing.T) {
	ctx := context.Background()
	for name, mk := range backendFactories(t) {
		t.Run(name, func(t *testing.T) {
			b := mk(0)
			i := 0
			err := quick.Check(func(data []byte, off uint16) bool {
				i++
				name := fmt.Sprintf("file-%d", i)
				if err := b.WriteFile(ctx, name, data); err != nil {
					return false
				}
				got, err := b.ReadFile(ctx, name)
				if err != nil || !bytes.Equal(got, data) {
					return false
				}
				// Any ReadAt window must agree with the slice.
				o := int64(off) % (int64(len(data)) + 1)
				p := make([]byte, 16)
				n, err := b.ReadAt(ctx, name, p, o)
				if err != nil {
					return false
				}
				want := data[o:]
				if len(want) > 16 {
					want = want[:16]
				}
				return n == len(want) && bytes.Equal(p[:n], want)
			}, &quick.Config{MaxCount: 40})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestValidateName(t *testing.T) {
	valid := []string{"a", "a/b", "a.txt", "dir/.hidden", "a..b", "..a", "a.."}
	for _, n := range valid {
		if err := storage.ValidateName(n); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", n, err)
		}
	}
	invalid := []string{"", "/a", "..", "../x", "a/..", "a/../b", "a/.."}
	for _, n := range invalid {
		if err := storage.ValidateName(n); err == nil {
			t.Errorf("ValidateName(%q) = nil, want error", n)
		}
	}
}

func TestReadRange(t *testing.T) {
	data := []byte("abcdef")
	p := make([]byte, 3)
	if n, err := storage.ReadRange(data, p, 0); n != 3 || err != nil || string(p) != "abc" {
		t.Fatalf("n=%d err=%v p=%q", n, err, p)
	}
	if n, _ := storage.ReadRange(data, p, 5); n != 1 || p[0] != 'f' {
		t.Fatalf("tail: n=%d", n)
	}
	if n, _ := storage.ReadRange(data, p, 6); n != 0 {
		t.Fatalf("at EOF: n=%d", n)
	}
	if _, err := storage.ReadRange(data, p, -1); err == nil {
		t.Fatal("negative offset should error")
	}
}

func TestFree(t *testing.T) {
	b := storage.NewMemFS("m", 100)
	if err := b.WriteFile(context.Background(), "f", make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	if storage.Free(b) != 70 {
		t.Fatalf("Free = %d", storage.Free(b))
	}
	unlimited := storage.NewMemFS("u", 0)
	if storage.Free(unlimited) < 1<<61 {
		t.Fatal("unlimited backend should report huge free space")
	}
}

func TestMemFSReadOnly(t *testing.T) {
	ctx := context.Background()
	m := storage.NewMemFS("pfs", 0)
	if err := m.WriteFile(ctx, "dataset", []byte("x")); err != nil {
		t.Fatal(err)
	}
	m.SetReadOnly(true)
	if err := m.WriteFile(ctx, "new", []byte("y")); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("write on read-only: %v", err)
	}
	if err := m.Remove(ctx, "dataset"); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("remove on read-only: %v", err)
	}
	if _, err := m.ReadFile(ctx, "dataset"); err != nil {
		t.Fatalf("read on read-only must work: %v", err)
	}
}

func TestMemFSReadFileReturnsCopy(t *testing.T) {
	ctx := context.Background()
	m := storage.NewMemFS("m", 0)
	if err := m.WriteFile(ctx, "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadFile(ctx, "f")
	got[0] = 'X'
	again, _ := m.ReadFile(ctx, "f")
	if string(again) != "abc" {
		t.Fatal("ReadFile exposed internal buffer")
	}
}

func TestMemFSWriteFileCopiesInput(t *testing.T) {
	ctx := context.Background()
	m := storage.NewMemFS("m", 0)
	buf := []byte("abc")
	if err := m.WriteFile(ctx, "f", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, _ := m.ReadFile(ctx, "f")
	if string(got) != "abc" {
		t.Fatal("WriteFile aliased caller buffer")
	}
}

func TestOSFSRejectsMissingRoot(t *testing.T) {
	if _, err := storage.NewOSFS("x", "/definitely/not/here", 0); err == nil {
		t.Fatal("expected error for missing root")
	}
}

func TestOSFSCountsPreexistingFiles(t *testing.T) {
	dir := t.TempDir()
	seed, err := storage.NewOSFS("seed", dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.WriteFile(context.Background(), "pre", make([]byte, 42)); err != nil {
		t.Fatal(err)
	}
	reopened, err := storage.NewOSFS("re", dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Used() != 42 {
		t.Fatalf("used = %d, want 42", reopened.Used())
	}
}

// TestOSFSLeavesOutStaleTempFiles is the temp-name rule: a temp file a
// SIGKILL left between CreateTemp and rename — or a lingering probe
// file — is neither listed as data nor charged to the quota, while the
// real names beside it read as before. It is not unlinked either:
// another process's OSFS may be writing this directory.
func TestOSFSLeavesOutStaleTempFiles(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	seed, err := storage.NewOSFS("seed", dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	shard := bytes.Repeat([]byte{7}, 10)
	for _, name := range []string{"shard", "sub/shard"} {
		if err := seed.WriteFile(ctx, name, shard); err != nil {
			t.Fatal(err)
		}
	}
	stale := []string{".monarch-12345", "sub/.monarch-67890", ".monarch-probe"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(name)), []byte("torn!!!"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	o, err := storage.NewOSFS("re", dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer o.CloseIdle()
	if o.Used() != 20 {
		t.Errorf("Used() = %d, want the two shards' 20 bytes", o.Used())
	}
	infos, err := o.List(ctx)
	if err != nil || len(infos) != 2 || infos[0].Name != "shard" || infos[1].Name != "sub/shard" {
		t.Errorf("List() = %+v (err=%v), want exactly the two shards", infos, err)
	}
	for _, name := range []string{"shard", "sub/shard"} {
		if fi, err := o.Stat(ctx, name); err != nil || fi.Size != 10 {
			t.Errorf("Stat(%s) = %+v, %v", name, fi, err)
		}
		got := make([]byte, 10)
		if n, err := o.ReadAt(ctx, name, got, 0); err != nil || n != 10 || !bytes.Equal(got, shard) {
			t.Errorf("ReadAt(%s) = %d, %v", name, n, err)
		}
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(name))); err != nil {
			t.Errorf("%s was removed: it may be another process's live temp file (%v)", name, err)
		}
	}
}

// TestOSFSStaleProbeLeavesLedgerExact is the temp-name rule's other
// half: a probe file a killed process left behind is not counted at
// open, so the next probe — a one-byte WriteFile over it, then a Remove
// — must not take its size off the ledger. Used() is the data files'
// bytes before, during and after, and never negative.
func TestOSFSStaleProbeLeavesLedgerExact(t *testing.T) {
	ctx := context.Background()
	const probe = storage.TempPrefix + "probe"
	for _, shard := range []int{0, 10} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, probe), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
		if shard > 0 {
			if err := os.WriteFile(filepath.Join(dir, "shard"), make([]byte, shard), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		o, err := storage.NewOSFS("ssd", dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer o.CloseIdle()
		want := int64(shard)
		check := func(when string) {
			t.Helper()
			if got := o.Used(); got != want {
				t.Fatalf("%s: Used() = %d, want the data files' %d", when, got, want)
			}
		}
		check("at open")
		for round := 0; round < 2; round++ { // over the stale file, then over none
			if err := o.WriteFile(ctx, probe, []byte{0}); err != nil {
				t.Fatal(err)
			}
			check("probe written")
			if err := o.Remove(ctx, probe); err != nil {
				t.Fatal(err)
			}
			check("probe removed")
		}
	}
}
