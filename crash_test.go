package monarch_test

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"monarch"
)

// Crash-smoke geometry, shared by the parent and the re-exec'd child.
const (
	crashFiles    = 4
	crashFileSize = 256 << 10
	crashChunk    = 4 << 10
)

// crashPoints is the drill's table: where in the write path the burst
// child is when the SIGKILL lands. One row today; a kill mid-append or
// mid-compaction-rename (ROADMAP [journal]) is a row with its own way of
// steering the child there.
var crashPoints = []struct {
	name      string
	killAfter int // ACKed chunks the parent waits for before SIGKILL
}{
	{name: "mid-burst", killAfter: 64},
}

func crashName(i int) string { return fmt.Sprintf("ckpt/shard-%d", i) }

// crashPattern is the byte filling chunk k of file i. It depends on
// the position alone, so overwrites are idempotent and the parent can
// verify any acked chunk without knowing how far past its last-read
// ACK the child got before the kill landed.
func crashPattern(i int, k int64) byte { return byte((i*53+int(k)*17)%251 + 1) }

// slowFlushFS delays the flusher's landing ops — WriteAt for dirty
// ranges, WriteFile for a whole-file claim — so a SIGKILLed burst
// reliably dies with acked-but-unflushed bytes, forcing the reopen to
// actually replay the WAL instead of finding an already-clean PFS.
type slowFlushFS struct {
	monarch.Backend
	delay time.Duration
}

func (s *slowFlushFS) WriteFile(ctx context.Context, name string, data []byte) error {
	time.Sleep(s.delay)
	return s.Backend.WriteFile(ctx, name, data)
}

// Allocate forwards undelayed: it lands no bytes.
func (s *slowFlushFS) Allocate(ctx context.Context, name string, size int64) error {
	rw, ok := s.Backend.(monarch.RangeWriter)
	if !ok {
		return errors.ErrUnsupported
	}
	return rw.Allocate(ctx, name, size)
}

func (s *slowFlushFS) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	rw, ok := s.Backend.(monarch.RangeWriter)
	if !ok {
		return 0, errors.ErrUnsupported
	}
	time.Sleep(s.delay)
	return rw.WriteAt(ctx, name, p, off)
}

// crashStack opens the middleware over the smoke directory's scratch
// tier-0/PFS pair with journaled write-back on. The child slows the
// flusher; the verifying parent does not.
func crashStack(dir string, slow bool) (*monarch.Monarch, error) {
	tier0, err := monarch.NewOSFS("ssd", filepath.Join(dir, "tier0"), 0)
	if err != nil {
		return nil, err
	}
	var pfs monarch.Backend
	pfs, err = monarch.NewOSFS("lustre", filepath.Join(dir, "pfs"), 0)
	if err != nil {
		return nil, err
	}
	if slow {
		pfs = &slowFlushFS{Backend: pfs, delay: 50 * time.Millisecond}
	}
	m, err := monarch.New(monarch.Config{
		Levels:        []monarch.Backend{tier0, pfs},
		Pool:          monarch.NewPool(2),
		FullFileFetch: true,
		Write: monarch.WriteConfig{
			Enabled:     true,
			Durability:  func(string) monarch.Durability { return monarch.WriteBack },
			JournalPath: filepath.Join(dir, "wal.mj"),
		},
	})
	if err != nil {
		return nil, err
	}
	if err := m.Init(context.Background()); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// crashChild is the burst half of the drill: journaled write-back
// chunks as fast as they ack, one "ACK seq file off len" line per
// landed write. It runs until the parent kills it.
func crashChild(t *testing.T, dir string) {
	ctx := context.Background()
	m, err := crashStack(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashFiles; i++ {
		if err := m.Create(ctx, crashName(i), crashFileSize); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, crashChunk)
	for seq := 0; ; seq++ {
		i := seq % crashFiles
		off := (int64(seq/crashFiles) * crashChunk) % crashFileSize
		p := crashPattern(i, off/crashChunk)
		for j := range buf {
			buf[j] = p
		}
		if _, err := m.WriteAt(ctx, crashName(i), buf, off); err != nil {
			t.Fatal(err)
		}
		// One unbuffered line per acked write: once the parent has read
		// it, the bytes are covered by the durability contract.
		fmt.Printf("ACK %d %s %d %d\n", seq, crashName(i), off, len(buf))
	}
}

// TestCrashSmoke drives the write-back burst → SIGKILL → reopen →
// verify drill end to end over real directories and a real process
// kill: every write the child acked before dying must read back
// byte-identical after WAL replay — and something must have been left
// to replay. The child is this test binary re-exec'd, as os/exec's own
// tests do: -test.run selects the row, and the scratch directory as the
// one positional argument is what says "be the child".
func TestCrashSmoke(t *testing.T) {
	for _, point := range crashPoints {
		t.Run(point.name, func(t *testing.T) {
			if flag.NArg() == 1 {
				crashChild(t, flag.Arg(0))
				return
			}
			dir := t.TempDir()
			for _, sub := range []string{"tier0", "pfs"} {
				if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
					t.Fatal(err)
				}
			}
			exe, err := os.Executable()
			if err != nil {
				t.Fatal(err)
			}
			child := exec.Command(exe, "-test.run=^TestCrashSmoke$/^"+point.name+"$", dir)
			child.Stderr = os.Stderr
			out, err := child.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := child.Start(); err != nil {
				t.Fatalf("starting child: %v", err)
			}
			type ack struct {
				file string
				off  int64
			}
			var acks []ack
			sc := bufio.NewScanner(out)
			for len(acks) < point.killAfter && sc.Scan() {
				var seq, size int
				var name string
				var off int64
				if _, err := fmt.Sscanf(sc.Text(), "ACK %d %s %d %d", &seq, &name, &off, &size); err != nil {
					t.Logf("child: %s", sc.Text())
					continue
				}
				acks = append(acks, ack{file: name, off: off})
			}
			// kill -9 mid-burst: no shutdown hook runs, the journal is all
			// that stands between the acked bytes and the void.
			killErr := child.Process.Kill()
			_ = child.Wait()
			if len(acks) < point.killAfter {
				t.Fatalf("child produced %d/%d ACKs before exiting", len(acks), point.killAfter)
			}
			if killErr != nil {
				t.Fatalf("killing child: %v", killErr)
			}

			m, err := crashStack(dir, false)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer m.Close()
			st := m.Stats()
			if st.RecoveredFiles == 0 {
				t.Fatal("reopen recovered nothing — the burst flushed everything before the kill, no WAL replay was exercised")
			}
			ctx := context.Background()
			buf := make([]byte, crashChunk)
			for _, a := range acks {
				var i int
				if _, err := fmt.Sscanf(a.file, "ckpt/shard-%d", &i); err != nil {
					t.Fatalf("unparseable ACK file %q", a.file)
				}
				if _, err := m.ReadAt(ctx, a.file, buf, a.off); err != nil {
					t.Fatalf("reading back %s@%d: %v", a.file, a.off, err)
				}
				want := crashPattern(i, a.off/crashChunk)
				for j, b := range buf {
					if b != want {
						t.Fatalf("acked byte lost: %s@%d[%d] = %#x, want %#x", a.file, a.off, j, b, want)
					}
				}
			}
			t.Logf("killed the burst after %d acked chunks (%d KiB); recovered %d file(s) from the WAL, all byte-identical",
				len(acks), len(acks)*crashChunk/1024, st.RecoveredFiles)
		})
	}
}
