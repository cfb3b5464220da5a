package storage

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestCountingTracksOpsAndBytes(t *testing.T) {
	ctx := context.Background()
	c := NewCounting(NewMemFS("m", 0))

	if err := c.WriteFile(ctx, "f", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 30)
	if _, err := c.ReadAt(ctx, "f", p, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.List(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(ctx, "f"); err != nil {
		t.Fatal(err)
	}

	s := c.Counts()
	if s.Ops[OpWrite] != 1 || s.Ops[OpRead] != 2 || s.Ops[OpStat] != 1 ||
		s.Ops[OpList] != 1 || s.Ops[OpRemove] != 1 {
		t.Fatalf("counts = %+v", s)
	}
	if s.BytesWritten != 100 || s.BytesRead != 130 {
		t.Fatalf("bytes = %d read / %d written", s.BytesRead, s.BytesWritten)
	}
	if s.Total() != 6 || s.DataOps() != 3 || s.MetadataOps() != 2 {
		t.Fatalf("aggregates: total=%d data=%d meta=%d", s.Total(), s.DataOps(), s.MetadataOps())
	}
}

func TestCountingFailedWriteNotCountedAsBytes(t *testing.T) {
	ctx := context.Background()
	c := NewCounting(NewMemFS("m", 10))
	err := c.WriteFile(ctx, "big", make([]byte, 100))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatal(err)
	}
	s := c.Counts()
	if s.Ops[OpWrite] != 1 {
		t.Fatalf("write op should count even on failure: %+v", s)
	}
	if s.BytesWritten != 0 {
		t.Fatalf("failed write counted %d bytes", s.BytesWritten)
	}
}

func TestCountingReset(t *testing.T) {
	ctx := context.Background()
	c := NewCounting(NewMemFS("m", 0))
	_ = c.WriteFile(ctx, "f", []byte("x"))
	c.Reset()
	if c.Counts().Total() != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestCountingConcurrent(t *testing.T) {
	ctx := context.Background()
	c := NewCounting(NewMemFS("m", 0))
	if err := c.WriteFile(ctx, "f", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]byte, 10)
			for j := 0; j < 100; j++ {
				_, _ = c.ReadAt(ctx, "f", p, 0)
			}
		}()
	}
	wg.Wait()
	if got := c.Counts().Ops[OpRead]; got != 1600 {
		t.Fatalf("reads = %d, want 1600", got)
	}
	if got := c.Counts().BytesRead; got != 16000 {
		t.Fatalf("bytes = %d, want 16000", got)
	}
}

func TestOpKindString(t *testing.T) {
	names := map[OpKind]string{
		OpList: "list", OpStat: "stat", OpRead: "read",
		OpWrite: "write", OpRemove: "remove", OpKind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("OpKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestFaultyWriteInjection(t *testing.T) {
	ctx := context.Background()
	f := NewFaulty(NewMemFS("m", 0))
	f.FailEveryNthWrite(2)
	if err := f.WriteFile(ctx, "a", []byte("1")); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := f.WriteFile(ctx, "b", []byte("2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("second write should fail: %v", err)
	}
	if err := f.WriteFile(ctx, "c", []byte("3")); err != nil {
		t.Fatalf("third write: %v", err)
	}
}

func TestFaultyReadInjection(t *testing.T) {
	ctx := context.Background()
	f := NewFaulty(NewMemFS("m", 0))
	if err := f.WriteFile(ctx, "f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	f.FailEveryNthRead(3)
	p := make([]byte, 4)
	for i := 1; i <= 6; i++ {
		_, err := f.ReadAt(ctx, "f", p, 0)
		if i%3 == 0 && !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d should fail, got %v", i, err)
		}
		if i%3 != 0 && err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

func TestFaultyBreakAndFix(t *testing.T) {
	ctx := context.Background()
	f := NewFaulty(NewMemFS("m", 0))
	if err := f.WriteFile(ctx, "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.Break()
	if _, err := f.ReadFile(ctx, "f"); !errors.Is(err, ErrInjected) {
		t.Fatalf("broken read: %v", err)
	}
	if _, err := f.Stat(ctx, "f"); !errors.Is(err, ErrInjected) {
		t.Fatalf("broken stat: %v", err)
	}
	if err := f.WriteFile(ctx, "g", []byte("y")); !errors.Is(err, ErrInjected) {
		t.Fatalf("broken write: %v", err)
	}
	f.Fix()
	if _, err := f.ReadFile(ctx, "f"); err != nil {
		t.Fatalf("fixed read: %v", err)
	}
}

// TestCountingRefusesViewsWithoutAllocating: Counting over a backend
// without views refuses every ReadView with ErrUnsupported, counts no op
// for it and allocates nothing — core asks each warm read for a view, so
// the refusal is on a counted non-lending tier's hot path.
func TestCountingRefusesViewsWithoutAllocating(t *testing.T) {
	ctx := context.Background()
	c := NewCounting(NewFaulty(NewMemFS("m", 0)))
	if err := c.WriteFile(ctx, "f", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	before := c.Counts()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.ReadView(ctx, "f", 0, 64); !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("ReadView over Faulty: %v, want ErrUnsupported", err)
		}
	})
	if allocs != 0 {
		t.Errorf("a refused view allocates %.1f times, want 0", allocs)
	}
	if after := c.Counts(); after != before {
		t.Errorf("refused views moved the counts: %+v → %+v", before, after)
	}
}

func TestCountingOverFaulty(t *testing.T) {
	// Instrumentation layers must compose.
	ctx := context.Background()
	f := NewFaulty(NewMemFS("m", 0))
	c := NewCounting(f)
	f.FailEveryNthWrite(1)
	if err := c.WriteFile(ctx, "f", []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatal(err)
	}
	if c.Counts().Ops[OpWrite] != 1 {
		t.Fatal("op not counted through composition")
	}
}
