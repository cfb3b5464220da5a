package storage

import (
	"context"
	"errors"
	"testing"
)

// TestFaultyStatAndListCountAsReads: Stat and List go through the same
// read-fault counter as ReadAt/ReadFile, so every op a circuit-breaker
// probe or namespace traversal issues is injectable.
func TestFaultyStatAndListCountAsReads(t *testing.T) {
	ctx := context.Background()
	m := NewMemFS("m", 0)
	if err := m.WriteFile(ctx, "a", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(m)
	f.FailEveryNthRead(2)
	if _, err := f.Stat(ctx, "a"); err != nil { // read #1
		t.Fatalf("1st read op: %v", err)
	}
	if _, err := f.Stat(ctx, "a"); !errors.Is(err, ErrInjected) { // read #2
		t.Fatalf("2nd read op = %v, want injected", err)
	}
	if _, err := f.List(ctx); err != nil { // read #3
		t.Fatalf("3rd read op: %v", err)
	}
	if _, err := f.ReadFile(ctx, "a"); !errors.Is(err, ErrInjected) { // read #4
		t.Fatalf("4th read op = %v, want injected", err)
	}
}

// TestFaultyRemoveCountsAsWrite: removals hit the write-fault counter.
func TestFaultyRemoveCountsAsWrite(t *testing.T) {
	ctx := context.Background()
	m := NewMemFS("m", 0)
	f := NewFaulty(m)
	f.FailEveryNthWrite(2)
	if err := f.WriteFile(ctx, "a", []byte("x")); err != nil { // write #1
		t.Fatal(err)
	}
	if err := f.Remove(ctx, "a"); !errors.Is(err, ErrInjected) { // write #2
		t.Fatalf("remove = %v, want injected", err)
	}
	if err := f.Remove(ctx, "a"); err != nil { // write #3 passes through
		t.Fatalf("remove after window: %v", err)
	}
}

// TestFaultyBreakFailsEveryOp: while broken, all six operations fail;
// after Fix they all work again.
func TestFaultyBreakFailsEveryOp(t *testing.T) {
	ctx := context.Background()
	m := NewMemFS("m", 0)
	if err := m.WriteFile(ctx, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(m)
	f.Break()
	if !f.Broken() {
		t.Fatal("Broken() = false after Break")
	}
	p := make([]byte, 1)
	ops := map[string]error{}
	_, ops["ReadAt"] = f.ReadAt(ctx, "a", p, 0)
	_, ops["ReadFile"] = f.ReadFile(ctx, "a")
	_, ops["Stat"] = f.Stat(ctx, "a")
	_, ops["List"] = f.List(ctx)
	ops["WriteFile"] = f.WriteFile(ctx, "b", []byte("y"))
	ops["Remove"] = f.Remove(ctx, "a")
	for op, err := range ops {
		if !errors.Is(err, ErrInjected) {
			t.Errorf("%s while broken = %v, want injected", op, err)
		}
	}
	f.Fix()
	if f.Broken() {
		t.Fatal("Broken() = true after Fix")
	}
	if _, err := f.List(ctx); err != nil {
		t.Fatalf("List after fix: %v", err)
	}
	if err := f.WriteFile(ctx, "b", []byte("y")); err != nil {
		t.Fatalf("WriteFile after fix: %v", err)
	}
}

// TestFaultyFailNextWindows: FailNextReads/Writes fail exactly the next
// n ops, then heal — and the windowed ops do not advance the periodic
// counters.
func TestFaultyFailNextWindows(t *testing.T) {
	ctx := context.Background()
	m := NewMemFS("m", 0)
	if err := m.WriteFile(ctx, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(m)
	f.FailNextReads(2)
	for i := 0; i < 2; i++ {
		if _, err := f.ReadFile(ctx, "a"); !errors.Is(err, ErrInjected) {
			t.Fatalf("windowed read %d = %v, want injected", i+1, err)
		}
	}
	if _, err := f.ReadFile(ctx, "a"); err != nil {
		t.Fatalf("read after window: %v", err)
	}
	f.FailNextWrites(1)
	if err := f.WriteFile(ctx, "b", []byte("y")); !errors.Is(err, ErrInjected) {
		t.Fatalf("windowed write = %v, want injected", err)
	}
	if err := f.WriteFile(ctx, "b", []byte("y")); err != nil {
		t.Fatalf("write after window: %v", err)
	}
}

// TestFaultyShortWrites: ShortNextWrites lands half of each of the
// next n range writes, reports the short count with a nil error, then
// heals.
func TestFaultyShortWrites(t *testing.T) {
	ctx := context.Background()
	m := NewMemFS("m", 0)
	f := NewFaulty(m)
	if err := f.Allocate(ctx, "a", 8); err != nil {
		t.Fatal(err)
	}
	f.ShortNextWrites(1)
	if n, err := f.WriteAt(ctx, "a", []byte("12345678"), 0); n != 4 || err != nil {
		t.Fatalf("short write = %d, %v; want 4, nil", n, err)
	}
	if got, _ := m.ReadFile(ctx, "a"); string(got) != "1234\x00\x00\x00\x00" {
		t.Fatalf("after the short write the file holds %q", got)
	}
	if n, err := f.WriteAt(ctx, "a", []byte("12345678"), 0); n != 8 || err != nil {
		t.Fatalf("write after the window = %d, %v; want 8, nil", n, err)
	}
}

// TestFaultyFailRateDeterministic: the seeded probabilistic mode
// produces the identical fault pattern for the same seed, a different
// pattern for a different seed, and p<=0 disarms it.
func TestFaultyFailRateDeterministic(t *testing.T) {
	ctx := context.Background()
	pattern := func(seed uint64) []bool {
		m := NewMemFS("m", 0)
		if err := m.WriteFile(ctx, "a", []byte("x")); err != nil {
			t.Fatal(err)
		}
		f := NewFaulty(m)
		f.FailRate(0.5, seed)
		out := make([]bool, 100)
		for i := range out {
			_, err := f.ReadFile(ctx, "a")
			out[i] = err != nil
		}
		return out
	}
	a, b, c := pattern(42), pattern(42), pattern(7)
	fails := 0
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] {
			fails++
		}
	}
	if same {
		t.Fatal("different seeds produced the identical pattern")
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("p=0.5 failed %d of %d ops", fails, len(a))
	}

	m := NewMemFS("m", 0)
	if err := m.WriteFile(ctx, "a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f := NewFaulty(m)
	f.FailRate(0.5, 42)
	f.FailRate(0, 42) // disarm
	for i := 0; i < 50; i++ {
		if _, err := f.ReadFile(ctx, "a"); err != nil {
			t.Fatalf("disarmed rate still injected at op %d", i)
		}
		if err := f.WriteFile(ctx, "b", []byte("y")); err != nil {
			t.Fatalf("disarmed rate still injected write at op %d", i)
		}
	}
}
