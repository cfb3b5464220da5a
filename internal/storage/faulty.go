package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrInjected is the error produced by a Faulty backend.
var ErrInjected = errors.New("storage: injected fault")

// Faulty wraps a Backend and fails selected operations. It exists for
// failure-injection tests: MONARCH must degrade to serving from the PFS
// when a tier fails, never corrupt its metadata, and never lose a read.
// Every operation — including Stat, List and Remove — goes through the
// fault check, so circuit-breaker probes and namespace traversals are
// exercised too.
//
// Fault modes compose; an operation fails if any armed mode fires:
//
//   - Break/Fix: a device that dropped off the node (every op fails);
//   - FailEveryNthRead/Write: deterministic periodic faults;
//   - FailNextReads/Writes: a transient window — the next n ops fail,
//     then the device heals itself (exercises retry paths);
//   - FailRate: seeded probabilistic faults (flaky-device soak tests);
//   - ShortNextWrites: range writes that land half their bytes and say
//     so with a nil error (a caller that ignores n loses the rest).
type Faulty struct {
	Backend

	mu             sync.Mutex
	failWrite      int // fail every write whose 1-based index is a multiple
	failRead       int
	writes         int
	reads          int
	broken         bool // when true, every op fails
	failNextReads  int  // transient window: the next n read ops fail
	failNextWrites int
	shortWrites    int     // the next n WriteAt ops land only half their bytes
	readRate       float64 // probability each read fails
	writeRate      float64
	rng            *rand.Rand
}

// NewFaulty wraps b with no faults armed.
func NewFaulty(b Backend) *Faulty { return &Faulty{Backend: b} }

// FailEveryNthWrite makes every n-th write op fail (n <= 0 disarms).
func (f *Faulty) FailEveryNthWrite(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failWrite = n
}

// FailEveryNthRead makes every n-th read op (ReadAt, ReadFile, Stat or
// List) fail.
func (f *Faulty) FailEveryNthRead(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRead = n
}

// FailNextReads makes the next n read ops fail, then heals — a
// transient fault window.
func (f *Faulty) FailNextReads(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failNextReads = n
}

// FailNextWrites makes the next n write ops fail, then heals.
func (f *Faulty) FailNextWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failNextWrites = n
}

// ShortNextWrites makes the next n WriteAt ops short: each lands the
// first half of its bytes and returns that count with a nil error.
func (f *Faulty) ShortNextWrites(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortWrites = n
}

// FailRate arms seeded probabilistic faults: every read and write op
// independently fails with probability p (p <= 0 disarms). The seed
// makes runs reproducible.
func (f *Faulty) FailRate(p float64, seed uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readRate, f.writeRate = p, p
	f.rng = rand.New(rand.NewSource(int64(seed)))
	if p <= 0 {
		f.rng = nil
	}
}

// Break makes every subsequent operation fail until Fix is called,
// simulating a device that dropped off the node.
func (f *Faulty) Break() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.broken = true
}

// Fix clears Break.
func (f *Faulty) Fix() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.broken = false
}

// Broken reports whether the device is currently broken.
func (f *Faulty) Broken() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.broken
}

func (f *Faulty) readFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken {
		return ErrInjected
	}
	if f.failNextReads > 0 {
		f.failNextReads--
		return ErrInjected
	}
	f.reads++
	if f.failRead > 0 && f.reads%f.failRead == 0 {
		return ErrInjected
	}
	if f.rng != nil && f.readRate > 0 && f.rng.Float64() < f.readRate {
		return ErrInjected
	}
	return nil
}

func (f *Faulty) writeFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken {
		return ErrInjected
	}
	if f.failNextWrites > 0 {
		f.failNextWrites--
		return ErrInjected
	}
	f.writes++
	if f.failWrite > 0 && f.writes%f.failWrite == 0 {
		return ErrInjected
	}
	if f.rng != nil && f.writeRate > 0 && f.rng.Float64() < f.writeRate {
		return ErrInjected
	}
	return nil
}

// ReadAt implements Backend.
func (f *Faulty) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if err := f.readFault(); err != nil {
		return 0, err
	}
	return f.Backend.ReadAt(ctx, name, p, off)
}

// ReadFile implements Backend.
func (f *Faulty) ReadFile(ctx context.Context, name string) ([]byte, error) {
	if err := f.readFault(); err != nil {
		return nil, err
	}
	return f.Backend.ReadFile(ctx, name)
}

// WriteFile implements Backend.
func (f *Faulty) WriteFile(ctx context.Context, name string, data []byte) error {
	if err := f.writeFault(); err != nil {
		return err
	}
	return f.Backend.WriteFile(ctx, name, data)
}

// Allocate implements RangeWriter when the wrapped backend does; the
// allocation counts as a write op for fault purposes. Wrapping a
// backend without range support yields errors.ErrUnsupported so
// chunked placement can fall back to whole-file copies.
func (f *Faulty) Allocate(ctx context.Context, name string, size int64) error {
	rw, ok := f.Backend.(RangeWriter)
	if !ok {
		return fmt.Errorf("%s: allocate %q: %w", f.Backend.Name(), name, errors.ErrUnsupported)
	}
	if err := f.writeFault(); err != nil {
		return err
	}
	return rw.Allocate(ctx, name, size)
}

// WriteAt implements RangeWriter when the wrapped backend does; each
// chunk write goes through the write-fault check, so tests can fail a
// single chunk of a multi-chunk placement.
func (f *Faulty) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	rw, ok := f.Backend.(RangeWriter)
	if !ok {
		return 0, fmt.Errorf("%s: write %q: %w", f.Backend.Name(), name, errors.ErrUnsupported)
	}
	if err := f.writeFault(); err != nil {
		return 0, err
	}
	f.mu.Lock()
	if f.shortWrites > 0 {
		f.shortWrites--
		p = p[:len(p)/2]
	}
	f.mu.Unlock()
	return rw.WriteAt(ctx, name, p, off)
}

// Stat implements Backend; like every other read op it goes through the
// read-fault check.
func (f *Faulty) Stat(ctx context.Context, name string) (FileInfo, error) {
	if err := f.readFault(); err != nil {
		return FileInfo{}, err
	}
	return f.Backend.Stat(ctx, name)
}

// List implements Backend.
func (f *Faulty) List(ctx context.Context) ([]FileInfo, error) {
	if err := f.readFault(); err != nil {
		return nil, err
	}
	return f.Backend.List(ctx)
}

// Remove implements Backend; removals count as write ops.
func (f *Faulty) Remove(ctx context.Context, name string) error {
	if err := f.writeFault(); err != nil {
		return err
	}
	return f.Backend.Remove(ctx, name)
}
