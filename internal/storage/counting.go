package storage

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"monarch/internal/obs"
)

// OpKind enumerates the operation classes the counters distinguish.
type OpKind int

// Operation classes counted by Counting.
const (
	OpList OpKind = iota
	OpStat
	OpRead // ReadAt and ReadFile
	OpWrite
	OpRemove
	opKinds
)

// String names the operation class.
func (k OpKind) String() string {
	switch k {
	case OpList:
		return "list"
	case OpStat:
		return "stat"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpRemove:
		return "remove"
	default:
		return "unknown"
	}
}

// OpCounts is a snapshot of a Counting wrapper's totals.
type OpCounts struct {
	Ops          [5]int64 // indexed by OpKind
	BytesRead    int64
	BytesWritten int64
}

// Total returns the total operation count across all classes.
func (c OpCounts) Total() int64 {
	var t int64
	for _, v := range c.Ops {
		t += v
	}
	return t
}

// DataOps returns read + write operation counts — the paper's
// "I/O operations submitted to the shared file system".
func (c OpCounts) DataOps() int64 { return c.Ops[OpRead] + c.Ops[OpWrite] }

// MetadataOps returns list + stat counts.
func (c OpCounts) MetadataOps() int64 { return c.Ops[OpList] + c.Ops[OpStat] }

// Counting wraps a Backend and counts every operation and byte moved.
// It is how the experiments measure "I/O pressure on the PFS". Counting
// is safe for concurrent use.
type Counting struct {
	Backend
	ops          [opKinds]atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

// NewCounting wraps b.
func NewCounting(b Backend) *Counting { return &Counting{Backend: b} }

// Counts returns a consistent-enough snapshot of the totals.
func (c *Counting) Counts() OpCounts {
	var s OpCounts
	for i := range c.ops {
		s.Ops[i] = c.ops[i].Load()
	}
	s.BytesRead = c.bytesRead.Load()
	s.BytesWritten = c.bytesWritten.Load()
	return s
}

// Reset zeroes all counters.
func (c *Counting) Reset() {
	for i := range c.ops {
		c.ops[i].Store(0)
	}
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
}

// Instrument implements obs.Instrumentable: it registers func-backed
// counters that read the wrapper's live totals, so the registry view
// and Counts() can never disagree (and Reset keeps working — the funcs
// simply observe the zeroed atomics). The extra labels identify the
// instance; core passes the hierarchy tier. Registering the same
// wrapper into the same registry twice panics (duplicate series).
func (c *Counting) Instrument(r *obs.Registry, labels ...Label) {
	base := append([]Label{obs.L("backend", c.Backend.Name())}, labels...)
	for k := OpKind(0); k < opKinds; k++ {
		ctr := &c.ops[k]
		r.CounterFunc("monarch_backend_ops_total",
			"Operations issued to a storage backend, by operation class.",
			ctr.Load, append(append([]Label(nil), base...), obs.L("op", k.String()))...)
	}
	r.CounterFunc("monarch_backend_read_bytes_total",
		"Bytes read from a storage backend.", c.bytesRead.Load, base...)
	r.CounterFunc("monarch_backend_write_bytes_total",
		"Bytes written to a storage backend.", c.bytesWritten.Load, base...)
}

// Label aliases obs.Label so callers can pass instance labels without
// importing obs directly.
type Label = obs.Label

// List implements Backend.
func (c *Counting) List(ctx context.Context) ([]FileInfo, error) {
	c.ops[OpList].Add(1)
	return c.Backend.List(ctx)
}

// Stat implements Backend.
func (c *Counting) Stat(ctx context.Context, name string) (FileInfo, error) {
	c.ops[OpStat].Add(1)
	return c.Backend.Stat(ctx, name)
}

// ReadAt implements Backend.
func (c *Counting) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	c.ops[OpRead].Add(1)
	n, err := c.Backend.ReadAt(ctx, name, p, off)
	c.bytesRead.Add(int64(n))
	return n, err
}

// errNoViews is built once: core asks each warm ReadAt for a view, and a
// counted tier without views must refuse it without allocating.
var errNoViews = fmt.Errorf("storage: counted backend lends no views: %w", errors.ErrUnsupported)

// ReadView implements ViewReader when the wrapped backend does; a view
// counts as one read op for however many bytes it lends, and a refused
// one (ErrUnsupported) as none — the ReadAt the caller falls through
// to is the op. (Faulty deliberately does not forward ReadView, so
// injected read faults can never be bypassed by the zero-copy path.)
func (c *Counting) ReadView(ctx context.Context, name string, off, n int64) (View, error) {
	vr, ok := c.Backend.(ViewReader)
	if !ok {
		return View{}, errNoViews
	}
	v, err := vr.ReadView(ctx, name, off, n)
	if errors.Is(err, errors.ErrUnsupported) {
		return v, err
	}
	c.ops[OpRead].Add(1)
	c.bytesRead.Add(int64(len(v.Data)))
	return v, err
}

// ReadFile implements Backend.
func (c *Counting) ReadFile(ctx context.Context, name string) ([]byte, error) {
	c.ops[OpRead].Add(1)
	data, err := c.Backend.ReadFile(ctx, name)
	c.bytesRead.Add(int64(len(data)))
	return data, err
}

// WriteFile implements Backend.
func (c *Counting) WriteFile(ctx context.Context, name string, data []byte) error {
	c.ops[OpWrite].Add(1)
	err := c.Backend.WriteFile(ctx, name, data)
	if err == nil {
		c.bytesWritten.Add(int64(len(data)))
	}
	return err
}

// Remove implements Backend.
func (c *Counting) Remove(ctx context.Context, name string) error {
	c.ops[OpRemove].Add(1)
	return c.Backend.Remove(ctx, name)
}

// Allocate implements RangeWriter when the wrapped backend does; the
// allocation counts as a write op (no bytes moved yet).
func (c *Counting) Allocate(ctx context.Context, name string, size int64) error {
	rw, ok := c.Backend.(RangeWriter)
	if !ok {
		return fmt.Errorf("%s: allocate %q: %w", c.Backend.Name(), name, errors.ErrUnsupported)
	}
	c.ops[OpWrite].Add(1)
	return rw.Allocate(ctx, name, size)
}

// WriteAt implements RangeWriter when the wrapped backend does.
func (c *Counting) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	rw, ok := c.Backend.(RangeWriter)
	if !ok {
		return 0, fmt.Errorf("%s: write %q: %w", c.Backend.Name(), name, errors.ErrUnsupported)
	}
	c.ops[OpWrite].Add(1)
	n, err := rw.WriteAt(ctx, name, p, off)
	c.bytesWritten.Add(int64(n))
	return n, err
}
