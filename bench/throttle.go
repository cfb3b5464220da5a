package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"monarch/internal/storage"
)

// pfsModel is the deterministic cost model of the emulated parallel
// file system: a fixed latency per operation plus one bandwidth budget
// shared by every caller. There is no noise term — two runs of the same
// op sequence are charged the same time.
type pfsModel struct {
	DataLatency time.Duration // per ReadAt/ReadFile/WriteFile/WriteAt
	MetaLatency time.Duration // per List/Stat/Remove/Allocate
	BytesPerSec int64         // shared by all data ops; 0 = unlimited
}

// transfer is the time one op of n payload bytes occupies the shared
// bandwidth budget.
func (m pfsModel) transfer(n int64) time.Duration {
	if m.BytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(m.BytesPerSec) * float64(time.Second))
}

// pfsCounts is what the emulated PFS saw, read from outside the
// middleware: the paper's "I/O operations submitted to the PFS".
type pfsCounts struct {
	ReadOps, WriteOps, MetaOps int64
	BytesRead, BytesWritten    int64
	Busy                       time.Duration // wall time with >=1 op in flight
}

func (c pfsCounts) sub(o pfsCounts) pfsCounts {
	return pfsCounts{
		ReadOps: c.ReadOps - o.ReadOps, WriteOps: c.WriteOps - o.WriteOps, MetaOps: c.MetaOps - o.MetaOps,
		BytesRead: c.BytesRead - o.BytesRead, BytesWritten: c.BytesWritten - o.BytesWritten,
		Busy: c.Busy - o.Busy,
	}
}

// throttle wraps a backend in the PFS cost model. It forwards
// storage.RangeWriter (the write path needs it on the source level) and
// deliberately does not forward storage.ViewReader: a remote file
// system cannot lend its bytes.
//
// Every op has a deadline computed from the model — its slot in the
// shared bandwidth queue plus the latency — and sleeps until that
// deadline after the real op returns. A sleep overshoots by some tens
// of microseconds; the overshoot is remembered and taken off later
// sleeps, so N ops take N times the modelled cost rather than drifting
// late.
type throttle struct {
	inner rangeBackend
	model pfsModel

	mu       sync.Mutex
	nextFree time.Time     // when the shared bandwidth budget frees up
	debt     time.Duration // sleep overshoot not yet repaid
	inflight int
	busyFrom time.Time
	busy     time.Duration

	readOps, writeOps, metaOps atomic.Int64
	bytesRead, bytesWritten    atomic.Int64
}

// rangeBackend is what the PFS directory must offer: the write path
// flushes and recovers through storage.RangeWriter on the source level.
type rangeBackend interface {
	storage.Backend
	storage.RangeWriter
}

func newThrottle(inner rangeBackend, model pfsModel) *throttle {
	return &throttle{inner: inner, model: model}
}

// counts snapshots the op and byte counters.
func (t *throttle) counts() pfsCounts {
	t.mu.Lock()
	busy := t.busy
	if t.inflight > 0 {
		busy += time.Since(t.busyFrom)
	}
	t.mu.Unlock()
	return pfsCounts{
		ReadOps: t.readOps.Load(), WriteOps: t.writeOps.Load(), MetaOps: t.metaOps.Load(),
		BytesRead: t.bytesRead.Load(), BytesWritten: t.bytesWritten.Load(), Busy: busy,
	}
}

// enter opens an op and returns its start time.
func (t *throttle) enter() time.Time {
	now := time.Now()
	t.mu.Lock()
	if t.inflight == 0 {
		t.busyFrom = now
	}
	t.inflight++
	t.mu.Unlock()
	return now
}

// slot queues n bytes on the shared bandwidth budget for an op that
// started at start, and returns when the transfer completes.
func (t *throttle) slot(start time.Time, n int64) time.Time {
	tr := t.model.transfer(n)
	if tr == 0 {
		return start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nextFree.After(start) {
		start = t.nextFree
	}
	t.nextFree = start.Add(tr)
	return t.nextFree
}

// begin opens a data op moving n bytes and returns its deadline.
func (t *throttle) begin(n int64) time.Time {
	return t.slot(t.enter(), n).Add(t.model.DataLatency)
}

// end sleeps out what is left of the op's modelled time.
func (t *throttle) end(deadline time.Time) {
	if d := time.Until(deadline); d > 0 {
		t.mu.Lock()
		credit := min(t.debt, d)
		t.debt -= credit
		t.mu.Unlock()
		want := d - credit
		start := time.Now()
		if want > 0 {
			block(want)
		}
		over := time.Since(start) - want
		t.mu.Lock()
		t.debt += over
		t.mu.Unlock()
	}
	t.mu.Lock()
	t.inflight--
	if t.inflight == 0 {
		t.busy += time.Since(t.busyFrom)
	}
	t.mu.Unlock()
}

// block sleeps d in the kernel, as a read from a remote file system
// would: the calling thread sits in a syscall. time.Sleep is no
// alternative here: in an otherwise idle process it oversleeps 400 us
// by 700, nanosleep by 100.
func block(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// meta opens a metadata op and returns its deadline.
func (t *throttle) meta() time.Time {
	t.metaOps.Add(1)
	return t.enter().Add(t.model.MetaLatency)
}

// Name implements storage.Backend.
func (t *throttle) Name() string { return t.inner.Name() }

// Capacity implements storage.Backend.
func (t *throttle) Capacity() int64 { return t.inner.Capacity() }

// Used implements storage.Backend.
func (t *throttle) Used() int64 { return t.inner.Used() }

// List implements storage.Backend.
func (t *throttle) List(ctx context.Context) ([]storage.FileInfo, error) {
	defer t.end(t.meta())
	return t.inner.List(ctx)
}

// Stat implements storage.Backend.
func (t *throttle) Stat(ctx context.Context, name string) (storage.FileInfo, error) {
	defer t.end(t.meta())
	return t.inner.Stat(ctx, name)
}

// Remove implements storage.Backend.
func (t *throttle) Remove(ctx context.Context, name string) error {
	defer t.end(t.meta())
	return t.inner.Remove(ctx, name)
}

// ReadAt implements storage.Backend. The bandwidth slot is reserved for
// the bytes asked for, before the read: the model must not depend on
// how fast the real disk answers.
func (t *throttle) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	t.readOps.Add(1)
	defer t.end(t.begin(int64(len(p))))
	n, err := t.inner.ReadAt(ctx, name, p, off)
	t.bytesRead.Add(int64(n))
	return n, err
}

// ReadFile implements storage.Backend. The size is only known once the
// read returns, so the slot is reserved afterwards.
func (t *throttle) ReadFile(ctx context.Context, name string) ([]byte, error) {
	t.readOps.Add(1)
	start := t.enter()
	data, err := t.inner.ReadFile(ctx, name)
	t.bytesRead.Add(int64(len(data)))
	t.end(t.slot(start, int64(len(data))).Add(t.model.DataLatency))
	return data, err
}

// WriteFile implements storage.Backend.
func (t *throttle) WriteFile(ctx context.Context, name string, data []byte) error {
	t.writeOps.Add(1)
	defer t.end(t.begin(int64(len(data))))
	err := t.inner.WriteFile(ctx, name, data)
	if err == nil {
		t.bytesWritten.Add(int64(len(data)))
	}
	return err
}

// Allocate implements storage.RangeWriter; it moves no bytes, so it is
// charged as a metadata op.
func (t *throttle) Allocate(ctx context.Context, name string, size int64) error {
	defer t.end(t.meta())
	return t.inner.Allocate(ctx, name, size)
}

// WriteAt implements storage.RangeWriter.
func (t *throttle) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	t.writeOps.Add(1)
	defer t.end(t.begin(int64(len(p))))
	n, err := t.inner.WriteAt(ctx, name, p, off)
	t.bytesWritten.Add(int64(n))
	return n, err
}
