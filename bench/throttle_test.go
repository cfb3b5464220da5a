package main

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"monarch/internal/storage"
	"monarch/internal/storage/storagetest"
)

// within retries a timing check: on a shared two-core box one attempt
// can lose a scheduling quantum, three in a row mean the model is off.
func within(t *testing.T, want time.Duration, tol float64, run func() time.Duration) {
	t.Helper()
	var got time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		got = run()
		if math.Abs(float64(got-want)) <= tol*float64(want) {
			return
		}
	}
	t.Fatalf("took %v, model predicts %v (tolerance %.0f%%)", got, want, 100*tol)
}

func TestThrottleChargesTheModel(t *testing.T) {
	ctx := context.Background()
	// The benchmark's latencies at a quarter of its bandwidth, so that the
	// modelled time dwarfs the real copy even under the race detector.
	model := pfsModel{DataLatency: thePFS.DataLatency, MetaLatency: thePFS.MetaLatency, BytesPerSec: thePFS.BytesPerSec / 4}
	const size = 256 << 10
	mem := storage.NewMemFS("pfs", 0)
	if err := mem.WriteFile(ctx, "f", make([]byte, size)); err != nil {
		t.Fatal(err)
	}

	t.Run("SequentialDataOps", func(t *testing.T) {
		const n = 100
		within(t, n*(model.DataLatency+model.transfer(size)), 0.05, func() time.Duration {
			th := newThrottle(mem, model)
			p := make([]byte, size)
			start := time.Now()
			for i := 0; i < n; i++ {
				if got, err := th.ReadAt(ctx, "f", p, 0); err != nil || got != size {
					t.Fatalf("read %d: n=%d err=%v", i, got, err)
				}
			}
			return time.Since(start)
		})
	})

	// Latency-bound ops sleep 400us each; an uncorrected sleep overshoots
	// every one of them by 50-100us, 15-25% in total.
	t.Run("SleepOvershootDoesNotAccumulate", func(t *testing.T) {
		const n = 500
		within(t, n*model.DataLatency, 0.05, func() time.Duration {
			th := newThrottle(mem, model)
			p := make([]byte, 1)
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := th.ReadAt(ctx, "f", p, 0); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start)
		})
	})

	t.Run("MetadataOps", func(t *testing.T) {
		const n = 400
		within(t, n*model.MetaLatency, 0.05, func() time.Duration {
			th := newThrottle(mem, model)
			start := time.Now()
			for i := 0; i < n; i++ {
				if _, err := th.Stat(ctx, "f"); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start)
		})
	})

	// Four callers share one bandwidth budget: the bytes set the time,
	// and the latency of all but the last op hides behind the queue.
	t.Run("ConcurrentCallersShareBandwidth", func(t *testing.T) {
		const callers, each = 4, 25
		within(t, callers*each*model.transfer(size)+model.DataLatency, 0.05, func() time.Duration {
			th := newThrottle(mem, model)
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p := make([]byte, size)
					for i := 0; i < each; i++ {
						if _, err := th.ReadAt(ctx, "f", p, 0); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			return time.Since(start)
		})
	})
}

func TestThrottleCapabilitiesAndCounts(t *testing.T) {
	ctx := context.Background()
	th := newThrottle(storage.NewMemFS("pfs", 0), pfsModel{})
	var b storage.Backend = th
	if _, ok := b.(storage.ViewReader); ok {
		t.Fatal("the PFS emulator must not lend views: a remote file system cannot")
	}
	rw, ok := b.(storage.RangeWriter)
	if !ok {
		t.Fatal("the PFS emulator must pass storage.RangeWriter through: the write path flushes with it")
	}
	if err := rw.Allocate(ctx, "ckpt", 8); err != nil {
		t.Fatal(err)
	}
	if n, err := rw.WriteAt(ctx, "ckpt", []byte("durable!"), 0); err != nil || n != 8 {
		t.Fatalf("WriteAt: n=%d err=%v", n, err)
	}
	got, err := th.ReadFile(ctx, "ckpt")
	if err != nil || !bytes.Equal(got, []byte("durable!")) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := th.WriteFile(ctx, "whole", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 2)
	if _, err := th.ReadAt(ctx, "whole", p, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := th.List(ctx); err != nil {
		t.Fatal(err)
	}
	if err := th.Remove(ctx, "whole"); err != nil {
		t.Fatal(err)
	}
	want := pfsCounts{ReadOps: 2, WriteOps: 2, MetaOps: 3, BytesRead: 10, BytesWritten: 11}
	c := th.counts()
	c.Busy = 0
	if c != want {
		t.Fatalf("counts = %+v, want %+v", c, want)
	}
}

// The emulator only adds time: with a free model it must pass the
// repository's own backend contracts.
func TestThrottleConformance(t *testing.T) {
	mk := func(capacity int64) storage.Backend {
		return newThrottle(storage.NewMemFS("pfs", capacity), pfsModel{})
	}
	storagetest.RunConformance(t, mk)
	storagetest.RunRangeWriterConformance(t, mk)
}
