package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"monarch/internal/pool"
	"monarch/internal/sim"
	"monarch/internal/simstore"
	"monarch/internal/storage"
)

// fetchSource is a source whose whole-file reads a test can count, hold
// at a gate, fail or cut short; range reads pass straight through.
type fetchSource struct {
	storage.Backend
	readFiles atomic.Int64
	entered   chan struct{} // one send per ReadFile, when set
	release   chan struct{} // ReadFile waits for it to close, when set
	fail      error
	short     bool
}

func (f *fetchSource) ReadFile(ctx context.Context, name string) ([]byte, error) {
	f.readFiles.Add(1)
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.fail != nil {
		return nil, f.fail
	}
	data, err := f.Backend.ReadFile(ctx, name)
	if f.short && len(data) > 0 {
		data = data[:len(data)-1]
	}
	return data, err
}

// newFetchStack is a scanRig's stack over one 1 MiB scanFile with src in
// front of its source and exec for its pool (and no span hook: the rig's
// is not safe under a concurrent pool).
func newFetchStack(t *testing.T, src *fetchSource, exec pool.Executor) *Monarch {
	t.Helper()
	return newScanRig(t, 1<<20, 0, func(c *Config) {
		src.Backend, c.Levels[1] = c.Levels[1], src
		c.Pool, c.Trace = exec, nil
	}).m
}

// TestFetchThroughConcurrentFirstMiss races N readers for one file's
// first miss while the winner's whole-file read is held at a gate: every
// loser must come back — served its range by a plain source read, never
// waiting on the fetch — before the gate opens, and the file is read
// whole exactly once: the winner's fetch is the copy's, too.
func TestFetchThroughConcurrentFirstMiss(t *testing.T) {
	const readers, size = 16, 1 << 20
	src := &fetchSource{entered: make(chan struct{}, readers), release: make(chan struct{})}
	m := newFetchStack(t, src, pool.NewGoPool(2))
	want := scanContent(size)

	done := make(chan error, readers)
	for i := 0; i < readers; i++ {
		off := int64(i%4) * scanWindow
		go func() {
			buf := make([]byte, scanWindow)
			n, err := m.ReadAt(context.Background(), scanFile, buf, off)
			if err == nil && !bytes.Equal(buf[:n], want[off:off+scanWindow]) {
				err = fmt.Errorf("read at %d returned %d wrong bytes", off, n)
			}
			done <- err
		}()
	}
	wait := func(what string) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return", what)
		}
	}
	select {
	case <-src.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no reader fetched the file through")
	}
	for i := 0; i < readers-1; i++ {
		wait("a reader that lost the first miss, with the winner's fetch still in flight,")
	}
	if e, _ := m.meta.get(scanFile); e.currentState() != stateQueued || e.fetch.Load() != nil {
		t.Errorf("mid-fetch: entry in state %d, buffer published: %v; want queued and none yet", e.currentState(), e.fetch.Load() != nil)
	}
	close(src.release)
	wait("the winner")
	waitIdleM(t, m)

	st := m.Stats()
	if n := src.readFiles.Load(); n != 1 || st.FetchThroughs != 1 || st.FullReadReuses != 1 || st.Placements != 1 {
		t.Errorf("the source served %d whole-file reads; fetch-throughs %d, reuses %d, placements %d; want 1 of each",
			n, st.FetchThroughs, st.FullReadReuses, st.Placements)
	}
	if st.ReadsServed[1] != readers || st.PartialHits != 0 {
		t.Errorf("%d reads reached the source and %d were mid-copy hits; want all %d and none", st.ReadsServed[1], st.PartialHits, readers)
	}
	if lvl, _ := m.LevelOf(scanFile); lvl != 0 {
		t.Errorf("file on level %d after the copy, want 0", lvl)
	}
}

// TestFetchThroughFailedFetch: a foreground fetch that fails, comes back
// short or is cancelled publishes nothing and counts nothing; the entry
// is back in stateSource for the plain range read that follows, and the
// caller gets what that read gives — the bytes where the source can
// still serve a range, its error where it cannot.
func TestFetchThroughFailedFetch(t *testing.T) {
	want := scanContent(1 << 20)[scanWindow : 2*scanWindow]
	for _, tc := range []struct {
		name    string
		src     *fetchSource
		cancel  bool
		wantErr error // nil: the range read serves the caller
	}{
		{name: "whole-file read fails", src: &fetchSource{fail: storage.ErrInjected}},
		{name: "whole-file read comes back short", src: &fetchSource{short: true}},
		{name: "caller gave up", src: &fetchSource{}, cancel: true, wantErr: context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mp := &manualPool{}
			m := newFetchStack(t, tc.src, mp)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				cancel()
			}
			buf := make([]byte, scanWindow)
			n, err := m.ReadAt(ctx, scanFile, buf, scanWindow)
			if !errors.Is(err, tc.wantErr) || (err == nil && !bytes.Equal(buf[:n], want)) {
				t.Fatalf("ReadAt = %d, %v; want err=%v and the source's bytes", n, err, tc.wantErr)
			}
			e, _ := m.meta.get(scanFile)
			st := m.Stats()
			if e.fetch.Load() != nil || st.FetchThroughs != 0 || st.FetchThroughBytes != 0 || st.PartialHits != 0 {
				t.Errorf("a failed fetch was published or counted: buffer=%v %+v", e.fetch.Load() != nil, st)
			}
			// A served read goes on to queue the paper's background copy; a
			// failed one leaves the file as it found it.
			wantState, wantQueued := stateQueued, 1
			if tc.wantErr != nil {
				wantState, wantQueued = stateSource, 0
			}
			if e.currentState() != wantState || mp.Pending() != wantQueued {
				t.Errorf("entry in state %d with %d placements queued; want state %d and %d", e.currentState(), mp.Pending(), wantState, wantQueued)
			}
		})
	}
}

// TestFetchThroughUnderSimPool runs fetch-through where nothing may wait
// on another goroutine: simulation processes over simstore devices, the
// placement pool a SimPool. Files under the size rule, read in partial
// sequential reads by concurrent processes, must finish without the
// scheduler's deadlock report, each file read from the source once, the
// fetch charged to the reader's own process.
func TestFetchThroughUnderSimPool(t *testing.T) {
	const nfiles, nreaders, window = 8, 4, 256 << 10
	env := sim.NewEnv(1)
	defer env.Close()
	src := simstore.NewStore(simstore.NewDevice(env, simstore.LustreSpec()), "lustre", 0)
	sizes := make([]int64, nfiles)
	for i := range sizes {
		sizes[i] = int64(i%3+1)<<20 + int64(i)*1000 // 1–3 MiB, none a multiple of the read size
		src.AddFile(fileName(i), sizes[i])
	}
	src.SetReadOnly(true)
	pfs := storage.NewCounting(src)
	m, err := New(Config{
		Levels:        []storage.Backend{simstore.NewStore(simstore.NewDevice(env, simstore.SSDSpec()), "ssd", 0), pfs},
		Pool:          pool.NewSimPool(env, "placer", 2),
		FullFileFetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan := func(p *sim.Proc, i int) {
		buf := make([]byte, window)
		for off := int64(0); off < sizes[i]; off += window {
			if n, err := m.ReadAt(p.Context(), fileName(i), buf, off); err != nil || int64(n) != min(window, sizes[i]-off) {
				t.Errorf("%s: read %s at %d = %d, %v", p.Name(), fileName(i), off, n, err)
			}
		}
	}
	var firstFetch sim.Time
	env.Go("job", func(p *sim.Proc) {
		if err := m.Init(p.Context()); err != nil {
			t.Error(err)
			return
		}
		// Epoch 1: each reader is the first to touch its own files.
		start := env.Now()
		var readers []*sim.Proc
		for r := 0; r < nreaders; r++ {
			readers = append(readers, env.Go(fmt.Sprintf("reader-%d", r), func(p *sim.Proc) {
				for i := r; i < nfiles; i += nreaders {
					scan(p, i)
					if r == 0 && i == 0 {
						firstFetch = env.Now() - start
					}
				}
			}))
		}
		for _, r := range readers {
			p.Join(r)
		}
		for !m.Idle() {
			p.Sleep(time.Millisecond)
		}
		// Epoch 2: every reader scans every file, now placed.
		readers = readers[:0]
		for r := 0; r < nreaders; r++ {
			readers = append(readers, env.Go(fmt.Sprintf("reader-%d", r), func(p *sim.Proc) {
				for i := 0; i < nfiles; i++ {
					scan(p, (i+r)%nfiles)
				}
			}))
		}
		for _, r := range readers {
			p.Join(r)
		}
		m.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if ops := pfs.Counts().DataOps(); ops != nfiles || st.FetchThroughs != nfiles || st.Placements != nfiles || st.PlacementErrors != 0 {
		t.Errorf("the source saw %d data ops; %d fetch-throughs, %d placements, %d errors; want %d, %d, %d and 0",
			ops, st.FetchThroughs, st.Placements, st.PlacementErrors, nfiles, nfiles, nfiles)
	}
	if firstFetch <= 0 {
		t.Errorf("reader-0's first scan took %v of virtual time: the fetch was not charged to it", firstFetch.Duration())
	}
}

// TestFetchThroughSettlesUnderResolve pins the window a fetch-through
// leaves between a read's resolve and its look at the buffer: resolve's
// snapshot says queued, so the read is bound for the source; the copy
// then settles, taking the buffer along; and the read, finding none, must
// notice the file is placed and go to the tier — not cost the source a
// range of a file it has already given whole. The peer ring's Owns
// callback is the one call resolve makes after it has loaded its
// snapshot, so that is where the hook lands the pool's work (as
// flakyViews.onRead lands an eviction between resolve and the tier
// attempt), once, for both sinks.
func TestFetchThroughSettlesUnderResolve(t *testing.T) {
	for _, view := range []bool{false, true} {
		var hook func()
		r := newScanRig(t, 1<<20, 0, func(c *Config) {
			c.Levels = []storage.Backend{c.Levels[0], storage.NewMemFS("peers", 0), c.Levels[1]}
			c.Peer = PeerConfig{Tier: 1, Owns: func(string) bool {
				if h := hook; h != nil {
					hook = nil
					h()
				}
				return true
			}}
		})
		r.read(t, view, 0, scanWindow) // the first miss: fetched through, its copy queued
		e, _ := r.m.meta.get(scanFile)
		if e.currentState() != stateQueued || e.fetch.Load() == nil {
			t.Fatalf("view=%v: after the first miss: state %d, buffer published: %v; want queued behind a fetch-through", view, e.currentState(), e.fetch.Load() != nil)
		}
		hook = r.pool.drain
		r.read(t, view, scanWindow, scanWindow)
		if hook != nil || e.currentState() != statePlaced {
			t.Fatalf("view=%v: the copy did not settle under the read (hook ran: %v, state %d)", view, hook == nil, e.currentState())
		}
		st := r.m.Stats()
		if ops := r.pfs.Counts().DataOps(); ops != 1 || st.ReadsServed[0] != 1 || st.ReadsServed[2] != 1 {
			t.Errorf("view=%v: %d data ops at the source, reads served per level %v; want the fetch alone and the second read on tier 0", view, ops, st.ReadsServed)
		}
	}
}
