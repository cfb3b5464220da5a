package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monarch/internal/bufpool"
	"monarch/internal/pool"
	"monarch/internal/sim"
	"monarch/internal/simstore"
	"monarch/internal/storage"
)

func aheadName(i int) string { return fmt.Sprintf("job/shard-%02d", i) }

// aheadFiles is n files of size bytes, no two alike: rotations of one
// scanContent, which is computed once per size — the stress runs repeat
// these tests under the race detector, where filling a byte costs.
func aheadFiles(n, size int) map[string][]byte {
	v, ok := aheadBase.Load(size)
	if !ok {
		v, _ = aheadBase.LoadOrStore(size, scanContent(size))
	}
	base, files := v.([]byte), make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := i * 4099 % size
		files[aheadName(i)] = append(append(make([]byte, 0, size), base[k:]...), base[:k]...)
	}
	return files
}

var aheadBase sync.Map // size → scanContent(size)

// newAheadRig is a shard rig whose tier 0 has room for nothing, after
// the first epoch's first read of each of its n files — [0, scanWindow),
// which reads the whole file ahead in one source op — and the placement
// it queued, skipped: every file is unplaceable, its fill published until
// its pass ends or the ring displaces it.
func newAheadRig(t *testing.T, n, size int, edit func(*Config)) *scanRig {
	t.Helper()
	r := newShardRig(t, aheadFiles(n, size), 1, edit)
	for i := 0; i < n; i++ {
		r.readFile(t, aheadName(i), false, 0, scanWindow)
	}
	r.pool.drain()
	for i := 0; i < n; i++ {
		if e, _ := r.m.meta.get(aheadName(i)); e.currentState() != stateUnplaceable {
			t.Fatalf("%s in state %d after its skipped placement, want unplaceable", aheadName(i), e.currentState())
		}
	}
	return r
}

func (r *scanRig) ops() int64 { return r.pfs.Counts().DataOps() }

// idleHolder fails the test unless e's read-ahead is neither published
// nor referenced: its buffer is back in the pool.
func idleHolder(t *testing.T, e *fileEntry, when string) {
	t.Helper()
	if e.fetch.Load() != nil || e.ahead.refs.Load() != 0 {
		t.Errorf("%s: buffer published: %v, holder references: %d; want neither", when, e.fetch.Load() != nil, e.ahead.refs.Load())
	}
}

// fillFaults is a source whose reads longer than the loader's window —
// the read-ahead fills — fail or come back one byte short on demand.
type fillFaults struct {
	storage.Backend
	fail, short atomic.Bool
}

func (f *fillFaults) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if len(p) > scanWindow {
		if f.fail.Load() {
			return 0, storage.ErrInjected
		}
		if f.short.Load() {
			p = p[:len(p)-1]
		}
	}
	return f.Backend.ReadAt(ctx, name, p, off)
}

// TestReadAheadRule pins which source-bound reads of an unplaceable file
// arm a read-ahead, by what a counted source sees.
func TestReadAheadRule(t *testing.T) {
	const mib = 1 << 20
	name := aheadName(0)

	t.Run("sequential scan", func(t *testing.T) {
		r := newAheadRig(t, 1, mib, nil)
		e, _ := r.m.meta.get(name)
		for off := int64(scanWindow); off < mib; off += scanWindow {
			r.readFile(t, name, false, off, scanWindow)
		}
		if ops := r.ops(); ops != 1 {
			t.Errorf("epoch 1 cost the source %d data ops; want 1: the first read's read-ahead", ops)
		}
		idleHolder(t, e, "after epoch 1's last byte")
		for epoch := 2; epoch <= 3; epoch++ {
			before := r.ops()
			for off := int64(0); off < mib; off += scanWindow {
				r.readFile(t, name, false, off, scanWindow)
			}
			if ops := r.ops() - before; ops != 1 {
				t.Errorf("epoch %d cost the source %d data ops, want 1", epoch, ops)
			}
			idleHolder(t, e, fmt.Sprintf("after epoch %d's last byte", epoch))
		}
		st := r.m.Stats()
		if st.ReadAheads != 3 || st.ReadAheadBytes != 3*mib || st.PartialHits != 9 || st.ReadsServed[1] != 12 || st.PlacementSkips != 1 {
			t.Errorf("three epochs: %+v", st)
		}
		if c := r.pfs.Counts(); c.BytesRead != 3*mib {
			t.Errorf("the source served %d bytes for three scans of a %d-byte file: a byte was fetched twice or unasked for", c.BytesRead, mib)
		}
	})

	t.Run("random-record order", func(t *testing.T) {
		r := newAheadRig(t, 1, mib, nil)
		before, reads := r.ops(), int64(0)
		for pass := 0; pass < 3; pass++ {
			for _, w := range []int64{0, 2, 1, 3} {
				r.readFile(t, name, false, w*scanWindow, scanWindow)
				reads++
			}
		}
		// The first read at 0 ends the cold pass's fill unused.
		if ops, st := r.ops()-before, r.m.Stats(); ops != reads || st.ReadAheads != 1 || st.PartialHits != 0 {
			t.Errorf("%d reads in no order cost the source %d ops, %d read-aheads, %d partial hits; want one op each, the cold fill alone and none", reads, ops, st.ReadAheads, st.PartialHits)
		}
	})

	t.Run("a backwards or overlapping read starts the run over", func(t *testing.T) {
		r := newAheadRig(t, 1, mib, nil)
		for i, step := range []struct {
			off, n     int64
			ops, fills int64 // running totals after the read
		}{
			{128 << 10, scanWindow, 1, 1},  // overlaps the first read: no run, but the cold fill holds it
			{384 << 10, scanWindow, 1, 1},  // from the buffer
			{640 << 10, scanWindow, 1, 1},  // from the buffer
			{384 << 10, scanWindow, 1, 1},  // backwards, inside the buffer
			{896 << 10, 128 << 10, 1, 1},   // its last byte: released
			{0, scanWindow, 2, 1},          // the pass was no clean stream: not armed at 0
			{scanWindow, scanWindow, 3, 2}, // but by its second read
			{128 << 10, scanWindow, 4, 2},  // backwards, before the buffer: a range read
			{384 << 10, scanWindow, 4, 2},  // adjacent, and the buffer is still there
			{768 << 10, scanWindow, 4, 2},  // last byte
			{0, scanWindow, 5, 2},          // again no clean stream
		} {
			r.readFile(t, name, false, step.off, step.n)
			if ops, fills := r.ops(), r.m.Stats().ReadAheads; ops != step.ops || fills != step.fills {
				t.Fatalf("step %d, read at %d: %d source ops, %d read-aheads so far; want %d and %d", i, step.off, ops, fills, step.ops, step.fills)
			}
		}
	})

	for _, tc := range []struct {
		name  string
		size  int
		fills int64
	}{
		{"largest the rule takes", 4 * mib, 1},
		{"one byte above the size rule", 4*mib + 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newAheadRig(t, 1, tc.size, nil)
			for off := int64(scanWindow); off < int64(tc.size); off += scanWindow {
				r.readFile(t, name, false, off, scanWindow)
			}
			reads := int64(tc.size+scanWindow-1) / scanWindow
			want := reads
			if tc.fills == 1 {
				want = 1
			}
			if ops, fills := r.ops(), r.m.Stats().ReadAheads; ops != want || fills != tc.fills {
				t.Errorf("a scan in %d reads cost the source %d ops, %d read-aheads; want %d and %d", reads, ops, fills, want, tc.fills)
			}
		})
	}

	// Never: whatever the reads look like, these files are not the rule's.
	for _, tc := range []struct {
		name     string
		capacity int64 // tier-0 quota; 0 is unlimited
		cfg      func(*Config)
		drain    bool
		prep     func(t *testing.T, r *scanRig, e *fileEntry)
		state    placementState
	}{
		{name: "placed", capacity: 0, drain: true, state: statePlaced},
		{name: "queued", capacity: 1, prep: func(t *testing.T, r *scanRig, _ *fileEntry) {
			r.readFile(t, name, false, mib-scanWindow, scanWindow) // a first miss past 0 queues the file, nothing read ahead
		}, state: stateQueued},
		{name: "writable", capacity: 1, prep: func(_ *testing.T, _ *scanRig, e *fileEntry) {
			e.writable = true
			e.markUnplaceable()
		}, state: stateUnplaceable},
		{name: "not owned", capacity: 1, cfg: func(c *Config) {
			c.Levels = []storage.Backend{c.Levels[0], storage.NewMemFS("peer", 0), c.Levels[1]}
			c.Peer = PeerConfig{Tier: 1, Owns: func(string) bool { return false }}
		}, prep: func(_ *testing.T, r *scanRig, e *fileEntry) {
			r.m.health.forceDown(1) // reads of what a sibling owns reach the source only past a dead peer tier
			e.markUnplaceable()
		}, state: stateUnplaceable},
		{name: "FullFileFetch == false", capacity: 1, cfg: func(c *Config) { c.FullFileFetch = false }, drain: true, state: stateUnplaceable},
		{name: "ChunkSize > 0", capacity: 1, cfg: func(c *Config) { c.ChunkSize = scanWindow }, drain: true, state: stateUnplaceable},
	} {
		t.Run("never/"+tc.name, func(t *testing.T) {
			r := newShardRig(t, aheadFiles(1, mib), tc.capacity, tc.cfg)
			e, _ := r.m.meta.get(name)
			if tc.prep != nil {
				tc.prep(t, r, e)
			}
			for pass := 0; pass < 3; pass++ {
				for off := int64(0); off < mib; off += scanWindow {
					r.readFile(t, name, false, off, scanWindow)
				}
				if tc.drain {
					r.pool.drain()
				}
			}
			if st := r.m.Stats(); st.ReadAheads != 0 || e.currentState() != tc.state {
				t.Errorf("%d read-aheads of a file in state %d; want none, in state %d", st.ReadAheads, e.currentState(), tc.state)
			}
			idleHolder(t, e, "after three scans")
		})
	}

	for _, fault := range []string{"fails", "comes back short"} {
		t.Run("a fill that "+fault, func(t *testing.T) {
			var src *fillFaults
			r := newAheadRig(t, 1, mib, func(c *Config) {
				src = &fillFaults{Backend: c.Levels[1]}
				src.fail.Store(fault == "fails") // the cold pass's fill too: its range read answered
				src.short.Store(fault != "fails")
				c.Levels[1] = src
			})
			e, _ := r.m.meta.get(name)
			r.readFile(t, name, false, scanWindow, scanWindow) // arms; the range read answers
			if st := r.m.Stats(); st.ReadAheads != 0 || st.ReadAheadBytes != 0 || st.PartialHits != 0 || st.ReadsServed[1] != 2 {
				t.Errorf("a fill that %s was counted: %+v", fault, st)
			}
			idleHolder(t, e, "after the failed fill")
			src.fail.Store(false)
			src.short.Store(false)
			before := r.ops()
			r.readFile(t, name, false, 2*scanWindow, scanWindow) // adjacent still: arms again
			r.readFile(t, name, false, 3*scanWindow, scanWindow)
			if ops, st := r.ops()-before, r.m.Stats(); ops != 1 || st.ReadAheads != 1 || st.ReadAheadBytes != 2*scanWindow || st.PartialHits != 1 {
				t.Errorf("after the source recovered: %d ops for two reads, %+v; want the one fill and a hit behind it", ops, st)
			}
		})
	}

	t.Run("live-buffer cap", func(t *testing.T) {
		r := newAheadRig(t, maxAhead+1, mib, nil)
		for i := 0; i <= maxAhead; i++ {
			r.readFile(t, aheadName(i), false, scanWindow, scanWindow)
		}
		for i := 0; i <= maxAhead; i++ {
			e, _ := r.m.meta.get(aheadName(i))
			if live := e.fetch.Load() != nil; live != (i > 0) {
				t.Errorf("after %d fills, %s buffer published: %v; want only the oldest released", maxAhead+1, aheadName(i), live)
			}
		}
		before := r.ops()
		for off := int64(2 * scanWindow); off < mib; off += scanWindow {
			r.readFile(t, aheadName(0), false, off, scanWindow) // range reads, the right bytes
			r.readFile(t, aheadName(1), false, off, scanWindow) // its buffer
		}
		if ops, st := r.ops()-before, r.m.Stats(); ops != 2 || st.ReadAheads != maxAhead+1 {
			t.Errorf("the displaced run's two reads cost %d ops, %d read-aheads in all; want 2 and %d: no refill", ops, st.ReadAheads, maxAhead+1)
		}
		// The next pass finds both streamed, and arms both at offset 0.
		r.readFile(t, aheadName(0), false, 0, scanWindow)
		r.readFile(t, aheadName(1), false, 0, scanWindow)
		if st := r.m.Stats(); st.ReadAheads != maxAhead+3 {
			t.Errorf("%d read-aheads after the next pass began, want %d", st.ReadAheads, maxAhead+3)
		}
	})
}

// TestReadAheadSinkParity is the read-ahead route through both sinks, on
// twin fixtures: a file's arming reads — the cold pass's first, then an
// unplaceable file's — and the reads behind them — in range, across EOF,
// wider than the file — are served from one fill a pass, byte for byte
// what the source holds, and ReadAt and ReadView leave the same Stats,
// registry and spans. Reads that are empty or start at EOF go to
// the source.
func TestReadAheadSinkParity(t *testing.T) {
	const size = 1 << 20
	name := aheadName(0)
	type outcome struct {
		stats Stats
		views int64
		vars  map[string]float64
		spans []string
	}
	run := func(view bool) outcome {
		r := newAheadRig(t, 1, size, nil)
		e, _ := r.m.meta.get(name)
		for _, rd := range [][2]int64{
			{scanWindow, scanWindow},     // a hit: the cold pass's first read filled the file
			{2 * scanWindow, scanWindow}, // a hit
			{size - 100, scanWindow},     // across EOF: a hit, and the last byte
			{size, scanWindow},           // at EOF: the source answers
			{scanWindow, 0},              // empty: the source answers
			{5, size + 10},               // wider than the file, nothing armed: a range read
			{0, scanWindow},              // a new pass, the last not a clean stream
			{scanWindow, scanWindow},     // arms: [256 KiB, EOF) in one op
			{2 * scanWindow, scanWindow}, // a hit
			{3 * scanWindow, scanWindow}, // a hit, the last byte: streamed
			{0, scanWindow},              // arms at once: the whole file in one op
			{5, size + 10},               // wider than the file: a hit, and the last byte
		} {
			r.readFile(t, name, view, rd[0], rd[1])
		}
		idleHolder(t, e, fmt.Sprintf("view=%v: after the last byte", view))
		out := outcome{stats: r.m.Stats(), vars: registryVars(t, r.m.Registry())}
		if ops := r.ops(); ops != 7 {
			t.Errorf("view=%v: the source saw %d data ops, want 7: three fills, four range reads", view, ops)
		}
		out.views = out.stats.ViewsLent + out.stats.ViewsCopied
		// Lent: the two arming reads and the six hits; copied: what the
		// source answered.
		if view && (out.stats.ViewsLent != 8 || out.stats.ViewsCopied != 4) {
			t.Errorf("ReadView: %d lent, %d copied; want 8 and 4", out.stats.ViewsLent, out.stats.ViewsCopied)
		}
		out.stats.ViewsLent, out.stats.ViewsCopied = 0, 0
		for k := range out.vars {
			if strings.Contains(k, "_seconds_sum") || strings.HasPrefix(k, "monarch_uptime_seconds") ||
				strings.HasPrefix(k, "monarch_view_reads_total") {
				delete(out.vars, k)
			}
		}
		for _, s := range r.spans {
			out.spans = append(out.spans, fmt.Sprintf("%v %s tier=%d off=%d flags=%v bytes=%d err=%q",
				s.Kind, s.File, s.Tier, s.Off, s.Flags, s.Bytes, errString(s.Err)))
		}
		return out
	}
	cp, vw := run(false), run(true)
	if cp.views != 0 || vw.views != 12 {
		t.Errorf("views lent + copied: ReadAt %d, ReadView %d; want 0 and the 12 served", cp.views, vw.views)
	}
	if s := cp.stats; s.ReadAheads != 3 || s.ReadAheadBytes != 3*scanWindow+2*size || s.PartialHits != 6 ||
		s.PartialHitBytes != 4*scanWindow+100+size-5 || s.ReadsServed[1] != 13 || s.ReadsServed[0] != 0 {
		t.Errorf("ReadAt did not exercise the route: %+v", s)
	}
	if !reflect.DeepEqual(cp.stats, vw.stats) {
		t.Errorf("Stats differ:\n ReadAt   %+v\n ReadView %+v", cp.stats, vw.stats)
	}
	for k, v := range cp.vars {
		if vw.vars[k] != v {
			t.Errorf("registry %s: ReadAt %v, ReadView %v", k, v, vw.vars[k])
		}
	}
	if cp.vars["monarch_read_aheads_total"] != 3 || cp.vars["monarch_read_ahead_bytes_total"] != 3*scanWindow+2*size {
		t.Errorf("registry: %v read-aheads, %v bytes; want Stats' 3 and %d", cp.vars["monarch_read_aheads_total"], cp.vars["monarch_read_ahead_bytes_total"], 3*scanWindow+2*size)
	}
	if !reflect.DeepEqual(cp.spans, vw.spans) {
		t.Errorf("spans differ:\n ReadAt   %q\n ReadView %q", cp.spans, vw.spans)
	}
}

// outstanding is the bufpool buffers handed out and not yet returned.
func outstanding() int64 {
	s := bufpool.Snapshot()
	return s.Gets - s.Puts - s.Discards
}

// TestReadAheadViewOutlivesBuffer holds lent views of read-ahead buffers
// across everything that releases one — the last byte, the cap, a
// promotion's disarm — and across readers and promotions racing on the
// same files: a view's bytes are the file's until its own Release, which
// is when the pooled buffer goes back (bufpool poisons it there under
// -tags debug), and every buffer does go back.
func TestReadAheadViewOutlivesBuffer(t *testing.T) {
	const size = 1 << 20
	ctx := context.Background()
	base := outstanding()
	// A held view, and the bytes it must show until its Release.
	type held struct {
		v    storage.View
		want []byte
	}
	hold := func(r *scanRig, name string, off int64) held {
		t.Helper()
		v, err := r.m.ReadView(ctx, name, off, scanWindow)
		if err != nil {
			t.Error(err)
		}
		want := make([]byte, scanWindow)
		n, _ := r.oracle.ReadAt(ctx, name, want, off)
		return held{v, want[:n]}
	}
	check := func(when string, hs ...held) {
		t.Helper()
		for i, h := range hs {
			if !bytes.Equal(h.v.Data, h.want) {
				t.Errorf("%s: held view %d no longer shows the file's bytes", when, i)
			}
		}
	}

	t.Run("last byte", func(t *testing.T) {
		r := newAheadRig(t, 1, size, nil)
		e, _ := r.m.meta.get(aheadName(0))
		hs := []held{hold(r, aheadName(0), scanWindow), hold(r, aheadName(0), 2*scanWindow), hold(r, aheadName(0), 3*scanWindow)}
		if e.fetch.Load() != nil || e.ahead.refs.Load() != 3 {
			t.Fatalf("after the last byte: published %v, %d references; want unpublished and the three views'", e.fetch.Load() != nil, e.ahead.refs.Load())
		}
		// The next pass cannot refill a holder views still pin: range reads.
		before := r.ops()
		for off := int64(0); off < size; off += scanWindow {
			r.readFile(t, aheadName(0), true, off, scanWindow)
		}
		if ops, fills := r.ops()-before, r.m.Stats().ReadAheads; ops != 4 || fills != 1 {
			t.Errorf("a pass under held views: %d ops, %d read-aheads; want 4 range reads and the one fill before", ops, fills)
		}
		check("after a pass of range reads", hs...)
		for _, h := range hs {
			h.v.Release()
		}
		idleHolder(t, e, "views released")
	})

	t.Run("cap", func(t *testing.T) {
		// Each file's first read at 0 is its fill, and the view held of it.
		r := newShardRig(t, aheadFiles(maxAhead+1, size), 1, nil)
		var hs []held
		for i := 0; i <= maxAhead; i++ {
			hs = append(hs, hold(r, aheadName(i), 0))
		}
		e, _ := r.m.meta.get(aheadName(0))
		if e.fetch.Load() != nil || e.ahead.refs.Load() != 1 {
			t.Fatalf("the oldest of %d: published %v, %d references; want displaced, its view's one", maxAhead+1, e.fetch.Load() != nil, e.ahead.refs.Load())
		}
		check("after the cap displaced the oldest", hs...)
		for _, h := range hs {
			h.v.Release()
		}
		idleHolder(t, e, "views released")
		for i := 1; i <= maxAhead; i++ {
			r.readFile(t, aheadName(i), true, size-scanWindow, scanWindow) // last bytes: the rest go back
		}
	})

	t.Run("disarm", func(t *testing.T) {
		// Under LRU an access is a claim to residence: the arming read
		// itself promotes the file, and the promotion disarms it.
		r := newAheadRig(t, 1, size, func(c *Config) { c.Eviction = NewLRU() })
		e, _ := r.m.meta.get(aheadName(0))
		h := hold(r, aheadName(0), scanWindow)
		if st := r.m.Stats(); st.ReadAheads != 1 || st.Promotions != 1 || e.currentState() != stateQueued || e.fetch.Load() != nil || e.ahead.refs.Load() != 1 {
			t.Fatalf("after the arming read: %+v, state %d, published %v, %d references", st, e.currentState(), e.fetch.Load() != nil, e.ahead.refs.Load())
		}
		r.pool.drain()
		check("after the promotion settled", h)
		h.v.Release()
		idleHolder(t, e, "view released")
	})

	t.Run("racing readers and promotions", func(t *testing.T) {
		const nfiles, readers, passes = 3, 4, 6
		gp := pool.NewGoPool(2)
		r := newShardRig(t, aheadFiles(nfiles, size), 1, func(c *Config) { c.Pool, c.Trace = gp, nil })
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() { // what a tier recovery does, over and over
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.m.meta.resetForReplacement()
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
		var rd sync.WaitGroup
		for g := 0; g < readers; g++ {
			rd.Add(1)
			go func() {
				defer rd.Done()
				var prev held
				for p := 0; p < passes; p++ {
					name := aheadName((g + p) % nfiles)
					for off := int64(0); off < size; off += scanWindow {
						h := hold(r, name, off)
						check("a view held across the next read", prev, h)
						prev.v.Release()
						prev = h
					}
				}
				prev.v.Release()
			}()
		}
		rd.Wait()
		close(stop)
		wg.Wait()
		waitIdleM(t, r.m)
		for i := 0; i < nfiles; i++ {
			e, _ := r.m.meta.get(aheadName(i))
			if f := e.fetch.Load(); f != nil {
				e.unpublish(f) // a fill that landed behind its run's last reader
			}
			idleHolder(t, e, "quiesced")
		}
	})

	if n := outstanding(); n != base {
		t.Errorf("bufpool: %d buffers out, %d before the test: Gets != Puts + Discards", n, base)
	}
}

// TestReadAheadUnderSimPool runs read-ahead where nothing may wait on
// another goroutine: simulation processes over simstore devices, the pool
// a SimPool, a tier 0 nothing fits. Files under the size rule, streamed
// by concurrent processes for three epochs, must finish without the
// scheduler's deadlock report, cost the source one op a file from the
// second epoch on, the fill charged to the reader's own process.
func TestReadAheadUnderSimPool(t *testing.T) {
	const nfiles, nreaders, window, epochs = 8, 4, 256 << 10, 3
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
		Levels:        []storage.Backend{simstore.NewStore(simstore.NewDevice(env, simstore.SSDSpec()), "ssd", 1), pfs},
		Pool:          pool.NewSimPool(env, "placer", 2),
		FullFileFetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var opsAfter [epochs]int64
	var armed, hit sim.Time // what reader-0 spent on an arming read, and on a read behind it
	env.Go("job", func(p *sim.Proc) {
		if err := m.Init(p.Context()); err != nil {
			t.Error(err)
			return
		}
		for epoch := 0; epoch < epochs; epoch++ {
			var readers []*sim.Proc
			for r := 0; r < nreaders; r++ {
				readers = append(readers, env.Go(fmt.Sprintf("reader-%d", r), func(p *sim.Proc) {
					buf := make([]byte, window)
					for i := r; i < nfiles; i += nreaders {
						for off := int64(0); off < sizes[i]; off += window {
							start := env.Now()
							if n, err := m.ReadAt(p.Context(), fileName(i), buf, off); err != nil || int64(n) != min(window, sizes[i]-off) {
								t.Errorf("%s: read %s at %d = %d, %v", p.Name(), fileName(i), off, n, err)
							}
							switch {
							case epoch == 1 && i == 0 && off == 0:
								armed = env.Now() - start
							case epoch == 1 && i == 0 && off == window:
								hit = env.Now() - start
							}
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
			opsAfter[epoch] = pfs.Counts().DataOps()
		}
		m.Close()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.PlacementSkips != nfiles || st.Placements != 0 {
		t.Fatalf("%d placements, %d skips; want every one of %d files unplaceable", st.Placements, st.PlacementSkips, nfiles)
	}
	if first := opsAfter[0]; first > 3*nfiles {
		t.Errorf("epoch 1 cost the source %d data ops, want at most 3 a file (%d)", first, 3*nfiles)
	}
	for epoch := 1; epoch < epochs; epoch++ {
		if ops := opsAfter[epoch] - opsAfter[epoch-1]; ops != nfiles {
			t.Errorf("epoch %d cost the source %d data ops, want one a file (%d)", epoch+1, ops, nfiles)
		}
	}
	if armed <= hit || hit != 0 {
		t.Errorf("reader-0's arming read took %v of virtual time and the read behind it %v; want the fill charged to the first and nothing to the second",
			armed.Duration(), hit.Duration())
	}
}

// simLatency is a source whose reads take virtual time, so simulated
// readers and placements interleave over bytes a test can check.
type simLatency struct{ storage.Backend }

func (s simLatency) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	sim.MustProc(ctx).Sleep(time.Millisecond)
	return s.Backend.ReadAt(ctx, name, p, off)
}

func (s simLatency) ReadFile(ctx context.Context, name string) ([]byte, error) {
	sim.MustProc(ctx).Sleep(time.Millisecond)
	return s.Backend.ReadFile(ctx, name)
}

// TestColdPassOneSourceOpPerFile is the cold epoch of a dataset twice the
// tier: 8 files of 1 MiB, room for 4, two readers streaming disjoint
// halves in 256 KiB reads, the placements on a GoPool or a SimPool,
// through either sink. Each file's first read — a fetch-through while a
// tier has room, the pass's read-ahead once none has — is its only source
// op, and every byte is the source's. The SimPool's one schedule takes
// both: copies land between a reader's files, so the last misses find
// the tier full.
func TestColdPassOneSourceOpPerFile(t *testing.T) {
	const nfiles, readers, size = 8, 2, 1 << 20
	files := aheadFiles(nfiles, size)
	// scan streams reader g's files to EOF through m.
	scan := func(ctx context.Context, m *Monarch, g int, view bool) {
		buf := make([]byte, scanWindow)
		for i := g; i < nfiles; i += readers {
			name := aheadName(i)
			for off := int64(0); off < size; off += scanWindow {
				var got []byte
				if view {
					v, err := m.ReadView(ctx, name, off, scanWindow)
					if err != nil {
						t.Error(err)
						return
					}
					got = append(buf[:0], v.Data...)
					v.Release()
				} else {
					n, err := m.ReadAt(ctx, name, buf, off)
					if err != nil {
						t.Error(err)
						return
					}
					got = buf[:n]
				}
				if !bytes.Equal(got, files[name][off:off+scanWindow]) {
					t.Errorf("%s at %d: %d bytes that differ from the source's", name, off, len(got))
				}
			}
		}
	}
	check := func(t *testing.T, r *scanRig) Stats {
		t.Helper()
		st := r.m.Stats()
		if ops := r.ops(); ops != nfiles || st.Placements+st.PlacementSkips != nfiles || st.Placements == 0 || st.PlacementSkips == 0 {
			t.Errorf("the cold pass cost the source %d data ops, %d files placed and %d skipped; want one op a file (%d), some of each",
				ops, st.Placements, st.PlacementSkips, nfiles)
		}
		return st
	}
	for _, view := range []bool{false, true} {
		t.Run(fmt.Sprintf("GoPool/view=%v", view), func(t *testing.T) {
			r := newShardRig(t, files, nfiles/2*size, func(c *Config) { c.Pool, c.Trace = pool.NewGoPool(2), nil })
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					scan(context.Background(), r.m, g, view)
				}()
			}
			wg.Wait()
			waitIdleM(t, r.m)
			check(t, r)
		})
		t.Run(fmt.Sprintf("SimPool/view=%v", view), func(t *testing.T) {
			env := sim.NewEnv(1)
			defer env.Close()
			r := newShardRig(t, files, nfiles/2*size, func(c *Config) {
				c.Levels[1] = simLatency{c.Levels[1]}
				c.Pool, c.Trace = pool.NewSimPool(env, "placer", 2), nil
			})
			env.Go("job", func(p *sim.Proc) {
				var procs []*sim.Proc
				for g := 0; g < readers; g++ {
					procs = append(procs, env.Go(fmt.Sprintf("reader-%d", g), func(p *sim.Proc) { scan(p.Context(), r.m, g, view) }))
				}
				for _, q := range procs {
					p.Join(q)
				}
				for !r.m.Idle() {
					p.Sleep(time.Millisecond)
				}
				r.m.Close()
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			if st := check(t, r); st.FetchThroughs == 0 || st.ReadAheads == 0 {
				t.Errorf("%d fetch-throughs, %d read-aheads; want some of each", st.FetchThroughs, st.ReadAheads)
			}
		})
	}
}

// TestKeptFetchThroughEndsWithItsPass holds every attempt on the rig's
// pool until a scan over more than maxAhead files has gone past them:
// files that each fit the tier alone, so that every first miss is a
// fetch-through for room no copy has taken yet, and files no tier could
// take, which read ahead. When the copies run, one is placed and the
// rest find the room gone; the buffers those keep end like any fill — in
// the ring, so at most maxAhead stay published, and with their pass,
// at settle if it is already over — and bufpool balances once every view
// is released.
func TestKeptFetchThroughEndsWithItsPass(t *testing.T) {
	const n, size, window = 2 * (maxAhead + 2), 64 << 10, 16 << 10
	ctx := context.Background()
	files := aheadFiles(n, size)
	for i := 1; i < n; i += 2 {
		files[aheadName(i)] = append(files[aheadName(i)], files[aheadName(i-1)]...) // twice the tier: never fits
	}
	for _, tc := range []struct {
		name      string
		settledAt int64 // how far each file's pass gets before the copies run
	}{
		{"mid-pass", 2 * window},
		{"after the pass", 2 * size},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := outstanding()
			r := newShardRig(t, files, size, nil)
			published := func() (k int) {
				for i := 0; i < n; i++ {
					if e, _ := r.m.meta.get(aheadName(i)); e.fetch.Load() != nil {
						k++
					}
				}
				return k
			}
			var views []storage.View
			scan := func(name string, from, to int64) {
				for off := from; off < min(to, int64(len(files[name]))); off += window {
					if off != window {
						r.readFile(t, name, true, off, window)
						continue
					}
					v, err := r.m.ReadView(ctx, name, off, window)
					if err != nil {
						t.Fatal(err)
					}
					views = append(views, v)
				}
			}
			for i := 0; i < n; i++ {
				scan(aheadName(i), 0, tc.settledAt)
			}
			r.pool.drain()
			st := r.m.Stats()
			if st.FetchThroughs != n/2 || st.Placements != 1 || st.PlacementSkips != n-1 {
				t.Fatalf("the scan did not set the test up: %+v", st)
			}
			want := maxAhead
			if tc.settledAt >= 2*size {
				want = 0
			}
			if k := published(); k != want {
				t.Errorf("%d buffers published once the copies settled; want %d", k, want)
			}
			for i := 0; i < n; i++ {
				scan(aheadName(i), tc.settledAt, 2*size)
			}
			if k := published(); k != 0 {
				t.Errorf("%d buffers still published after every pass ended", k)
			}
			for i, v := range views {
				if name := aheadName(i); !bytes.Equal(v.Data, files[name][window:2*window]) {
					t.Errorf("the view held of %s no longer shows the file's bytes", name)
				}
				v.Release()
			}
			if k := outstanding(); k != base {
				t.Errorf("bufpool: %d buffers out, %d before the test: Gets != Puts + Discards", k, base)
			}
		})
	}
}
