package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// manualPool is a pool.Executor that queues tasks until drain runs them
// on the caller's goroutine, so a parity run has exactly one schedule.
type manualPool struct {
	q      []pool.Task
	closed bool
}

func (p *manualPool) Submit(t pool.Task) bool {
	if p.closed {
		return false
	}
	p.q = append(p.q, t)
	return true
}
func (p *manualPool) Pending() int { return len(p.q) }
func (p *manualPool) Workers() int { return 1 }
func (p *manualPool) Close()       { p.closed = true }
func (p *manualPool) Shutdown()    { p.closed = true }

func (p *manualPool) drain() {
	for len(p.q) > 0 {
		t := p.q[0]
		p.q = p.q[1:]
		t(context.Background())
	}
}

// flakyViews is a view-lending tier whose reads — by copy and by view
// alike — fail once fail is set (with one error value, so twin runs
// produce identical events), come back with half the bytes while short
// is set, and whose next read first runs onRead: the hook is how a test
// lands background work exactly between the read plan's resolve and its
// tier attempt. With refuse set, the next view is refused
// (ErrUnsupported) before anything else happens.
type flakyViews struct {
	*storage.MemFS
	fail, short, refuse atomic.Bool
	onRead              func()
}

func (f *flakyViews) before() error {
	if hook := f.onRead; hook != nil {
		f.onRead = nil
		hook()
	}
	if f.fail.Load() {
		return storage.ErrInjected
	}
	return nil
}

func (f *flakyViews) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if err := f.before(); err != nil {
		return 0, err
	}
	if f.short.Load() {
		p = p[:len(p)/2]
	}
	return f.MemFS.ReadAt(ctx, name, p, off)
}

func (f *flakyViews) ReadView(ctx context.Context, name string, off, n int64) (storage.View, error) {
	if f.refuse.Swap(false) {
		return storage.View{}, errors.ErrUnsupported
	}
	if err := f.before(); err != nil {
		return storage.View{}, err
	}
	if f.short.Load() {
		n /= 2
	}
	return f.MemFS.ReadView(ctx, name, off, n)
}

// hedgingPeer stands in for a peernet.Tier that reports a hedged serve
// through the read annotation.
type hedgingPeer struct {
	*storage.MemFS
	hedge bool
}

func (h *hedgingPeer) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if h.hedge {
		obs.ReadAnnotationFrom(ctx).Annotate(obs.FlagHedged)
	}
	return h.MemFS.ReadAt(ctx, name, p, off)
}

// parityRig is one of the twin stacks of TestReadPlanRouteSinkParity:
// [ssd, peer, pfs] with every op counted, a deterministic pool, and
// every span and event recorded.
type parityRig struct {
	m     *Monarch
	pool  *manualPool
	ssd   *flakyViews
	peer  *hedgingPeer
	tier0 *storage.Counting
	pfs   *storage.Counting
	log   *EventLog
	spans []obs.Span
}

const parityFileSize = 64

func parityContent(name string) []byte {
	return bytes.Repeat([]byte(name[len(name)-1:]), parityFileSize)
}

func newParityRig(t *testing.T, init bool) *parityRig {
	t.Helper()
	ctx := context.Background()
	pfs := storage.NewMemFS("lustre", 0)
	for _, name := range []string{"own/a", "remote/hit", "remote/miss"} {
		if err := pfs.WriteFile(ctx, name, parityContent(name)); err != nil {
			t.Fatal(err)
		}
	}
	pfs.SetReadOnly(true)
	peer := storage.NewMemFS("peers", 0)
	if err := peer.WriteFile(ctx, "remote/hit", parityContent("remote/hit")); err != nil {
		t.Fatal(err)
	}
	peer.SetReadOnly(true)
	r := &parityRig{
		pool: &manualPool{},
		ssd:  &flakyViews{MemFS: storage.NewMemFS("ssd", 0)},
		peer: &hedgingPeer{MemFS: peer},
		pfs:  storage.NewCounting(pfs),
		log:  NewEventLog(256),
	}
	r.tier0 = storage.NewCounting(r.ssd)
	m, err := New(Config{
		Levels:        []storage.Backend{r.tier0, r.peer, r.pfs},
		Pool:          r.pool,
		FullFileFetch: true,
		ChunkSize:     parityFileSize / 4,
		Eviction:      NewLRU(),
		JobOf:         JobFromPath,
		Events:        r.log,
		Trace:         func(s obs.Span) { r.spans = append(r.spans, s) },
		Peer: PeerConfig{
			Tier: 1,
			Owns: func(name string) bool { return !strings.HasPrefix(name, "remote/") },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if init {
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}
	}
	r.m = m
	return r
}

// place reads own/a in full and drains the pool, leaving it placed on
// tier 0.
func (r *parityRig) place(t *testing.T) {
	t.Helper()
	if _, err := r.m.ReadAt(context.Background(), "own/a", make([]byte, parityFileSize), 0); err != nil {
		t.Fatal(err)
	}
	r.pool.drain()
	if lvl, err := r.m.LevelOf("own/a"); err != nil || lvl != 0 {
		t.Fatalf("own/a at level %d (err=%v), want placed on 0", lvl, err)
	}
}

// evict runs the placement handler's eviction of own/a off tier 0.
func (r *parityRig) evict(t *testing.T) {
	t.Helper()
	if freed, err := r.m.placer.evict(context.Background(), r.m.levels[0], "own/a"); !freed || err != nil {
		t.Errorf("evict own/a: freed=%v err=%v", freed, err)
	}
}

// parityOutcome is everything the plan must make identical across the
// two sinks — and lent/copied, the one pair it must not: only ReadView
// counts how a view got its bytes, so run moves the pair out of stats
// and vars.
type parityOutcome struct {
	data      []byte
	err       string
	stats     Stats
	lent      int64
	copied    int64
	vars      map[string]float64
	spans     []string
	events    []string
	tierReads int64 // tier-0 read attempts the read under test made
	pfsReads  int64 // source reads it made
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestReadPlanRouteSinkParity runs every route and every recovery of the
// read plan once through each sink, on twin fixtures, and requires the
// two to be indistinguishable from outside: same bytes, same Stats, same
// registry (latency sums aside), same span sequence, same event log —
// and the same backend traffic, which pins one first attempt plus at
// most one source re-serve for both entry points.
func TestReadPlanRouteSinkParity(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		noInit bool
		prime  func(t *testing.T, r *parityRig)
		file   string
		n      int // bytes to read at offset 0; 0 = the whole file
		// What the read under test must have done, so that parity is not
		// vacuous: tier-0 attempts, source reads, and a Stats probe.
		tierReads, pfsReads int64
		check               func(s Stats) bool
		// lent: ReadView's bytes are the tier's own. Every other served
		// view is a copy.
		lent bool
	}{
		{
			name:  "local placed",
			prime: func(t *testing.T, r *parityRig) { r.place(t) },
			file:  "own/a", tierReads: 1, lent: true,
			check: func(s Stats) bool { return s.ReadsServed[0] == 1 },
		},
		{
			name: "local placed, view refused",
			prime: func(t *testing.T, r *parityRig) {
				r.place(t)
				r.ssd.refuse.Store(true)
			},
			file: "own/a", tierReads: 1,
			check: func(s Stats) bool { return s.ReadsServed[0] == 1 && s.Fallbacks == 0 },
		},
		{
			name: "mid-copy partial hit",
			prime: func(t *testing.T, r *parityRig) {
				// A chunked placement frozen after chunk 0 of 4.
				e, _ := r.m.meta.get("own/a")
				if !e.tryQueue() {
					t.Fatal("own/a not queueable")
				}
				if err := r.ssd.Allocate(ctx, "own/a", parityFileSize); err != nil {
					t.Fatal(err)
				}
				e.arm(0)
				if _, err := r.ssd.WriteAt(ctx, "own/a", parityContent("own/a")[:parityFileSize/4], 0); err != nil {
					t.Fatal(err)
				}
				e.advance(parityFileSize / 4)
			},
			file: "own/a", n: parityFileSize / 4, tierReads: 1,
			check: func(s Stats) bool { return s.PartialHits == 1 && s.ReadsServed[0] == 1 },
		},
		{
			name: "peer hit",
			file: "remote/hit",
			check: func(s Stats) bool {
				return s.PeerHits == 1 && s.PeerHedges == 0 && s.ReadsServed[1] == 1
			},
		},
		{
			name:  "peer hedged hit",
			prime: func(t *testing.T, r *parityRig) { r.peer.hedge = true },
			file:  "remote/hit",
			check: func(s Stats) bool { return s.PeerHits == 1 && s.PeerHedges == 1 },
		},
		{
			name: "peer miss",
			file: "remote/miss", pfsReads: 1,
			check: func(s Stats) bool { return s.PeerMisses == 1 && s.Fallbacks == 0 && s.ReadsServed[2] == 1 },
		},
		{
			name: "eviction race",
			prime: func(t *testing.T, r *parityRig) {
				// The whole eviction lands between the reader's resolve and
				// its tier attempt: the route says placed, the copy is gone.
				r.place(t)
				r.ssd.onRead = func() { r.evict(t) }
			},
			file: "own/a", tierReads: 1, pfsReads: 1,
			check: func(s Stats) bool {
				return s.Evictions == 1 && s.EvictionRaces == 1 && s.Fallbacks == 0 && s.ReadsServed[2] == 2
			},
		},
		{
			name: "eviction and re-placement race",
			prime: func(t *testing.T, r *parityRig) {
				// As above, and a chunked re-placement has already allocated
				// its fresh, still empty copy: the tier attempt succeeds, and
				// what it read must never reach the caller.
				r.place(t)
				r.ssd.onRead = func() {
					r.evict(t)
					e, _ := r.m.meta.get("own/a")
					if !e.tryQueue() {
						t.Error("evicted own/a not re-queueable")
					}
					if err := r.ssd.Allocate(ctx, "own/a", parityFileSize); err != nil {
						t.Error(err)
					}
					e.arm(0)
				}
			},
			file: "own/a", tierReads: 1, pfsReads: 1,
			check: func(s Stats) bool { return s.EvictionRaces == 1 && s.Fallbacks == 0 && s.ReadsServed[2] == 2 },
		},
		{
			name: "tier failure → fallback",
			prime: func(t *testing.T, r *parityRig) {
				r.place(t)
				r.ssd.fail.Store(true)
			},
			file: "own/a", tierReads: 1, pfsReads: 1,
			check: func(s Stats) bool { return s.Fallbacks == 1 && s.EvictionRaces == 0 && s.ReadsServed[2] == 2 },
		},
		{
			name: "short tier read → fallback",
			prime: func(t *testing.T, r *parityRig) {
				r.place(t)
				r.ssd.short.Store(true)
			},
			file: "own/a", tierReads: 1, pfsReads: 1,
			check: func(s Stats) bool { return s.Fallbacks == 1 && s.ReadsServed[0] == 0 && s.ReadsServed[2] == 2 },
		},
		{
			name: "breaker-down demotion",
			prime: func(t *testing.T, r *parityRig) {
				r.place(t)
				r.m.ForceTierDown(0, errors.New("operator: tier pulled"))
			},
			file: "own/a", pfsReads: 1,
			check: func(s Stats) bool { return s.Demotions == 1 && s.Fallbacks == 0 && s.ReadsServed[2] == 2 },
		},
		{
			name: "plain source",
			file: "own/a", pfsReads: 1,
			check: func(s Stats) bool { return s.ReadsServed[2] == 1 && s.Placements == 1 && s.FullReadReuses == 1 },
		},
		{
			name:  "unknown file",
			file:  "ghost",
			check: func(s Stats) bool { return sum64(s.ReadsServed) == 0 },
		},
		{
			name:   "read before Init",
			noInit: true,
			file:   "own/a",
			check:  func(s Stats) bool { return sum64(s.ReadsServed) == 0 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.n
			if n == 0 {
				n = parityFileSize
			}
			run := func(view bool) parityOutcome {
				r := newParityRig(t, !tc.noInit)
				if tc.prime != nil {
					tc.prime(t, r)
				}
				tier0, pfs := r.tier0.Counts().Ops[storage.OpRead], r.pfs.Counts().Ops[storage.OpRead]
				var out parityOutcome
				if view {
					v, err := r.m.ReadView(ctx, tc.file, 0, int64(n))
					out.data, out.err = append([]byte(nil), v.Data...), errString(err)
					v.Release()
				} else {
					buf := make([]byte, n)
					got, err := r.m.ReadAt(ctx, tc.file, buf, 0)
					out.data, out.err = buf[:got], errString(err)
				}
				out.tierReads = r.tier0.Counts().Ops[storage.OpRead] - tier0
				out.pfsReads = r.pfs.Counts().Ops[storage.OpRead] - pfs
				r.pool.drain()
				out.stats = r.m.Stats()
				out.lent, out.copied = out.stats.ViewsLent, out.stats.ViewsCopied
				out.stats.ViewsLent, out.stats.ViewsCopied = 0, 0
				out.vars = registryVars(t, r.m.Registry())
				for k := range out.vars {
					if strings.Contains(k, "_seconds_sum") || strings.HasPrefix(k, "monarch_uptime_seconds") ||
						strings.HasPrefix(k, "monarch_view_reads_total") {
						delete(out.vars, k)
					}
				}
				for _, s := range r.spans {
					out.spans = append(out.spans, fmt.Sprintf("%v tier=%d flags=%v bytes=%d err=%q",
						s.Kind, s.Tier, s.Flags, s.Bytes, errString(s.Err)))
				}
				for _, e := range r.log.Events() {
					out.events = append(out.events, fmt.Sprintf("%v %s level=%d bytes=%d err=%q",
						e.Kind, e.File, e.Level, e.Bytes, errString(e.Err)))
				}
				return out
			}
			cp, vw := run(false), run(true)

			if !tc.check(cp.stats) {
				t.Errorf("ReadAt did not exercise the case: %+v", cp.stats)
			}
			if cp.tierReads != tc.tierReads || cp.pfsReads != tc.pfsReads {
				t.Errorf("ReadAt made %d tier-0 and %d source reads, want %d and %d",
					cp.tierReads, cp.pfsReads, tc.tierReads, tc.pfsReads)
			}
			if vw.tierReads != tc.tierReads || vw.pfsReads != tc.pfsReads {
				t.Errorf("ReadView made %d tier-0 and %d source reads, want %d and %d",
					vw.tierReads, vw.pfsReads, tc.tierReads, tc.pfsReads)
			}
			if cp.err != vw.err || !bytes.Equal(cp.data, vw.data) {
				t.Errorf("ReadAt returned %d bytes err=%q, ReadView %d bytes err=%q",
					len(cp.data), cp.err, len(vw.data), vw.err)
			}
			if cp.err == "" && !bytes.Equal(cp.data, parityContent(tc.file)[:n]) {
				t.Errorf("read returned wrong bytes")
			}
			// A served view is lent or copied; a failed read is neither.
			wantLent, wantCopied := int64(0), int64(0)
			switch {
			case vw.err != "":
			case tc.lent:
				wantLent = 1
			default:
				wantCopied = 1
			}
			if cp.lent != 0 || cp.copied != 0 || vw.lent != wantLent || vw.copied != wantCopied {
				t.Errorf("views lent/copied: ReadAt %d/%d, want 0/0; ReadView %d/%d, want %d/%d",
					cp.lent, cp.copied, vw.lent, vw.copied, wantLent, wantCopied)
			}
			if !reflect.DeepEqual(cp.stats, vw.stats) {
				t.Errorf("Stats differ:\n ReadAt   %+v\n ReadView %+v", cp.stats, vw.stats)
			}
			if !reflect.DeepEqual(cp.vars, vw.vars) {
				for k, v := range cp.vars {
					if vw.vars[k] != v {
						t.Errorf("registry %s: ReadAt %v, ReadView %v", k, v, vw.vars[k])
					}
				}
			}
			if !reflect.DeepEqual(cp.spans, vw.spans) {
				t.Errorf("spans differ:\n ReadAt   %q\n ReadView %q", cp.spans, vw.spans)
			}
			if !reflect.DeepEqual(cp.events, vw.events) {
				t.Errorf("events differ:\n ReadAt   %q\n ReadView %q", cp.events, vw.events)
			}
		})
	}
}

// TestViewReadsLentOrCopiedOverOSFS is the lend rule on the real
// backend, read off the counters an operator would watch: a warm epoch
// of dataset files is lent mapped bytes every time, and a file
// registered by Create — whose bytes WriteAt changes in place — is
// copied every time, so a held view of it never sees a later write.
func TestViewReadsLentOrCopiedOverOSFS(t *testing.T) {
	ctx := context.Background()
	ssd := newOSFSTier(t, 0)
	if _, err := ssd.ReadView(ctx, "probe", 0, 1); errors.Is(err, errors.ErrUnsupported) {
		t.Skip("OSFS lends no views on this platform")
	}
	const nfiles, fileSize, window = 4, 1024, 256
	f := newWriteFixture(t, nfiles, func(c *Config) {
		c.Levels[0] = ssd
		c.Write.Durability = backAll
	})
	m := f.m
	buf := make([]byte, fileSize)
	for i := 0; i < nfiles; i++ {
		if _, err := m.ReadAt(ctx, fmt.Sprintf("data/f%03d", i), buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	waitIdleM(t, m)

	views := func(name string, want []byte) {
		t.Helper()
		for off := 0; off < fileSize; off += window {
			v, err := m.ReadView(ctx, name, int64(off), window)
			if err != nil {
				t.Fatal(err)
			}
			ok := bytes.Equal(v.Data, want[off:off+window])
			v.Release()
			if !ok {
				t.Fatalf("ReadView(%s, %d) returned wrong bytes", name, off)
			}
		}
	}
	for i := 0; i < nfiles; i++ {
		views(fmt.Sprintf("data/f%03d", i), bytes.Repeat([]byte{byte(i + 1)}, fileSize))
	}
	warm := m.Stats()
	if warm.ViewsLent != nfiles*fileSize/window || warm.ViewsCopied != 0 {
		t.Fatalf("warm epoch: %d views lent, %d copied; want %d and 0", warm.ViewsLent, warm.ViewsCopied, nfiles*fileSize/window)
	}

	ones, twos := bytes.Repeat([]byte{1}, fileSize), bytes.Repeat([]byte{2}, fileSize)
	if err := m.Create(ctx, "ckpt", fileSize); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(ctx, "ckpt", ones, 0); err != nil {
		t.Fatal(err)
	}
	held, err := m.ReadView(ctx, "ckpt", 0, fileSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(ctx, "ckpt", twos, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held.Data, ones) {
		t.Fatal("a view of a writable file changed under a later WriteAt")
	}
	held.Release()
	views("ckpt", twos)
	st := m.Stats()
	if lent, copied := st.ViewsLent-warm.ViewsLent, st.ViewsCopied; lent != 0 || copied != 1+fileSize/window {
		t.Fatalf("created file: %d views lent, %d copied; want 0 and %d", lent, copied, 1+fileSize/window)
	}
	if st.ReadsServed[0] != nfiles*fileSize/window+1+fileSize/window {
		t.Fatalf("tier 0 served %d reads: the copied views left the local route", st.ReadsServed[0])
	}

	snap := m.Registry().Snapshot()
	for served, want := range map[string]int64{"lent": st.ViewsLent, "copied": st.ViewsCopied} {
		if got, ok := snap.Int("monarch_view_reads_total", obs.L("served", served)); !ok || got != want {
			t.Errorf("monarch_view_reads_total{served=%q} = %d (ok=%v), Stats says %d", served, got, ok, want)
		}
	}
}

// TestReadAtSurvivesTruncatedTierCopy: ReadAt copies a placed file out
// of its tier's mapping, so a tier copy truncated from outside — what a
// dying SSD looks like to a mapping — must cost a fallback, not the
// process. With the table still holding the mapping at the old size the
// copy faults (storage.ErrFault); once the table has re-mapped the
// shorter file the view comes back short (errShortRead). Either way the
// source re-serves the caller's bytes.
func TestReadAtSurvivesTruncatedTierCopy(t *testing.T) {
	const size = 4 * scanWindow
	ssd := newOSFSTier(t, 0)
	if _, err := ssd.ReadView(context.Background(), "probe", 0, 1); errors.Is(err, errors.ErrUnsupported) {
		t.Skip("OSFS lends no views on this platform")
	}
	r := newShardRig(t, map[string][]byte{scanFile: scanContent(size)}, 0, func(c *Config) { c.Levels[0] = ssd })
	r.read(t, false, 0, size)
	r.pool.drain()
	r.read(t, false, 0, scanWindow) // placed: maps the file
	if st := r.m.Stats(); st.ReadsServed[0] != 1 || st.Fallbacks != 0 {
		t.Fatalf("warm read not served by tier 0: %+v", st)
	}
	if err := os.Truncate(filepath.Join(ssd.Root(), filepath.FromSlash(scanFile)), scanWindow); err != nil {
		t.Fatal(err)
	}
	for i, want := range []error{storage.ErrFault, errShortRead} {
		if i == 1 {
			ssd.CloseIdle() // the next view maps the file at its new size
		}
		r.read(t, false, 2*scanWindow, scanWindow)
		st, events := r.m.Stats(), r.log.Events()
		last := events[len(events)-1]
		if st.Fallbacks != int64(i+1) || st.ReadsServed[0] != 1 || st.ReadsServed[1] != int64(i+2) ||
			last.Kind != EventFallback || !errors.Is(last.Err, want) {
			t.Fatalf("read %d: fallbacks=%d served=%v, last event %v %v; want a fallback for %v",
				i, st.Fallbacks, st.ReadsServed, last.Kind, last.Err, want)
		}
	}
}

// viewCounter is a view-lending tier that counts the views asked of it.
type viewCounter struct {
	*storage.MemFS
	views atomic.Int64
}

func (v *viewCounter) ReadView(ctx context.Context, name string, off, n int64) (storage.View, error) {
	v.views.Add(1)
	return v.MemFS.ReadView(ctx, name, off, n)
}

// TestReadAtNeverViewsCreatedFiles: the lend rule holds for ReadAt too —
// a file registered by Create, whose bytes WriteAt changes in place, is
// read from its tier by ReadAt, never through a view; a dataset file on
// the same tier is.
func TestReadAtNeverViewsCreatedFiles(t *testing.T) {
	ctx := context.Background()
	tier := &viewCounter{MemFS: storage.NewMemFS("ssd", 1<<30)}
	f := newWriteFixture(t, 1, func(c *Config) {
		c.Levels[0] = tier
		c.Write.Durability = backAll
	})
	m, buf := f.m, make([]byte, 1024)
	if err := m.Create(ctx, "ckpt", 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{7}, 1024), 0); err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < 1024; off += 256 {
		if n, err := m.ReadAt(ctx, "ckpt", buf[:256], off); err != nil || n != 256 || !bytes.Equal(buf[:n], bytes.Repeat([]byte{7}, 256)) {
			t.Fatalf("ReadAt(ckpt, %d) = %d, %v", off, n, err)
		}
	}
	if st := m.Stats(); st.ReadsServed[0] != 4 || tier.views.Load() != 0 {
		t.Fatalf("created file: %d tier-0 reads, %d views asked; want 4 and 0", st.ReadsServed[0], tier.views.Load())
	}
	if _, err := m.ReadAt(ctx, "data/f000", buf, 0); err != nil {
		t.Fatal(err)
	}
	waitIdleM(t, m)
	if _, err := m.ReadAt(ctx, "data/f000", buf, 0); err != nil {
		t.Fatal(err)
	}
	if n := tier.views.Load(); n != 1 {
		t.Fatalf("a placed dataset file's ReadAt asked %d views, want 1", n)
	}
}

// unmappable is an OSFS tier whose every view is asked of a name the
// kernel will not map — a directory: it opens, but has no mmap — so a
// read pays OSFS's own refusal and falls back to its ReadAt.
type unmappable struct{ *storage.OSFS }

func newUnmappable(t *testing.T) unmappable {
	o := newOSFSTier(t, 0)
	if err := os.Mkdir(filepath.Join(o.Root(), "dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := o.ReadView(context.Background(), "dir", 0, 1); !errors.Is(err, errors.ErrUnsupported) {
		t.Skipf("a directory's view: %v, want a refusal", err)
	}
	return unmappable{o}
}

func (u unmappable) ReadView(ctx context.Context, _ string, off, n int64) (storage.View, error) {
	return u.OSFS.ReadView(ctx, "dir", off, n)
}

// TestWarmReadAtAllocatesNothing: a warm ReadAt copies out of an OSFS
// tier's mapping without an allocation, and over a tier that lends no
// views — a counted one, an OSFS the kernel will not map for — the
// refusal it pays first allocates nothing either, nor counts an op: one
// ReadAt is one tier read.
func TestWarmReadAtAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	for name, tier := range map[string]storage.Backend{
		"osfs":                  newOSFSTier(t, 0),
		"osfs-unmappable":       newUnmappable(t),
		"counting-faulty-memfs": storage.NewCounting(storage.NewFaulty(storage.NewMemFS("ssd", 0))),
	} {
		t.Run(name, func(t *testing.T) {
			r := newShardRig(t, map[string][]byte{scanFile: scanContent(scanWindow)}, 0, func(c *Config) { c.Levels[0] = tier })
			r.read(t, false, 0, scanWindow)
			r.pool.drain()
			buf := make([]byte, scanWindow/4)
			allocs := testing.AllocsPerRun(100, func() {
				if n, err := r.m.ReadAt(ctx, scanFile, buf, scanWindow/4); err != nil || n != len(buf) {
					t.Fatalf("ReadAt = %d, %v", n, err)
				}
			})
			if allocs != 0 {
				t.Errorf("a warm ReadAt allocates %.1f times, want 0", allocs)
			}
			st := r.m.Stats()
			if st.ReadsServed[0] != 101 {
				t.Errorf("tier 0 served %d reads, want 101", st.ReadsServed[0])
			}
			if c, ok := tier.(*storage.Counting); ok && c.Counts().Ops[storage.OpRead] != st.ReadsServed[0] {
				t.Errorf("the counted tier saw %d read ops for %d reads", c.Counts().Ops[storage.OpRead], st.ReadsServed[0])
			}
		})
	}
}

const (
	scanFile     = "job/shard"
	scanWindow   = 256 << 10
	scanResident = "job/resident" // a second, smaller file for a test to fill tier 0 with
)

// scanContent is a file no two windows of which hold the same bytes, so
// a read served from the wrong offset cannot pass for the right one.
func scanContent(size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(j*131 + (j>>8)*31 + (j>>16)*17)
	}
	return b
}

// scanRig is a [ssd, pfs] stack in the paper's whole-file mode over the
// file under test: a deterministic pool, every source op counted, every
// span and event recorded, and the file's bytes kept aside as the oracle.
type scanRig struct {
	m      *Monarch
	pool   *manualPool
	ssd    *storage.MemFS
	pfs    *storage.Counting
	oracle *storage.MemFS
	log    *EventLog
	spans  []obs.Span
}

func newScanRig(t *testing.T, size int, capacity int64, edit func(*Config)) *scanRig {
	t.Helper()
	return newShardRig(t, map[string][]byte{scanFile: scanContent(size), scanResident: make([]byte, 2*scanWindow)}, capacity, edit)
}

// newShardRig is the rig over any set of source files.
func newShardRig(t *testing.T, files map[string][]byte, capacity int64, edit func(*Config)) *scanRig {
	t.Helper()
	ctx := context.Background()
	pfs, oracle := storage.NewMemFS("lustre", 0), storage.NewMemFS("oracle", 0)
	for name, data := range files {
		for _, b := range []*storage.MemFS{pfs, oracle} {
			if err := b.WriteFile(ctx, name, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	pfs.SetReadOnly(true)
	r := &scanRig{
		pool:   &manualPool{},
		ssd:    storage.NewMemFS("ssd", capacity),
		pfs:    storage.NewCounting(pfs),
		oracle: oracle,
		log:    NewEventLog(256),
	}
	cfg := Config{
		Levels:        []storage.Backend{r.ssd, r.pfs},
		Pool:          r.pool,
		FullFileFetch: true,
		JobOf:         JobFromPath,
		Events:        r.log,
		Trace:         func(s obs.Span) { r.spans = append(r.spans, s) },
	}
	if edit != nil {
		edit(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	r.m = m
	return r
}

// read serves [off, off+n) of the file through one sink and holds the
// answer against the oracle's: same count, same bytes, no error.
func (r *scanRig) read(t *testing.T, view bool, off, n int64) {
	t.Helper()
	r.readFile(t, scanFile, view, off, n)
}

func (r *scanRig) readFile(t *testing.T, name string, view bool, off, n int64) {
	t.Helper()
	ctx := context.Background()
	want := make([]byte, n)
	wn, err := r.oracle.ReadAt(ctx, name, want, off)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	if view {
		v, err := r.m.ReadView(ctx, name, off, n)
		if err != nil {
			t.Fatalf("ReadView(%s, %d, %d): %v", name, off, n, err)
		}
		got = append(got, v.Data...)
		v.Release()
	} else {
		buf := make([]byte, n)
		gn, err := r.m.ReadAt(ctx, name, buf, off)
		if err != nil {
			t.Fatalf("ReadAt(%s, %d, %d): %v", name, off, n, err)
		}
		got = buf[:gn]
	}
	if !bytes.Equal(got, want[:wn]) {
		t.Fatalf("read(%s, %d, %d) through view=%v returned %d bytes that differ from the source's %d", name, off, n, view, len(got), wn)
	}
}

// TestFetchThroughSinkParity is the fetch-through route through both
// sinks, on twin fixtures: the first partial read of a small file is the
// file's one source op, every read behind it — in range, across EOF, the
// whole file — is served from what it fetched, byte for byte what the
// source holds, and ReadAt and ReadView leave the same Stats, registry,
// spans and events. Reads that are empty or start at EOF go to the
// source, as they do past a chunked copy's landed prefix.
func TestFetchThroughSinkParity(t *testing.T) {
	const size = 1 << 20
	type outcome struct {
		stats  Stats
		views  int64
		vars   map[string]float64
		spans  []string
		events []string
	}
	run := func(view bool) outcome {
		r := newScanRig(t, size, 0, nil)
		for off := int64(0); off < size; off += scanWindow {
			r.read(t, view, off, scanWindow)
		}
		if ops := r.pfs.Counts().DataOps(); ops != 1 {
			t.Errorf("view=%v: a %d-read scan cost the source %d data ops, want the first read's one", view, size/scanWindow, ops)
		}
		r.read(t, view, size-100, scanWindow) // across EOF
		r.read(t, view, 5, size+10)           // wider than the file
		r.read(t, view, 0, size)              // the whole file
		st := r.m.Stats()
		if st.FetchThroughs != 1 || st.FetchThroughBytes != size || st.PartialHits != 6 || st.PartialHitBytes != 3*scanWindow+100+size-5+size ||
			st.ReadsServed[0] != 6 || st.ReadsServed[1] != 1 || st.BytesServed[1] != scanWindow {
			t.Errorf("view=%v: before the pool ran: %+v", view, st)
		}
		r.read(t, view, size, scanWindow) // at EOF: the source answers
		r.read(t, view, scanWindow, 0)    // empty: the source answers
		if ops := r.pfs.Counts().DataOps(); ops != 3 {
			t.Errorf("view=%v: the source saw %d data ops, want 3: the fetch, the read at EOF, the empty read", view, ops)
		}

		r.pool.drain()
		e, _ := r.m.meta.get(scanFile)
		if st, lvl, _ := e.snapshot(); st != statePlaced || lvl != 0 || e.fetch.Load() != nil {
			t.Errorf("view=%v: entry in state %d on level %d, buffer held: %v; want placed on 0 and dropped", view, st, lvl, e.fetch.Load() != nil)
		}
		if data, err := r.ssd.ReadFile(context.Background(), scanFile); err != nil || !bytes.Equal(data, scanContent(size)) {
			t.Errorf("view=%v: tier 0 does not hold the source's bytes (err=%v)", view, err)
		}
		r.read(t, view, scanWindow, scanWindow) // placed: the tier answers
		if ops := r.pfs.Counts().DataOps(); ops != 3 {
			t.Errorf("view=%v: the copy or the warm read cost the source an op: %d", view, ops)
		}

		out := outcome{stats: r.m.Stats(), vars: registryVars(t, r.m.Registry())}
		out.views = out.stats.ViewsLent + out.stats.ViewsCopied
		// Lent: the seven served from fetched bytes and the tier's own;
		// copied: the two the source answered.
		if view && (out.stats.ViewsLent != 8 || out.stats.ViewsCopied != 2) {
			t.Errorf("ReadView: %d lent, %d copied; want 8 and 2", out.stats.ViewsLent, out.stats.ViewsCopied)
		}
		out.stats.ViewsLent, out.stats.ViewsCopied = 0, 0
		for k := range out.vars {
			if strings.Contains(k, "_seconds_sum") || strings.HasPrefix(k, "monarch_uptime_seconds") ||
				strings.HasPrefix(k, "monarch_view_reads_total") {
				delete(out.vars, k)
			}
		}
		for _, s := range r.spans {
			out.spans = append(out.spans, fmt.Sprintf("%v tier=%d off=%d flags=%v bytes=%d err=%q",
				s.Kind, s.Tier, s.Off, s.Flags, s.Bytes, errString(s.Err)))
		}
		for _, ev := range r.log.Events() {
			out.events = append(out.events, fmt.Sprintf("%v %s level=%d bytes=%d err=%q",
				ev.Kind, ev.File, ev.Level, ev.Bytes, errString(ev.Err)))
		}
		return out
	}
	cp, vw := run(false), run(true)
	if cp.views != 0 || vw.views != 10 {
		t.Errorf("views lent + copied: ReadAt %d, ReadView %d; want 0 and the 10 served", cp.views, vw.views)
	}
	if s := cp.stats; s.Placements != 1 || s.FullReadReuses != 1 || s.FetchThroughs != 1 || s.ReadsServed[0] != 7 || s.ReadsServed[1] != 3 {
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
	if !reflect.DeepEqual(cp.spans, vw.spans) {
		t.Errorf("spans differ:\n ReadAt   %q\n ReadView %q", cp.spans, vw.spans)
	}
	if !reflect.DeepEqual(cp.events, vw.events) {
		t.Errorf("events differ:\n ReadAt   %q\n ReadView %q", cp.events, vw.events)
	}
}

// TestFetchThroughRule pins which first misses are fetch-throughs, by
// what a counted source sees for one sequential scan plus the copy it
// starts: one data op where the rule picks the file — or, on a tier
// without room, the read-ahead that replaces it — and the paper's
// serve-then-copy counts — every read, then the copy's own fetch — for a
// file above the size rule, a chunked placement, the fetch ablation, and
// a tier only the eviction policy can make room on. A fetch-through whose
// copy then finds the room gone is not wasted: the skipped placement
// leaves its buffer to the rest of the scan.
func TestFetchThroughRule(t *testing.T) {
	const mib = 1 << 20
	for _, tc := range []struct {
		name     string
		size     int
		capacity int64 // tier-0 quota; 0 is unlimited
		cfg      func(*Config)
		midScan  func(*testing.T, *scanRig) // runs after the first read
		copyOps  int64                      // source data ops the background copy makes
		fetched  bool
		filled   bool // read ahead instead
		placed   bool
	}{
		{name: "small file", size: mib, fetched: true, placed: true},
		{name: "largest the rule takes", size: 4 * mib, fetched: true, placed: true},
		{name: "one byte above the size rule", size: 4*mib + 1, copyOps: 1, placed: true},
		{name: "tier without room", size: mib, capacity: mib - 1, filled: true},
		{name: "tier filled between the fetch and the copy", size: mib, capacity: mib, fetched: true,
			midScan: func(t *testing.T, r *scanRig) {
				if err := r.ssd.WriteFile(context.Background(), "job/squatter", []byte{1}); err != nil {
					t.Fatal(err)
				}
				r.pool.drain() // the copy loses the race for room and is skipped
			}},
		{name: "chunked placement", size: mib, cfg: func(c *Config) { c.ChunkSize = scanWindow }, copyOps: 4, placed: true},
		{name: "fetch ablation", size: mib, cfg: func(c *Config) { c.FullFileFetch = false }},
		{name: "room is the eviction policy's to make", size: mib, capacity: mib + scanWindow,
			cfg: func(c *Config) { c.Eviction = NewLRU() }, copyOps: 1, placed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newScanRig(t, tc.size, tc.capacity, tc.cfg)
			if r.m.cfg.Eviction != nil {
				// A resident the policy may evict holds room the file needs.
				if _, err := r.m.ReadAt(context.Background(), scanResident, make([]byte, 2*scanWindow), 0); err != nil {
					t.Fatal(err)
				}
				r.pool.drain()
				r.pfs.Reset()
			}
			reads := int64(0)
			for off := int64(0); off < int64(tc.size); off += scanWindow {
				r.read(t, false, off, scanWindow)
				reads++
				if off == 0 && tc.midScan != nil {
					tc.midScan(t, r)
				}
			}
			r.pool.drain()
			if e, _ := r.m.meta.get(scanFile); e.fetch.Load() != nil {
				t.Errorf("a buffer is still published after the scan's last byte and the copy")
			}
			want := reads + tc.copyOps
			if tc.fetched || tc.filled {
				want = 1
			}
			st := r.m.Stats()
			if ops := r.pfs.Counts().DataOps(); ops != want || (st.FetchThroughs == 1) != tc.fetched || (st.ReadAheads == 1) != tc.filled {
				t.Errorf("the source saw %d data ops for %d reads and the copy, %d fetch-throughs, %d read-aheads; want %d ops, fetched=%v, filled=%v",
					ops, reads, st.FetchThroughs, st.ReadAheads, want, tc.fetched, tc.filled)
			}
			if lvl, _ := r.m.LevelOf(scanFile); (lvl == 0) != tc.placed {
				t.Errorf("file on level %d; want placed=%v", lvl, tc.placed)
			}
		})
	}
}
