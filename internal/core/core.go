// Package core implements MONARCH, the paper's contribution: a
// framework-agnostic middleware for hierarchical storage management
// that sits between a deep-learning framework's data loader and a
// hierarchy of storage backends.
//
// The three modules of the paper's §III map onto this package as
// follows:
//
//   - storage hierarchy  → Config.Levels / the levels slice: an ordered
//     list of storage drivers, each wrapping a storage.Backend with a
//     quota; every level except the last starts empty and is
//     read-write, the last level is the read-only PFS holding the
//     dataset;
//   - placement handler  → placement.go: a background thread pool that
//     copies each file, on its first read, into the highest tier with
//     free space — whole-file fetches, no eviction;
//   - metadata container → metadata.go: an ephemeral virtual namespace
//     mapping every file to its size and current tier, built at job
//     start by listing the PFS dataset directory.
//
// The public entry point mirrors the paper's TensorFlow integration: a
// single Monarch.ReadAt(name, buf, off) call replacing the POSIX pread
// in the framework's file-system driver.
package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"monarch/internal/bufpool"
	"monarch/internal/obs"
	"monarch/internal/storage"
	"monarch/internal/trace"
)

// Monarch is the middleware instance. All methods are safe for
// concurrent use.
type Monarch struct {
	cfg Config
	// base anchors the hot path's monotonic clock: time.Since(base)
	// costs one nanotime read, where a time.Now pair also reads the
	// wall clock — ~60ns saved per ReadView on the copy-free path.
	base   time.Time
	levels []*driver
	source *driver // == levels[len-1]
	meta   *metadataContainer
	stats  statsCollector
	placer *placer
	health *healthTracker
	// tenants is the per-job quota ledger; nil unless Config.JobOf or
	// Config.Tenants enables multi-job tenancy.
	tenants *tenantTable
	inst    instruments
	// writes is the write subsystem (durable checkpoints, write-back
	// flusher, crash journal); nil unless Config.Write.Enabled.
	writes *writeState
	tracer *trace.Recorder
	// spanHook fans spans out to the trace recorder and Config.Trace;
	// nil when neither is configured.
	spanHook obs.TraceHook

	metricsLn  net.Listener
	metricsSrv *http.Server
	traceOnce  sync.Once
}

// ErrNotInitialized is returned by reads before Init has built the
// namespace.
var ErrNotInitialized = errors.New("monarch: Init has not been called")

// ErrUnknownFile is returned for names absent from the namespace.
var ErrUnknownFile = errors.New("monarch: file not in namespace")

// New validates cfg and assembles an instance. Call Init before
// serving reads.
func New(cfg Config) (*Monarch, error) {
	if len(cfg.Levels) < 2 {
		return nil, fmt.Errorf("monarch: need at least 2 levels (got %d)", len(cfg.Levels))
	}
	if cfg.Pool == nil {
		return nil, fmt.Errorf("monarch: placement pool required")
	}
	if cfg.ChunkSize < 0 {
		return nil, fmt.Errorf("monarch: negative ChunkSize %d", cfg.ChunkSize)
	}
	if cfg.Peer.enabled() {
		if cfg.Peer.Tier < 1 || cfg.Peer.Tier >= len(cfg.Levels)-1 {
			return nil, fmt.Errorf("monarch: peer tier %d must sit between the top tier and the source (0 < tier < %d)",
				cfg.Peer.Tier, len(cfg.Levels)-1)
		}
		if cfg.Peer.Owns == nil {
			return nil, fmt.Errorf("monarch: peer routing requires an Owns function")
		}
	}
	if cfg.Write.Enabled {
		if _, ok := cfg.Levels[0].(storage.RangeWriter); !ok {
			return nil, fmt.Errorf("monarch: the write path requires level 0 (%s) to implement storage.RangeWriter",
				cfg.Levels[0].Name())
		}
		if _, ok := cfg.Levels[len(cfg.Levels)-1].(storage.RangeWriter); !ok {
			return nil, fmt.Errorf("monarch: the write path requires the source level (%s) to implement storage.RangeWriter",
				cfg.Levels[len(cfg.Levels)-1].Name())
		}
	}
	m := &Monarch{cfg: cfg, base: time.Now()}
	for i, b := range cfg.Levels {
		if b == nil {
			return nil, fmt.Errorf("monarch: level %d backend is nil", i)
		}
		d := &driver{level: i, backend: b}
		d.vr, _ = b.(storage.ViewReader)
		m.levels = append(m.levels, d)
	}
	m.source = m.levels[len(m.levels)-1]
	m.meta = newMetadataContainer(len(m.levels))
	m.inst.reg = obs.NewRegistry()
	m.stats.init(m.inst.reg, len(m.levels))
	caps := make([]int64, len(m.levels))
	for i, d := range m.levels {
		caps[i] = d.backend.Capacity()
	}
	tenants, err := newTenantTable(cfg, caps)
	if err != nil {
		return nil, err
	}
	m.tenants = tenants
	if tb, ok := cfg.Eviction.(tenancyBinder); ok && m.tenants != nil {
		tb.bindTenancy(m.tenants)
	}
	m.placer = newPlacer(m)
	m.health = newHealthTracker(cfg.Health, len(m.levels)-1)
	if cfg.Write.Enabled {
		m.writes = newWriteState(m, cfg.Write)
	}
	m.initObs()
	m.initTenantObs()
	if cfg.TracePath != "" {
		if err := m.startTrace(); err != nil {
			return nil, err
		}
	}
	var tracerHook obs.TraceHook
	if m.tracer != nil {
		tracerHook = m.tracer.HookSpan
	}
	m.spanHook = obs.MultiHook(tracerHook, cfg.Trace)
	if cfg.MetricsAddr != "" {
		if err := m.startMetrics(); err != nil {
			m.closeTrace()
			return nil, err
		}
	}
	return m, nil
}

// Init builds the metadata container by listing the source level (the
// paper's start-up namespace traversal). Calling it a second time is an
// error: the namespace is ephemeral per job, and rebuilding it would
// silently forget completed placements.
func (m *Monarch) Init(ctx context.Context) error {
	if m.meta.initialized() {
		return fmt.Errorf("monarch: Init called twice")
	}
	// Journal recovery runs BEFORE the namespace listing: write-back
	// bytes a crashed predecessor acked but never flushed land on the
	// PFS first, so the recovered files are listed like any other.
	if err := m.initWrites(ctx); err != nil {
		return err
	}
	infos, err := m.source.backend.List(ctx)
	if err != nil {
		return fmt.Errorf("monarch: init: %w", err)
	}
	m.meta.populate(infos, len(m.levels)-1)
	if m.tracer != nil {
		files := make([]trace.File, len(infos))
		for i, fi := range infos {
			files[i] = trace.File{Name: fi.Name, Size: fi.Size}
		}
		m.tracer.AddFiles(files)
	}
	if m.cfg.Staging == StagePreTraining {
		return m.preStage(ctx)
	}
	return nil
}

// Levels returns the number of hierarchy levels.
func (m *Monarch) Levels() int { return len(m.levels) }

// NumFiles returns the namespace size.
func (m *Monarch) NumFiles() int { return m.meta.len() }

// Stats returns a snapshot of middleware counters.
func (m *Monarch) Stats() Stats {
	s := m.stats.snapshot(m.placer.inFlight())
	s.DirtyBytes = m.writes.dirtyBytes()
	return s
}

// Idle reports whether no placements are queued or running.
func (m *Monarch) Idle() bool { return m.placer.inFlight() == 0 }

// Close stops the placement intake. Queued placements still complete
// (GoPool's Close additionally waits for them). The trace recorder, if
// any, flushes and writes its trailer after the pool drains, so the
// trace's summary reflects final counters.
func (m *Monarch) Close() {
	m.stopMetrics()
	if m.writes != nil {
		// Graceful: drain the dirty backlog to the PFS, persist the heat
		// snapshot, seal the journal.
		m.writes.close(true)
	}
	m.cfg.Pool.Close()
	m.closeTrace()
}

// Shutdown cancels in-flight placements and stops the intake; unlike
// Close it does not wait out long copies. Cancelled placements return
// their files to the source state and are not counted as errors.
func (m *Monarch) Shutdown() {
	m.stopMetrics()
	if m.writes != nil {
		// Abrupt: skip the drain. The journal already holds every acked
		// write-back byte; the next Init replays them into the PFS.
		m.writes.close(false)
	}
	m.cfg.Pool.Shutdown()
	m.closeTrace()
}

// ReadAt is the paper's Monarch.read: it serves len(p) bytes at offset
// off of the named file from whichever tier currently holds it, and —
// on the first read of a file — schedules its background placement
// into the highest tier with free space.
func (m *Monarch) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	return m.read(ctx, name, off, int64(len(p)), &sink{buf: p})
}

// ReadView serves up to n bytes of the named file at offset off as a
// borrowed, read-only view — the copy-free variant of ReadAt, through
// the same read plan: exactly as available, and moving the same
// counters, histograms, spans and breakers. Data points straight at the
// tier's bytes — MemFS's buffer, a read-only mapping of the OSFS file —
// when a dataset file is fully placed on a healthy tier whose backend
// lends views, and at a fetch-through's bytes while its copy is in
// flight; every other read (another route, a file registered by
// Create, a backend that refuses) is copied into pooled scratch that
// Release returns. Stats.ViewsLent / ViewsCopied say which happened.
//
// The caller MUST Release the view exactly once, promptly: a MemFS
// view holds the file's read lock, so sitting on one blocks writers to
// that file, and an OSFS view keeps an evicted file's blocks on disk.
func (m *Monarch) ReadView(ctx context.Context, name string, off, n int64) (storage.View, error) {
	if n < 0 {
		return storage.View{}, fmt.Errorf("monarch: negative view length %d", n)
	}
	s := sink{lend: true}
	_, err := m.read(ctx, name, off, n, &s)
	return s.view, err
}

// sink is where a read lands: ReadAt's caller buffer or, with lend set,
// a view for ReadView to hand out. A successful serve leaves the
// delivered bytes in view.Data either way; lent says the last serve's
// view is the holder's own bytes — a tier's, or a fetch-through
// buffer's — not a copy.
type sink struct {
	buf  []byte
	lend bool
	lent bool
	view storage.View
}

// take lands v — bytes a holder lends: a tier's view, a window of a
// fetched buffer — in s and returns its length: lent as it is for
// ReadView, copied for ReadAt and released. The copy is View.Copy's, so
// a fault under a mapped view is this read's error, not the process's.
func (s *sink) take(v storage.View) (int, error) {
	if s.lend {
		s.view, s.lent = v, true
		return len(v.Data), nil
	}
	n, err := v.Copy(s.buf)
	v.Release()
	s.view.Data = s.buf[:n]
	return n, err
}

// window is [off, off+n) of the file f holds from f.base to its end —
// off inside that — as a view holding the caller's reference on f.
func (f *fetched) window(off, n int64) storage.View {
	off -= f.base
	end := int64(len(f.data))
	if n < end-off {
		end = off + n
	}
	return storage.View{Data: f.data[off:end:end], R: f}
}

// route is the read plan's routing decision: which driver gets the
// first attempt, and why. gen is the eviction generation of the entry
// snapshot it was resolved from.
type route struct {
	kind routeKind
	d    *driver
	gen  uint64
}

type routeKind uint8

const (
	routeSource  routeKind = iota // the PFS, which always holds the data
	routeLocal                    // fully placed on a healthy upper tier
	routeMidCopy                  // a chunked placement in flight already holds the range
	routePeer                     // not owned by this node: the owner's cache, over the peer tier
	routeFetched                  // bound for the source, but a fetch-through or a read-ahead holds the range in memory
)

// resolve routes a read of [off, off+n) of e from one atomic snapshot
// of the entry plus breaker state.
func (m *Monarch) resolve(e *fileEntry, off, n int64) route {
	m.tickProbes()
	snap := e.snap.Load()
	_, lvl, armed := unpackSnap(snap)
	gen := snap >> snapGenShift
	if lvl != m.source.level {
		if !m.health.isDown(lvl) {
			return route{routeLocal, m.levels[lvl], gen}
		}
		// The tier's breaker is open: demote the entry so later reads
		// skip this path too — one metadata update instead of a doomed
		// attempt per read.
		m.demote(e, lvl)
	}
	if armed {
		// Mid-copy read-through: serve landed chunks from the upper tier
		// instead of adding PFS pressure.
		if plvl, ok := e.chunksCover(off, n); ok && !m.health.isDown(plvl) {
			return route{routeMidCopy, m.levels[plvl], gen}
		}
	}
	if p := m.cfg.Peer; p.enabled() && !p.Owns(e.name) && !m.health.isDown(p.Tier) {
		return route{routePeer, m.levels[p.Tier], gen}
	}
	return route{routeSource, m.source, gen}
}

// serve makes one attempt at [off, off+n) of e over rt into s. The lend
// rule: the attempt asks the tier for a view only on the local route,
// from a backend that lends them, and never of a file Create registered
// — WriteAt changes those in place, under any view; the sink then lends
// the view or copies out of it. Everything else, a backend's refusal
// (ErrUnsupported) included, is the backend's ReadAt: into the caller's
// buffer, or into scratch for a view.
func (m *Monarch) serve(ctx context.Context, rt route, e *fileEntry, off, n int64, s *sink) (int, error) {
	d, buf := rt.d, s.buf
	if rt.kind == routeLocal && d.vr != nil && !e.writable {
		v, err := d.vr.ReadView(ctx, e.name, off, n)
		if err == nil {
			return s.take(v)
		}
		if !errors.Is(err, errors.ErrUnsupported) {
			return 0, err
		}
	}
	s.lent = false
	if s.lend {
		if rem := e.size - off; off >= 0 && rem < n {
			n = max(rem, 0)
		}
		buf = bufpool.Get(int(n))
	}
	got, err := d.backend.ReadAt(ctx, e.name, buf, off)
	switch {
	case s.lend && err != nil:
		bufpool.Put(buf)
	case s.lend:
		s.view = storage.PooledView(buf, got)
	case err == nil:
		s.view.Data = buf[:got]
	}
	return got, err
}

var (
	// errOvertaken voids a first attempt whose route an eviction overtook.
	errOvertaken = errors.New("monarch: evicted under the read")
	// errShortRead fails a first attempt that served fewer bytes than the
	// file holds at the offset.
	errShortRead = errors.New("monarch: tier returned a short read")
)

// recovered books a first attempt above the source that failed, before
// the source re-serves the read. It is the plan's recovery table:
//
//	errOvertaken, any route   eviction race  EvictionRaces  clean
//	ErrNotExist, peer route   peer miss      PeerMisses     clean
//	errShortRead, any route   tier failure   Fallbacks      failure
//	anything else             tier failure   Fallbacks      failure
//
// A failure charges monarch_errors_total{stage=peer|tier-read}, emits
// EventFallback and feeds the breaker. The clean rows are the protocol
// working — an eviction got to the tier copy first, or the owner has
// not cached the file yet — and counting them failures would let the
// fan-in of evict/re-place/read trip a healthy tier.
func (m *Monarch) recovered(e *fileEntry, rt route, err error) obs.SpanFlags {
	lvl, stage := rt.d.level, stageTierRead
	switch {
	case err == errOvertaken:
		m.stats.evictionRaces.Add(1)
		return 0
	case rt.kind == routePeer && errors.Is(err, storage.ErrNotExist):
		m.stats.peerMisses.Add(1)
		return obs.FlagPeerMiss
	case rt.kind == routePeer:
		stage = stagePeer
	}
	m.stats.fallbacks.Add(1)
	m.inst.errs[stage].Inc()
	m.event(Event{Kind: EventFallback, File: e.name, Level: lvl, Err: err})
	if m.health.recordReadError(lvl) {
		m.tierDown(lvl, err)
	}
	if m.health.isDown(lvl) {
		m.demote(e, lvl)
	}
	return obs.FlagFallback
}

// read is the one read plan behind ReadAt and ReadView (the paper's
// §III-B flow): resolve a route, serve one attempt into the sink,
// recover through the source if an upper tier let the read down, and
// account for the outcome — each in exactly one place.
func (m *Monarch) read(ctx context.Context, name string, off, n int64, s *sink) (int, error) {
	start := time.Since(m.base)
	e, err := m.lookup(name)
	if err != nil {
		m.inst.errs[stageRead].Inc()
		m.span(obs.Span{Kind: obs.SpanRead, File: name, Tier: -1, Off: off, Err: err, Duration: time.Since(m.base) - start})
		return 0, err
	}
	rt := m.resolve(e, off, n)
	// Only a read bound for the source can find a fetch-through's or a
	// read-ahead's bytes, or fetch them: whole then holds the file from
	// here to its end, and the read is served from memory.
	var whole *fetched
	if rt.kind == routeSource {
		whole, rt = m.placer.fetched(ctx, e, off, n, rt)
	}
	rctx := ctx
	var ann *obs.ReadAnnotation
	var req uint64
	if rt.kind == routePeer {
		// Backend.ReadAt has no flag channel, so the peer tier reports
		// how it served (a hedged read) through a context annotation.
		rctx, ann = obs.WithReadAnnotation(ctx)
		// Mint the cross-node correlation ID: the peernet client stamps
		// it into the frame header, the serving node stamps it into its
		// serve span, and both halves land in traces under the same Req.
		req = obs.NewRequestID()
		rctx = obs.WithRequestID(rctx, req)
	}
	var flags obs.SpanFlags
	var got int
	if whole != nil {
		got, err = s.take(whole.window(off, n))
	} else {
		got, err = m.serve(rctx, rt, e, off, n, s)
	}
	if rt.kind != routeSource && e.snap.Load()>>snapGenShift != rt.gen {
		// An eviction of e began after resolve, so whatever the tier
		// answered is void: the evictor's Remove fails a late read
		// cleanly, but the re-placement that may follow allocates a fresh
		// copy this read could have caught still empty.
		s.view.Release()
		s.view, err = storage.View{}, errOvertaken
	} else if rt.kind != routeSource && whole == nil && err == nil && int64(got) < min(n, e.size-off) {
		// The tier holds less of the file than the namespace does (its
		// copy was cut short from outside): a tier failure, not a record
		// the caller takes for the file's end.
		s.view.Release()
		s.view, err = storage.View{}, errShortRead
	}
	switch {
	case err == nil && whole != nil: // says nothing of the tier it is booked on
	case err == nil:
		m.health.recordReadOK(rt.d.level) // a no-op on the untracked source
	case rt.kind != routeSource:
		flags = m.recovered(e, rt, err)
		rt = route{kind: routeSource, d: m.source}
		got, err = m.serve(ctx, rt, e, off, n, s)
	}
	lvl := rt.d.level
	if err != nil {
		m.inst.errs[stageRead].Inc()
		m.span(obs.Span{Kind: obs.SpanRead, File: name, Tier: lvl, Off: off, Flags: flags, Req: req, Err: err, Duration: time.Since(m.base) - start})
		return got, err
	}
	m.stats.served(lvl, int64(got))
	if s.lend {
		m.stats.viewed(s.lent)
	}
	switch rt.kind {
	case routeMidCopy, routeFetched:
		flags |= obs.FlagPartial
		m.stats.partialHits.Add(1)
		m.stats.partialHitBytes.Add(int64(got))
		m.event(Event{Kind: EventPartialHit, File: name, Level: lvl, Bytes: int64(got)})
	case routePeer:
		flags |= obs.FlagPeer
		m.stats.peerHits.Add(1)
		m.stats.peerHitBytes.Add(int64(got))
		if ann.Flags()&obs.FlagHedged != 0 {
			flags |= obs.FlagHedged
			m.stats.peerHedges.Add(1)
		}
	}
	dur := time.Since(m.base) - start
	m.inst.readLatency[lvl].Observe(dur.Seconds())
	m.span(obs.Span{Kind: obs.SpanRead, File: name, Tier: lvl, Off: off, Bytes: int64(got), Flags: flags, Req: req, Duration: dur})
	m.stats.jobRead(m.tenants, name, lvl, m.source.level, int64(got))

	// Only a read the source served can be a file's first access or
	// touch an unplaceable file; under peer routing only owned files are
	// cached locally — the rest already went through their owner's cache.
	cacheable := rt.kind == routeSource && m.owns(name)
	if cacheable && m.cfg.Staging == StageOnFirstRead {
		// The §III-B flow: first access triggers placement. If the
		// framework happened to read the whole file, lend the content to
		// the placer so it can skip the source re-read.
		var full []byte
		if off == 0 && int64(got) == e.size {
			full = s.view.Data
		}
		m.placer.onAccess(e, full)
	}
	if m.cfg.Eviction != nil {
		m.cfg.Eviction.OnAccess(name)
		if cacheable {
			m.maybePromote(e)
		}
	}
	return got, nil
}

// maybePromote re-enters an unplaceable file into the placement
// pipeline. Heat-style policies (promoter) gate the revival: the file
// must have become hot enough to displace a colder resident, and
// HeatPolicy.ShouldPromote rate-limits the check to once per file per
// epoch. Plain recency policies (LRU/FIFO) revive unconditionally —
// under them an access *is* the claim to residence, and the books they
// keep lag the chunk-finalisation tasks, so a placement skipped during
// a burst must be retriable on the next touch. The placement itself
// then runs the normal admission path: if no victim still qualifies by
// the time it executes, the file simply returns to unplaceable.
func (m *Monarch) maybePromote(e *fileEntry) {
	if e.currentState() != stateUnplaceable {
		return
	}
	if pr, ok := m.cfg.Eviction.(promoter); ok && !pr.ShouldPromote(e.name) {
		return
	}
	if !e.makeReplaceable() {
		return
	}
	m.stats.promotions.Add(1)
	m.event(Event{Kind: EventPromoted, File: e.name, Level: -1, Bytes: e.size})
	m.placer.onAccess(e, nil)
}

// owns reports whether this node should cache name locally. Without
// peer routing every node owns the whole namespace.
func (m *Monarch) owns(name string) bool {
	return !m.cfg.Peer.enabled() || m.cfg.Peer.Owns(name)
}

func (m *Monarch) lookup(name string) (*fileEntry, error) {
	if !m.meta.initialized() {
		return nil, ErrNotInitialized
	}
	e, ok := m.meta.get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFile, name)
	}
	return e, nil
}

// driver is the paper's "storage driver": a hierarchy level wrapping a
// backend.
type driver struct {
	level   int
	backend storage.Backend
	// vr is the backend's zero-copy capability, resolved once.
	vr storage.ViewReader
}
