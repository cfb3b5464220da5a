package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"monarch/internal/bufpool"
	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// placer is the paper's placement handler: it owns the background
// thread pool and the tier-selection algorithm (§III-A — descend the
// hierarchy, first level with room wins; no eviction). Beyond the
// paper, it skips tiers whose circuit breaker is open and re-queues
// transiently failed placements under Config.Retry.
type placer struct {
	m        *Monarch
	inflight atomic.Int64

	// ring is the entries of the last maxAhead pass-long fills, fill k in
	// slot k%maxAhead: a fill unpublishes the one it displaces (track).
	fills atomic.Uint64
	ring  [maxAhead]atomic.Pointer[fileEntry]
}

// maxAhead bounds the pass-long buffers published at once — 32 MiB at
// bufpool.MaxPooled each — oldest out first.
const maxAhead = 8

func newPlacer(m *Monarch) *placer { return &placer{m: m} }

func (pl *placer) inFlight() int { return int(pl.inflight.Load()) }

// submit runs task on the pool with in-flight accounting (placements,
// retries, and recovery probes all count toward Idle); it reports
// false when the pool is closed.
func (pl *placer) submit(task pool.Task) bool {
	pl.inflight.Add(1)
	ok := pl.m.cfg.Pool.Submit(func(ctx context.Context) {
		defer pl.inflight.Add(-1)
		task(ctx)
	})
	if !ok {
		pl.inflight.Add(-1)
	}
	return ok
}

// attempt is one try at placing one file. onAccess, retry and preStage
// build it; the plan carries it unchanged from admit to settle.
type attempt struct {
	e *fileEntry
	// full, when non-nil, is the complete file content the framework just
	// read (the §III-B fast path that skips the source re-read).
	full []byte
	n    int // 1-based try
}

// reuse reports whether the copy is the foreground's full read written
// straight through, with no source fetch — which the placement span
// advertises so trace consumers can account PFS operations correctly.
func (a attempt) reuse() bool { return a.full != nil && int64(len(a.full)) == a.e.size }

// onAccess is called from the foreground read path. If this is the
// file's first access it schedules a placement; full is borrowed from
// the caller, so the attempt that wins the queue takes its own copy.
func (pl *placer) onAccess(e *fileEntry, full []byte) {
	// Snapshot fast-skip: once the file left Source (queued, placed,
	// unplaceable, ...) every subsequent read would pay the entry mutex
	// in tryQueue just to learn there is nothing to do. tryQueue stays
	// the authoritative, mutex-guarded transition for the one read that
	// actually races the snapshot.
	if e.currentState() != stateSource {
		return
	}
	if e.writable {
		// Writable files never enter the placement pipeline: a tier copy
		// of a write-through file would go stale on its next WriteAt.
		return
	}
	if !e.tryQueue() {
		return
	}
	pl.enqueue(attempt{e: e, full: append([]byte(nil), full...), n: 1})
}

// enqueue hands a freshly queued entry's first attempt to the pool.
func (pl *placer) enqueue(a attempt) {
	if !pl.submit(func(ctx context.Context) { pl.place(ctx, a) }) {
		a.e.clearChunks()
		a.e.markUnplaceable() // pool closed: no placement for this job
		return
	}
	pl.m.span(obs.Span{Kind: obs.SpanPlacementEnqueue, File: a.e.name, Tier: -1, Bytes: a.e.size})
}

// fetched completes the routing of a read that rt binds for the source:
// where a buffer holds the range — a fetch-through in flight, the read
// then a mid-copy hit on the tier the copy is bound for; a read-ahead, a
// hit booked on the source; or the one this read fetches, as the file's
// first miss or its sequential run's arming read, still the source's read
// — it returns the holder, with a reference for the caller's window.
// Empty and out-of-range reads go to the source; so do all reads of a
// file outside the whole-file plan or above the size rule, which bounds
// the fetching read's extra wait and the memory a reader can pin.
func (pl *placer) fetched(ctx context.Context, e *fileEntry, off, n int64, rt route) (*fetched, route) {
	m := pl.m
	if off < 0 || off >= e.size || n <= 0 || e.size > bufpool.MaxPooled || e.writable || !m.cfg.FullFileFetch ||
		m.cfg.ChunkSize != 0 || m.cfg.Staging != StageOnFirstRead || !m.owns(e.name) {
		return nil, rt
	}
	// The buffer first: a copy that settles after resolve takes it away,
	// and the read it was meant for then costs the source a range.
	f := e.fetch.Load()
	held := f != nil && f.acquire()
	end, st := off+min(n, e.size-off), e.currentState()
	if !held && st == statePlaced {
		// The copy settled after resolve and took its buffer along: the
		// tier has the file now, and the source owes this read nothing.
		return nil, m.resolve(e, off, n)
	}
	arm := e.sequential(off, end) // before f.seq is read: settle sets it, then reads run
	if held {
		// A fill in the ring ends with its pass; any other is a copy's, at settle.
		switch pass := f.seq.Load() != 0; {
		case pass && off == 0:
			e.unpublish(f)
		case off >= f.base:
			if pass && end == e.size {
				e.unpublish(f)
			}
			return f, route{routeFetched, m.levels[f.level], rt.gen}
		}
		f.Release()
	}
	switch {
	case st == stateSource && end-off < e.size:
		return pl.fetchThrough(ctx, e, off), rt
	case st == stateUnplaceable && arm && end < e.size:
		return pl.readAhead(ctx, e, off), rt
	}
	return nil, rt
}

// fetchThrough makes the first miss of a small file the pass's one source
// read (Hoard's rule: one fetch per object). Where the plan would copy the
// whole file onto a tier with room, a read of part of e that wins the
// queue issues the plan's one source.ReadFile here, on the caller's
// context, publishes it for the reads behind it and queues the attempt
// with it as attempt.full (copyInto's reuse row); where no tier has room
// nor a policy to make it, a miss at 0 is the pass's read-ahead. It
// returns nil for a plain range read: room is the policy's to make, on
// the pool; a roomless miss past 0; another reader won the queue; or the
// fetch failed — nothing published. It waits on no one: SimPool-safe.
func (pl *placer) fetchThrough(ctx context.Context, e *fileEntry, off int64) *fetched {
	m := pl.m
	var d *driver
	for _, t := range m.levels[:len(m.levels)-1] {
		if !pl.candidate(t) {
			continue
		}
		if storage.Free(t.backend) >= e.size {
			d = t
			break
		}
		if m.cfg.Eviction != nil {
			return nil
		}
	}
	switch {
	case d == nil && off == 0 && m.cfg.Eviction == nil:
		return pl.readAhead(ctx, e, 0)
	case d == nil || !e.tryQueue():
		return nil
	}
	data, err := m.source.backend.ReadFile(ctx, e.name)
	if err != nil || int64(len(data)) != e.size {
		e.cancelQueued()
		return nil
	}
	m.stats.fetchThroughs.Inc()
	m.stats.fetchedBytes.Add(e.size)
	f := &fetched{data: data, level: d.level}
	f.refs.Store(2) // the publication's and this read's
	e.fetch.Store(f)
	pl.enqueue(attempt{e: e, full: data, n: 1})
	return f
}

// readAhead serves a pass over a small file no tier has room for as
// kernel read-ahead would: the arming read issues one source.ReadAt for
// [off, size) into a pooled buffer and publishes it, so the pass's other
// reads cost the source nothing and the tier is never churned. It returns
// nil for a plain range read — views of the last fill are still out, or
// the fill failed or came back short: nothing published, the next
// adjacent read may arm again. Like fetchThrough it waits on no one.
func (pl *placer) readAhead(ctx context.Context, e *fileEntry, off int64) *fetched {
	m, f := pl.m, &e.ahead
	if !f.refs.CompareAndSwap(0, -1) {
		return nil
	}
	buf := bufpool.Get(int(e.size - off))
	if got, err := m.source.backend.ReadAt(ctx, e.name, buf, off); err != nil || got != len(buf) {
		bufpool.Put(buf)
		f.refs.Store(0)
		return nil
	}
	e.runFlags.Or(runFilled)
	m.stats.readAheads.Inc()
	m.stats.readAheadBytes.Add(int64(len(buf)))
	f.data, f.base, f.level, f.pooled = buf, off, m.source.level, true
	pl.track(e, f)
	f.refs.Store(2) // the publication's and this read's
	e.fetch.Store(f)
	if e.currentState() == statePlaced {
		e.unpublish(f) // a copy overtook the fill: only this read has its bytes
	}
	return f
}

// track enters fill f of e in the ring and unpublishes the fill it
// displaces, if that still stands: a slot outlives its fill, and an entry
// refilled since then has a newer slot as well.
func (pl *placer) track(e *fileEntry, f *fetched) {
	k := pl.fills.Add(1)
	f.seq.Store(k)
	if old := pl.ring[k%maxAhead].Swap(e); old != nil {
		if h := old.fetch.Load(); h != nil && h.seq.Load() == k-maxAhead {
			old.unpublish(h)
		}
	}
}

// retry re-queues a, after its backoff, as the file's next try.
func (pl *placer) retry(a attempt) {
	r, failed := pl.m.cfg.Retry, a.n
	a.n++
	if !pl.submit(func(ctx context.Context) {
		r.wait(ctx, failed)
		pl.place(ctx, a)
	}) {
		a.e.markUnplaceable() // pool closed between failure and retry
	}
}

// place runs one attempt through the placement plan (the paper's
// §III-A rule: a file's first read schedules a background copy into the
// highest tier with room): admit walks the hierarchy down to the first
// tier that will take the file, copyInto moves the bytes, and settle
// decides the outcome and accounts for it. The paper's policy never
// evicts; the eviction ablations hook in through tryMakeRoom.
func (pl *placer) place(ctx context.Context, a attempt) {
	m := pl.m
	// Checkpoint-burst gate: while foreground writes are landing (or
	// their dirty backlog is draining), background copies would fight
	// them for tier and PFS bandwidth — hold here until the burst ends.
	m.writes.pauseForBurst(ctx)
	if err := ctx.Err(); err != nil {
		pl.settle(ctx, a, nil, err) // shut down mid-queue
		return
	}
	for _, d := range m.levels[:len(m.levels)-1] {
		if !pl.admit(ctx, d, a.e) {
			continue
		}
		err := pl.copyInto(ctx, d, a)
		// Lost a quota race with a concurrent placement: next level down —
		// unless a chunked copy had begun landing here, which settle drops.
		if _, _, armed := a.e.snapshot(); !armed && errors.Is(err, storage.ErrNoSpace) {
			continue
		}
		pl.settle(ctx, a, d, err)
		return
	}
	pl.settle(ctx, a, nil, storage.ErrNoSpace)
}

// candidate reports whether placement may use tier d at all: never the
// peer tier (a read-only view of siblings), never a tier whose breaker
// is open.
func (pl *placer) candidate(d *driver) bool {
	m := pl.m
	return !(m.cfg.Peer.enabled() && d.level == m.cfg.Peer.Tier) && !m.health.isDown(d.level)
}

// admit reports whether tier d may take e: a candidate with room — free
// already (the half fetchThrough checks from the read path), or made by
// the eviction policy.
func (pl *placer) admit(ctx context.Context, d *driver, e *fileEntry) bool {
	return pl.candidate(d) && (storage.Free(d.backend) >= e.size || pl.tryMakeRoom(ctx, d, e))
}

// settle ends an attempt: the one place the plan decides an outcome and
// books it, and the end of every place. d is the tier the copy went to —
// nil when the walk reached none. It is the plan's outcome table, first
// match wins:
//
//	copied (err == nil)            placed       breaker OK   Placements, PlacedBytes, latency; span; EventPlaced; job charged, policy told
//	no tier admitted it            unplaceable  —            PlacementSkips; span on tier -1; EventSkipped
//	fetch disabled (abl-fullfetch) unplaceable  —            as above: a skip, not a failure
//	cancelled (ctx, or Canceled)   source       —            nothing: a shutdown is not a placement failure
//	transient, tries left          queued       breaker fed  PlacementRetries; EventRetried; re-queued (retry)
//	anything else                  unplaceable  breaker fed  PlacementErrors, errors{stage=placement}; span; EventFailed
//
// The skip rows come before the context is consulted: a full hierarchy
// or the ablation is the answer whether or not a shutdown raced it, and
// the ablation is decided before a chunked copy could start, so it is a
// whole-file row only. Every row but a whole-file skip ends what the
// attempt lent to readers: the first as markPlaced re-routes them to the
// tier, the others up front — the entry disarmed, so no read still
// routes to a chunked copy's landed prefix or a fetch-through buffer (a
// retry keeps its own slice in attempt.full; a file without room keeps
// the buffer to the end of its pass) — and then drop what a chunked copy
// left on d, because a tier must never hold, let alone serve, a torn
// file no ledger knows; the two failure rows then charge
// errors{stage=chunk-copy} once.
func (pl *placer) settle(ctx context.Context, a attempt, d *driver, err error) {
	m, e := pl.m, a.e
	// Armed means a chunked copy allocated e on d and charged its bytes to
	// the tier as they landed; only this attempt moves the watermark.
	_, _, chunked := e.snapshot()
	// Only no room for a whole-file copy keeps what the attempt lent: the
	// skip row leaves a fetch-through's buffer to the pass in progress.
	if err != nil && (chunked || !errors.Is(err, storage.ErrNoSpace)) {
		e.clearChunks()
		if chunked {
			// MemFS and OSFS refuse a cancelled context before touching the file.
			if rmErr := notExistOK(d.backend.Remove(context.WithoutCancel(ctx), e.name)); rmErr != nil {
				m.opError(stageCleanup, e.name, d.level, rmErr)
			}
		}
	}
	sp := obs.Span{Kind: obs.SpanPlacement, File: e.name, Tier: -1, Bytes: e.size, Err: err,
		Duration: time.Since(e.queuedSince())}
	switch {
	case err == nil:
		m.health.recordWriteOK(d.level)
		// Charge the job before the entry turns evictable: an eviction can
		// begin the moment markPlaced publishes, and a release that outruns
		// its charge clamps at zero, leaving the job over-billed for good.
		m.tenants.charge(m.tenants.job(e.name), d.level, e.size)
		e.markPlaced(d.level)
		m.stats.placedOn(d.level, e.size)
		if !chunked {
			m.stats.writtenBytes[d.level].Add(e.size)
		}
		m.inst.placementLatency.Observe(sp.Duration.Seconds())
		sp.Tier, sp.Attempt = d.level, a.n
		if a.reuse() {
			sp.Flags = obs.FlagReuse
		}
		m.span(sp)
		m.event(Event{Kind: EventPlaced, File: e.name, Level: d.level, Bytes: e.size})
		if m.cfg.Eviction != nil {
			m.cfg.Eviction.OnPlaced(e.name, d.level)
		}
	case errors.Is(err, storage.ErrNoSpace), errors.Is(err, errFetchDisabled):
		m.stats.placementSkips.Add(1)
		m.span(sp)
		m.event(Event{Kind: EventSkipped, File: e.name, Level: -1})
		e.markUnplaceable()
		if f := e.fetch.Load(); f != nil && f != &e.ahead {
			pl.track(e, f)
			if e.run.Load() == e.size {
				e.unpublish(f)
			}
		}
	case ctx.Err() != nil || errors.Is(err, context.Canceled):
		e.cancelQueued()
	default:
		if chunked {
			m.inst.errs[stageChunkCopy].Inc()
		}
		if m.health.recordWriteError(d.level) {
			m.tierDown(d.level, err)
		}
		if r := m.cfg.Retry; r.enabled() && a.n < r.MaxAttempts && r.transient(err) {
			m.stats.retries.Add(1)
			m.event(Event{Kind: EventRetried, File: e.name, Level: d.level, Err: err})
			pl.retry(a)
			return
		}
		m.stats.placementErrors.Add(1)
		m.inst.errs[stagePlacement].Inc()
		sp.Tier, sp.Attempt = d.level, a.n
		m.span(sp)
		m.event(Event{Kind: EventFailed, File: e.name, Level: d.level, Err: err})
		e.markUnplaceable()
	}
}

// copyInto moves the file content onto level d. Preference order:
// reuse the foreground's full read, then the chunked copy (when
// configured and the tier supports range writes), then the backend's
// whole-file copy fast path, then an explicit read-modify-write through
// this process.
func (pl *placer) copyInto(ctx context.Context, d *driver, a attempt) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m, e := pl.m, a.e
	src := m.source.backend
	switch {
	case a.reuse():
		m.stats.fullReadReuses.Add(1)
		return d.backend.WriteFile(ctx, e.name, a.full)
	case !m.cfg.FullFileFetch:
		// Ablation: no full-file fetch. Without the optimisation the
		// middleware can only cache content the framework explicitly
		// read in full, so a partial first read places nothing.
		return errFetchDisabled
	}
	if rw, ok := d.backend.(storage.RangeWriter); ok && m.cfg.ChunkSize > 0 && e.size > 0 {
		// ErrUnsupported: an instrumentation wrapper advertised range
		// writes its inner backend lacks — fall back to whole-file.
		if err := pl.placeChunked(ctx, d, rw, a); !errors.Is(err, errors.ErrUnsupported) {
			return err
		}
	}
	if cp, ok := d.backend.(storage.Copier); ok {
		return cp.CopyFrom(ctx, src, e.name)
	}
	data, err := src.ReadFile(ctx, e.name)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return d.backend.WriteFile(ctx, e.name, data)
}

// errFetchDisabled marks placements skipped by the abl-fullfetch
// configuration: a skip in settle's table, not an operational failure.
var errFetchDisabled = errors.New("monarch: full-file fetch disabled")

// placeChunked allocates e at full size on d and copies it window by
// window, in offset order, on the calling task: each ChunkSize window is
// one source ReadAt and one WriteAt, and raises the entry's landed
// watermark over it, so the foreground reads the landed prefix — what a
// sequential reader asks for next — from d mid-copy. It returns the
// Allocate error (ErrNoSpace routes the caller to the next level,
// errors.ErrUnsupported to the whole-file path), or what stopped the copy
// short, a failed window or cancellation, for settle's table to sort.
func (pl *placer) placeChunked(ctx context.Context, d *driver, rw storage.RangeWriter, a attempt) error {
	m, e := pl.m, a.e
	if err := rw.Allocate(ctx, e.name, e.size); err != nil {
		return err
	}
	e.arm(d.level)
	chunk := m.cfg.ChunkSize
	buf := bufpool.Get(int(min(chunk, e.size)))
	defer bufpool.Put(buf)
	for off := int64(0); off < e.size; off += chunk {
		// A long chunked copy yields between windows when a checkpoint
		// burst starts mid-flight.
		m.writes.pauseForBurst(ctx)
		if err := ctx.Err(); err != nil {
			return err
		}
		start, want := time.Now(), min(e.size-off, chunk)
		n, err := m.source.backend.ReadAt(ctx, e.name, buf[:want], off)
		if err != nil {
			return err
		}
		if int64(n) < want {
			return fmt.Errorf("monarch: chunk at %d of %q: source truncated at %d/%d bytes",
				off, e.name, off+int64(n), e.size)
		}
		if _, err := rw.WriteAt(ctx, e.name, buf[:want], off); err != nil {
			return err
		}
		e.advance(off + want)
		m.stats.chunkPlacements.Add(1)
		m.stats.writtenBytes[d.level].Add(want)
		dur := time.Since(start)
		m.inst.chunkCopyLatency.Observe(dur.Seconds())
		m.span(obs.Span{Kind: obs.SpanChunkCopy, File: e.name, Tier: d.level, Off: off, Bytes: want,
			Attempt: a.n, Duration: dur})
		m.event(Event{Kind: EventChunkPlaced, File: e.name, Level: d.level, Bytes: want})
	}
	return nil
}

// errUnknownVictim marks a policy proposing a file absent from the
// namespace; tryMakeRoom gives up rather than trusting the policy
// further.
var errUnknownVictim = errors.New("monarch: eviction victim missing from namespace")

// tryMakeRoom applies the configured eviction policy until e fits on
// d. The policy sees the candidate, so admission — the heat engine's
// quota reclaim or heat-vs-margin contest — happens inside victim
// selection; LRU and FIFO (abl-eviction) ignore it and make room
// unconditionally. The file being placed is never its own victim, and a
// victim proposed twice aborts the loop so a policy that ignores
// OnEvicted cannot spin it forever.
func (pl *placer) tryMakeRoom(ctx context.Context, d *driver, e *fileEntry) bool {
	policy := pl.m.cfg.Eviction
	if policy == nil {
		return false
	}
	if c := d.backend.Capacity(); c > 0 && e.size > c {
		return false // would never fit, even empty
	}
	var tried map[string]bool
	for storage.Free(d.backend) < e.size {
		victim, ok := policy.Victim(e.name, d.level)
		if !ok || victim == e.name || tried[victim] {
			return false
		}
		if tried == nil {
			tried = make(map[string]bool)
		}
		tried[victim] = true
		if _, err := pl.evict(ctx, d, victim); err != nil {
			return false
		}
		// A stale victim (freed=false, nil error) just loops: evict
		// already dropped it from the policy's books, so the next
		// iteration proposes someone else.
	}
	return true
}

// evict removes the victim from d on behalf of a placement. It reports
// freed=true when bytes actually left the tier; freed=false with a nil
// error means the victim was stale — no longer placed on d (concurrent
// eviction or demotion, or pinned by an in-flight chunked placement) —
// and the caller should ask the policy for another candidate.
func (pl *placer) evict(ctx context.Context, d *driver, name string) (bool, error) {
	m := pl.m
	e, ok := m.meta.get(name)
	if !ok {
		return false, errUnknownVictim
	}
	// Writable files are never victims: a dirty one holds the only
	// tiered copy of acked bytes, and even a clean one belongs to the
	// Remove lifecycle, not the placement policy. Defense in depth — the
	// write path keeps them out of Eviction.OnPlaced, so a policy
	// proposing one is working from corrupt books; treat it as stale.
	if e.writable {
		m.cfg.Eviction.OnEvicted(name)
		return false, nil
	}
	// Metadata first: the moment the entry re-points at the source, new
	// lookups route there and never observe the removal below. A reader
	// already routed to the tier sees the generation bump, and the read
	// plan re-serves it from the source as a clean eviction race.
	if !e.markEvictedFrom(d.level, m.source.level) {
		m.cfg.Eviction.OnEvicted(name) // stale books: drop the ghost
		return false, nil
	}
	start := time.Now()
	m.cfg.Eviction.OnEvicted(name)
	// Past markEvictedFrom no ledger or policy knows the copy, so Remove
	// outlives a Shutdown of the pool task, as settle's cleanup does.
	err := notExistOK(d.backend.Remove(context.WithoutCancel(ctx), name))
	// Only now, with Remove returned, may the entry re-queue and the
	// job's quota free up: a re-placement admitted any earlier could land
	// its copy just in time for this Remove to delete it, leaving
	// metadata that says placed over a tier that holds nothing.
	job := m.tenants.job(name)
	m.tenants.release(job, d.level, e.size)
	e.evictDone()
	if err != nil {
		// The entry routes to the source so reads stay correct, but the
		// tier freed nothing — surface the wedged eviction.
		m.opError(stageEvict, name, d.level, err)
		return false, err
	}
	m.stats.evictions.Add(1)
	m.stats.jobEviction(m.tenants, job)
	m.event(Event{Kind: EventEvicted, File: name, Level: d.level, Bytes: e.size})
	m.span(obs.Span{Kind: obs.SpanEvict, File: name, Tier: d.level, Bytes: e.size, Duration: time.Since(start)})
	return true, nil
}

// preStage implements StagePreTraining: synchronously walk the
// namespace in name order, placing every file until the upper tiers
// fill. It runs on the caller (no thread pool) because the paper's
// option i happens before training starts: every copy, whole-file or
// chunked, has completed by the time preStage returns. Cancelling the
// context aborts the walk.
func (m *Monarch) preStage(ctx context.Context) error {
	for _, e := range m.meta.sortedEntries() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !m.owns(e.name) {
			continue
		}
		if !e.tryQueue() {
			continue
		}
		m.placer.place(ctx, attempt{e: e, n: 1})
	}
	return nil
}
