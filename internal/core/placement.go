package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
}

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

// onAccess is called from the foreground read path. If this is the
// file's first access it schedules a placement task; full, when
// non-nil, is the complete file content the framework just read (the
// §III-B fast path that skips the source re-read) — borrowed from the
// caller, so the placement that wins the queue takes its own copy.
func (pl *placer) onAccess(e *fileEntry, full []byte) {
	// Snapshot fast-skip: once the file left Source (queued, placed,
	// unplaceable, ...) every subsequent read would pay the entry mutex
	// in tryQueue just to learn there is nothing to do. tryQueue stays
	// the authoritative, mutex-guarded transition for the one read that
	// actually races the snapshot.
	if e.currentState() != stateSource {
		return
	}
	if pl.m.writes.protected(e.name) {
		// Writable files never enter the placement pipeline: a tier copy
		// of a write-through file would go stale on its next WriteAt.
		return
	}
	if !e.tryQueue() {
		return
	}
	full = append([]byte(nil), full...)
	if !pl.submit(func(ctx context.Context) { pl.place(ctx, e, full, 1, true) }) {
		e.markUnplaceable() // pool closed: no placement for this job
		return
	}
	pl.m.span(obs.Span{Kind: obs.SpanPlacementEnqueue, File: e.name, Tier: -1, Bytes: e.size})
}

// placed records a successful placement of e onto d: metadata, stats,
// the enqueue-to-landed latency histogram, the placement span, the
// event, and the eviction hook — shared by the whole-file and chunked
// paths so the two can never diverge in bookkeeping. reuse marks a
// placement satisfied from the foreground's full read (no source
// traffic), which the span advertises so trace consumers can account
// PFS operations correctly.
func (pl *placer) placed(e *fileEntry, d *driver, attempt int, wroteBytes, reuse bool) {
	m := pl.m
	queued := e.queuedSince()
	m.health.recordWriteOK(d.level)
	// Charge the job before the entry turns evictable: an eviction can
	// begin the moment markPlaced publishes, and a release that outruns
	// its charge clamps at zero, leaving the job over-billed for good.
	m.tenants.charge(m.tenants.job(e.name), d.level, e.size)
	e.markPlaced(d.level)
	m.stats.placedOn(d.level, e.size)
	if wroteBytes {
		m.stats.writtenBytes[d.level].Add(e.size)
	}
	var dur time.Duration
	if !queued.IsZero() {
		dur = time.Since(queued)
		m.inst.placementLatency.Observe(dur.Seconds())
	}
	var flags obs.SpanFlags
	if reuse {
		flags |= obs.FlagReuse
	}
	m.span(obs.Span{Kind: obs.SpanPlacement, File: e.name, Tier: d.level, Bytes: e.size, Attempt: attempt, Flags: flags, Duration: dur})
	m.event(Event{Kind: EventPlaced, File: e.name, Level: d.level, Bytes: e.size})
	if m.cfg.Eviction != nil {
		m.cfg.Eviction.OnPlaced(e.name, d.level)
	}
}

// placementSkipped records a terminal skip (no tier had room, or the
// fetch ablation disabled copying).
func (pl *placer) placementSkipped(e *fileEntry, cause error) {
	m := pl.m
	m.stats.placementSkips.Add(1)
	m.span(obs.Span{Kind: obs.SpanPlacement, File: e.name, Tier: -1, Bytes: e.size, Err: cause,
		Duration: sinceQueued(e)})
	m.event(Event{Kind: EventSkipped, File: e.name, Level: -1})
	e.markUnplaceable()
}

// placementFailed records a terminal operational failure on level.
func (pl *placer) placementFailed(e *fileEntry, level, attempt int, err error) {
	m := pl.m
	m.stats.placementErrors.Add(1)
	m.inst.errs[stagePlacement].Inc()
	m.span(obs.Span{Kind: obs.SpanPlacement, File: e.name, Tier: level, Bytes: e.size,
		Attempt: attempt, Err: err, Duration: sinceQueued(e)})
	m.event(Event{Kind: EventFailed, File: e.name, Level: level, Err: err})
	e.markUnplaceable()
}

func sinceQueued(e *fileEntry) time.Duration {
	if q := e.queuedSince(); !q.IsZero() {
		return time.Since(q)
	}
	return 0
}

// place copies e into the first healthy tier with room; attempt is
// 1-based. allowChunks permits the chunked fan-out (pre-staging keeps
// it off: it must finish synchronously before training starts). The
// paper's policy never evicts; the eviction ablations hook in through
// tryMakeRoom.
func (pl *placer) place(ctx context.Context, e *fileEntry, full []byte, attempt int, allowChunks bool) {
	m := pl.m
	if ctx.Err() != nil {
		e.cancelQueued() // shut down mid-queue: not a placement failure
		return
	}
	// Checkpoint-burst gate: while foreground writes are landing (or
	// their dirty backlog is draining), background copies would fight
	// them for tier and PFS bandwidth — hold here until the burst ends.
	m.writes.pauseForBurst(ctx)
	if ctx.Err() != nil {
		e.cancelQueued()
		return
	}
	for _, d := range m.levels[:len(m.levels)-1] {
		if m.cfg.Peer.enabled() && d.level == m.cfg.Peer.Tier {
			continue // the peer tier is a read-only view of siblings, never a destination
		}
		if m.health.isDown(d.level) {
			continue // breaker open: never write into a dead tier
		}
		if storage.Free(d.backend) < e.size {
			if !pl.tryMakeRoom(ctx, d, e) {
				continue
			}
		}
		err := pl.copyInto(ctx, d, e, full, attempt, allowChunks)
		if err == nil {
			// Mirrors copyInto's first case: a full foreground read was
			// written straight through, with no source fetch.
			reuse := full != nil && int64(len(full)) == e.size
			pl.placed(e, d, attempt, true, reuse)
			return
		}
		if errors.Is(err, errChunksDelegated) {
			// A chunk job now owns this placement; it finalises the
			// entry, stats and events when the last chunk resolves.
			return
		}
		if errors.Is(err, storage.ErrNoSpace) {
			// Lost a quota race with a concurrent placement; try the
			// next level down.
			continue
		}
		if errors.Is(err, errFetchDisabled) {
			pl.placementSkipped(e, err)
			return
		}
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			e.cancelQueued() // cancelled copy: not a placement failure
			return
		}
		// Operational failure: feed the breaker, then retry or give up.
		if m.health.recordWriteError(d.level) {
			m.tierDown(d.level, err)
		}
		if pl.retry(e, full, attempt, d.level, err, allowChunks) {
			return
		}
		pl.placementFailed(e, d.level, attempt, err)
		return
	}
	pl.placementSkipped(e, storage.ErrNoSpace)
}

// retry re-queues a transiently failed placement with backoff; it
// reports whether the failure was handled (a retry was scheduled, or
// the pool closed while scheduling it).
func (pl *placer) retry(e *fileEntry, full []byte, attempt, level int, err error, allowChunks bool) bool {
	m := pl.m
	r := m.cfg.Retry
	if !r.enabled() || attempt >= r.MaxAttempts || !r.transient(err) {
		return false
	}
	m.stats.retries.Add(1)
	m.event(Event{Kind: EventRetried, File: e.name, Level: level, Err: err})
	next := attempt + 1
	if !pl.submit(func(ctx context.Context) {
		r.wait(ctx, attempt)
		pl.place(ctx, e, full, next, allowChunks)
	}) {
		e.markUnplaceable() // pool closed between failure and retry
	}
	return true
}

// copyInto moves the file content onto level d. Preference order:
// reuse the foreground's full read, then the chunked fan-out (when
// configured and the tier supports range writes), then the backend's
// whole-file copy fast path, then an explicit read-modify-write through
// this process.
func (pl *placer) copyInto(ctx context.Context, d *driver, e *fileEntry, full []byte, attempt int, allowChunks bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m := pl.m
	src := m.source.backend
	switch {
	case full != nil && int64(len(full)) == e.size:
		m.stats.fullReadReuses.Add(1)
		return d.backend.WriteFile(ctx, e.name, full)
	case !m.cfg.FullFileFetch:
		// Ablation: no full-file fetch. Without the optimisation the
		// middleware can only cache content the framework explicitly
		// read in full, so a partial first read places nothing.
		return errFetchDisabled
	default:
		if allowChunks && m.cfg.ChunkSize > 0 && e.size > 0 {
			if rw, ok := d.backend.(storage.RangeWriter); ok {
				err := pl.placeChunked(ctx, d, rw, e, attempt)
				if !errors.Is(err, errors.ErrUnsupported) {
					return err
				}
				// An instrumentation wrapper advertised range writes
				// its inner backend lacks: fall back to whole-file.
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
}

// errChunksDelegated signals that a chunk job has taken ownership of
// the placement: the calling place() must return without touching the
// entry, because the job finalises success/failure asynchronously.
var errChunksDelegated = errors.New("monarch: chunked placement in flight")

// placeChunked allocates e at full size on d and fans its chunks out
// across the pool: min(pool workers, chunk count) claim-loop workers
// each pull the next unclaimed chunk, copy it, and flip its presence
// bit — so the foreground can read completed ranges mid-copy. The
// calling task itself becomes one of the workers (placement never
// deadlocks on a saturated pool), and whichever worker exits last
// finalises the placement. Returns errChunksDelegated once the job is
// running, or the Allocate error (ErrNoSpace routes the caller to the
// next level; errors.ErrUnsupported routes to the whole-file path).
func (pl *placer) placeChunked(ctx context.Context, d *driver, rw storage.RangeWriter, e *fileEntry, attempt int) error {
	if err := rw.Allocate(ctx, e.name, e.size); err != nil {
		return err
	}
	chunk := pl.m.cfg.ChunkSize
	e.beginChunks(d.level, chunk)
	j := &chunkJob{
		pl:      pl,
		d:       d,
		rw:      rw,
		e:       e,
		chunk:   chunk,
		nchunks: int64(chunkCount(e.size, chunk)),
		attempt: attempt,
	}
	fan := int64(pl.m.cfg.Pool.Workers())
	if fan > j.nchunks {
		fan = j.nchunks
	}
	j.workers.Store(1) // the calling task is worker zero
	for i := int64(1); i < fan; i++ {
		j.workers.Add(1)
		if !pl.submit(j.run) {
			j.workers.Add(-1) // pool closed: run with fewer workers
		}
	}
	j.run(ctx)
	return errChunksDelegated
}

// chunkJob is one file's in-flight chunked placement.
type chunkJob struct {
	pl      *placer
	d       *driver
	rw      storage.RangeWriter
	e       *fileEntry
	chunk   int64
	nchunks int64
	attempt int

	next    atomic.Int64 // next chunk index to claim
	done    atomic.Int64 // chunks copied successfully
	workers atomic.Int64 // live claim-loop workers

	mu        sync.Mutex
	err       error // first operational failure
	cancelled bool
}

func (j *chunkJob) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
		// First failing worker charges the error funnel — exactly once
		// per failed job, however many workers observe the failure.
		j.pl.m.inst.errs[stageChunkCopy].Inc()
	}
}

func (j *chunkJob) failed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err != nil
}

func (j *chunkJob) cancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancelled = true
}

// run is one claim-loop worker: it pulls unclaimed chunk indices until
// they run out, the job fails, or the context is cancelled. The last
// worker to exit finalises the placement.
func (j *chunkJob) run(ctx context.Context) {
	buf := bufpool.Get(int(j.chunk))
	defer bufpool.Put(buf)
	for !j.failed() {
		if ctx.Err() != nil {
			j.cancel()
			break
		}
		// Per-chunk burst check: a long chunked copy yields between
		// chunks when a checkpoint burst starts mid-flight.
		j.pl.m.writes.pauseForBurst(ctx)
		if ctx.Err() != nil {
			j.cancel()
			break
		}
		i := j.next.Add(1) - 1
		if i >= j.nchunks {
			break
		}
		if err := j.copyChunk(ctx, i, buf); err != nil {
			if ctx.Err() != nil || errors.Is(err, context.Canceled) {
				j.cancel()
			} else {
				j.fail(err)
			}
			break
		}
	}
	if j.workers.Add(-1) == 0 {
		j.finish(ctx)
	}
}

// copyChunk moves chunk i from the source into the destination tier
// and, on success, flips its presence bit so the read path can serve it
// immediately.
func (j *chunkJob) copyChunk(ctx context.Context, i int64, buf []byte) error {
	m := j.pl.m
	start := time.Now()
	off := i * j.chunk
	want := j.e.size - off
	if want > j.chunk {
		want = j.chunk
	}
	n, err := m.source.backend.ReadAt(ctx, j.e.name, buf[:want], off)
	if err != nil {
		return err
	}
	if int64(n) < want {
		return fmt.Errorf("monarch: chunk %d of %q: source truncated at %d/%d bytes",
			i, j.e.name, off+int64(n), j.e.size)
	}
	if _, err := j.rw.WriteAt(ctx, j.e.name, buf[:want], off); err != nil {
		return err
	}
	j.e.markChunk(int(i))
	j.done.Add(1)
	m.stats.chunkPlacements.Add(1)
	m.stats.writtenBytes[j.d.level].Add(want)
	dur := time.Since(start)
	m.inst.chunkCopyLatency.Observe(dur.Seconds())
	m.span(obs.Span{Kind: obs.SpanChunkCopy, File: j.e.name, Tier: j.d.level, Off: off, Bytes: want,
		Attempt: j.attempt, Duration: dur})
	m.event(Event{Kind: EventChunkPlaced, File: j.e.name, Level: j.d.level, Bytes: want})
	return nil
}

// finish resolves the whole placement once the last worker exits:
// success mirrors the whole-file bookkeeping; a failed chunk removes
// the partial copy — demoting only this file — and classifies the
// error through the same retry/breaker machinery as whole-file
// placements; cancellation returns the entry to Source untouched.
func (j *chunkJob) finish(ctx context.Context) {
	m := j.pl.m
	e, d := j.e, j.d
	if j.done.Load() == j.nchunks {
		// Chunk bytes were charged to the tier as they landed, so the
		// shared bookkeeping must not add them again.
		j.pl.placed(e, d, j.attempt, false, false)
		return
	}
	e.clearChunks()
	j.mu.Lock()
	err, cancelled := j.err, j.cancelled
	j.mu.Unlock()
	if err == nil && cancelled {
		e.cancelQueued() // shutdown mid-copy: not a placement failure
		return
	}
	// A chunk failed: drop the partial copy so the tier never serves a
	// torn file, then feed the breaker and retry or give up — only this
	// file is affected unless the breaker trips the whole tier.
	if rmErr := d.backend.Remove(ctx, e.name); rmErr != nil && !errors.Is(rmErr, storage.ErrNotExist) {
		m.inst.errs[stageCleanup].Inc()
		m.event(Event{Kind: EventOpError, File: e.name, Level: d.level, Err: rmErr})
	}
	if m.health.recordWriteError(d.level) {
		m.tierDown(d.level, err)
	}
	if j.pl.retry(e, nil, j.attempt, d.level, err, true) {
		return
	}
	j.pl.placementFailed(e, d.level, j.attempt, err)
}

// errFetchDisabled marks placements skipped by the abl-fullfetch
// configuration; it routes to markUnplaceable via the placementErrors
// path but is not an operational failure.
var errFetchDisabled = errors.New("monarch: full-file fetch disabled")

// errUnknownVictim marks a policy proposing a file absent from the
// namespace; tryMakeRoom gives up rather than trusting the policy
// further.
var errUnknownVictim = errors.New("monarch: eviction victim missing from namespace")

// tryMakeRoom applies the configured eviction policy until e fits on
// d. With a victimChooser (the heat engine) the candidate is in view,
// so admission — quota reclaim or the heat-vs-margin contest — happens
// inside victim selection; plain policies (the abl-eviction LRU/FIFO)
// keep their unconditional make-room behaviour. The file being placed
// is never its own victim, and a victim proposed twice aborts the loop
// so a policy that ignores OnEvicted cannot spin it forever.
func (pl *placer) tryMakeRoom(ctx context.Context, d *driver, e *fileEntry) bool {
	policy := pl.m.cfg.Eviction
	if policy == nil {
		return false
	}
	if c := d.backend.Capacity(); c > 0 && e.size > c {
		return false // would never fit, even empty
	}
	chooser, _ := policy.(victimChooser)
	var tried map[string]bool
	for storage.Free(d.backend) < e.size {
		var victim string
		var ok bool
		if chooser != nil {
			victim, ok = chooser.VictimFor(e.name, d.level)
		} else {
			victim, ok = policy.Victim(d.level)
		}
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
	if m.writes.protected(name) {
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
	err := d.backend.Remove(ctx, name)
	// Only now, with Remove returned, may the entry re-queue and the
	// job's quota free up: a re-placement admitted any earlier could land
	// its copy just in time for this Remove to delete it, leaving
	// metadata that says placed over a tier that holds nothing.
	job := m.tenants.job(name)
	m.tenants.release(job, d.level, e.size)
	e.evictDone()
	if err != nil && !errors.Is(err, storage.ErrNotExist) {
		// The entry routes to the source so reads stay correct, but the
		// tier freed nothing — surface the wedged eviction.
		m.inst.errs[stageEvict].Inc()
		m.event(Event{Kind: EventOpError, File: name, Level: d.level, Err: err})
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
// option i happens before training starts; for the same reason the
// chunked fan-out is disabled here — every copy must have completed by
// the time preStage returns. Cancelling the context aborts the walk.
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
		m.placer.place(ctx, e, nil, 1, false)
	}
	return nil
}
