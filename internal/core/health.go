package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"monarch/internal/bufpool"
	"monarch/internal/obs"
	"monarch/internal/storage"
)

// This file implements the tier fault-management subsystem. The paper's
// resilience property (§III: the PFS always holds the full dataset, so
// losing an upper tier degrades performance, never correctness) is made
// operational in three parts:
//
//   - a per-tier circuit breaker: consecutive read/write errors move a
//     tier Healthy → Suspect → Down; once Down, reads of entries placed
//     there are demoted to the source level in a single metadata update
//     (no per-read doomed attempt) and new placements skip the tier;
//   - a placement retry policy (Config.Retry): transient write failures
//     re-queue with backoff instead of permanently marking the file
//     unplaceable;
//   - recovery probing: while a tier is Down, the read path periodically
//     schedules a cheap write-probe on the placement pool; when it
//     succeeds the tier returns to service and demoted/unplaceable
//     entries become re-placeable.

// TierState is the circuit-breaker state of one hierarchy level.
type TierState int32

const (
	// TierHealthy: the tier is serving reads and accepting placements.
	TierHealthy TierState = iota
	// TierSuspect: recent errors were observed but the breaker has not
	// tripped; the tier is still used, and one success clears the state.
	TierSuspect
	// TierDown: the breaker is open. Reads route around the tier,
	// placements skip it, and only a successful recovery probe closes
	// the breaker again.
	TierDown
)

// String names the state.
func (s TierState) String() string {
	switch s {
	case TierHealthy:
		return "healthy"
	case TierSuspect:
		return "suspect"
	case TierDown:
		return "down"
	default:
		return "unknown"
	}
}

// HealthConfig tunes the per-tier circuit breaker; zero fields take the
// defaults.
type HealthConfig struct {
	// ReadErrorThreshold is the number of consecutive failed reads that
	// trips a tier to Down (default 3).
	ReadErrorThreshold int
	// WriteErrorThreshold is the number of consecutive failed placement
	// writes that trips a tier to Down (default 3).
	WriteErrorThreshold int
	// ProbeAfterReads is how many foreground reads must pass between
	// recovery probes of a Down tier (default 16). Probes run on the
	// placement pool, never on the read path.
	ProbeAfterReads int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.ReadErrorThreshold <= 0 {
		c.ReadErrorThreshold = 3
	}
	if c.WriteErrorThreshold <= 0 {
		c.WriteErrorThreshold = 3
	}
	if c.ProbeAfterReads <= 0 {
		c.ProbeAfterReads = 16
	}
	return c
}

// RetryPolicy tunes placement retries (Config.Retry). The zero value
// disables retries: any operational write failure marks the file
// unplaceable, as before.
type RetryPolicy struct {
	// MaxAttempts is the total number of placement attempts per
	// scheduling, including the first; values <= 1 disable retries.
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per
	// attempt. Zero retries immediately (useful in tests).
	Backoff time.Duration
	// Sleep overrides how the backoff waits (simulations substitute
	// virtual time). The default sleeps real time, aborting on ctx
	// cancellation.
	Sleep func(ctx context.Context, d time.Duration)
}

func (r RetryPolicy) enabled() bool { return r.MaxAttempts > 1 }

// transient classifies err; only transient errors are retried. Quota
// (ErrNoSpace), read-only, missing-file and context errors are
// permanent; everything else (EIO-like device errors) is transient.
func (r RetryPolicy) transient(err error) bool {
	switch {
	case errors.Is(err, storage.ErrNoSpace),
		errors.Is(err, storage.ErrReadOnly),
		errors.Is(err, storage.ErrNotExist),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// backoff returns the wait before attempt+1 (attempt is 1-based).
func (r RetryPolicy) backoff(attempt int) time.Duration {
	return r.Backoff << (attempt - 1)
}

// wait blocks for the attempt's backoff, aborting on cancellation.
func (r RetryPolicy) wait(ctx context.Context, attempt int) {
	d := r.backoff(attempt)
	if d <= 0 {
		return
	}
	if r.Sleep != nil {
		r.Sleep(ctx, d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// tierHealth is the breaker state of one upper tier. The state field is
// read on every foreground read, so it is atomic; the mutex guards
// transitions and the probe gate.
type tierHealth struct {
	state atomic.Int32

	mu         sync.Mutex
	readErrs   int
	writeErrs  int
	sinceProbe int
	probing    bool
}

// healthTracker holds the breaker for every upper tier (the source
// level is never tracked: the PFS always holds the dataset and has no
// tier to fall back to).
type healthTracker struct {
	cfg   HealthConfig
	tiers []*tierHealth
}

func newHealthTracker(cfg HealthConfig, upperLevels int) *healthTracker {
	h := &healthTracker{cfg: cfg.withDefaults()}
	for i := 0; i < upperLevels; i++ {
		h.tiers = append(h.tiers, &tierHealth{})
	}
	return h
}

// tier returns the breaker for level, or nil when the level is not
// tracked (source level or out of range).
func (h *healthTracker) tier(level int) *tierHealth {
	if h == nil || level < 0 || level >= len(h.tiers) {
		return nil
	}
	return h.tiers[level]
}

// state reports level's breaker state (untracked levels are Healthy).
func (h *healthTracker) state(level int) TierState {
	t := h.tier(level)
	if t == nil {
		return TierHealthy
	}
	return TierState(t.state.Load())
}

func (h *healthTracker) isDown(level int) bool { return h.state(level) == TierDown }

// recordReadError counts a failed foreground read against level; it
// reports whether this error tripped the breaker open.
func (h *healthTracker) recordReadError(level int) bool { return h.recordError(level, true) }

// recordWriteError counts a failed placement write against level.
func (h *healthTracker) recordWriteError(level int) bool { return h.recordError(level, false) }

func (h *healthTracker) recordError(level int, read bool) (tripped bool) {
	t := h.tier(level)
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TierState(t.state.Load())
	if st == TierDown {
		return false
	}
	var n, threshold int
	if read {
		t.readErrs++
		n, threshold = t.readErrs, h.cfg.ReadErrorThreshold
	} else {
		t.writeErrs++
		n, threshold = t.writeErrs, h.cfg.WriteErrorThreshold
	}
	if n >= threshold {
		t.state.Store(int32(TierDown))
		t.readErrs, t.writeErrs = 0, 0
		t.sinceProbe, t.probing = 0, false
		return true
	}
	if st == TierHealthy {
		t.state.Store(int32(TierSuspect))
	}
	return false
}

// forceDown opens level's breaker unconditionally; it reports whether
// this call performed the Healthy/Suspect→Down transition (false when
// the level is untracked or already Down).
func (h *healthTracker) forceDown(level int) bool {
	t := h.tier(level)
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if TierState(t.state.Load()) == TierDown {
		return false
	}
	t.state.Store(int32(TierDown))
	t.readErrs, t.writeErrs = 0, 0
	t.sinceProbe, t.probing = 0, false
	return true
}

// recordReadOK closes the consecutive-read-error window after a
// successful read. Healthy tiers take the lock-free fast path: errors
// always move the state to Suspect first, so Healthy implies zero
// counters.
func (h *healthTracker) recordReadOK(level int) { h.recordOK(level, true) }

// recordWriteOK closes the write-error window after a successful
// placement.
func (h *healthTracker) recordWriteOK(level int) { h.recordOK(level, false) }

func (h *healthTracker) recordOK(level int, read bool) {
	t := h.tier(level)
	if t == nil || TierState(t.state.Load()) != TierSuspect {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if read {
		t.readErrs = 0
	} else {
		t.writeErrs = 0
	}
	if t.readErrs == 0 && t.writeErrs == 0 && TierState(t.state.Load()) == TierSuspect {
		t.state.Store(int32(TierHealthy))
	}
}

// observeDown is called once per foreground read for each Down tier; it
// reports whether the caller should launch a recovery probe now. At
// most one probe is in flight per tier, spaced ProbeAfterReads reads
// apart, so probing cost is bounded and deterministic under simulation.
func (h *healthTracker) observeDown(level int) bool {
	t := h.tier(level)
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if TierState(t.state.Load()) != TierDown || t.probing {
		return false
	}
	t.sinceProbe++
	if t.sinceProbe < h.cfg.ProbeAfterReads {
		return false
	}
	t.sinceProbe = 0
	t.probing = true
	return true
}

// probeDone records a probe outcome; recovered reports a Down→Healthy
// transition.
func (h *healthTracker) probeDone(level int, success bool) (recovered bool) {
	t := h.tier(level)
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.probing = false
	if !success || TierState(t.state.Load()) != TierDown {
		return false
	}
	t.state.Store(int32(TierHealthy))
	t.readErrs, t.writeErrs = 0, 0
	t.sinceProbe = 0
	return true
}

// probeAborted clears the probing latch when a probe could not run
// (pool closed or context cancelled).
func (h *healthTracker) probeAborted(level int) { h.probeDone(level, false) }

// TierState reports the circuit-breaker state of a hierarchy level. The
// source level is always TierHealthy.
func (m *Monarch) TierState(level int) TierState {
	return m.health.state(level)
}

// ReportTierError feeds an externally observed failure of level into
// its circuit breaker, exactly as if a foreground read had failed
// there. Cluster machinery uses it to translate out-of-band evidence —
// a peer marked Dead by gossip membership, say — into breaker pressure
// without waiting for reads to fail one by one. Errors accumulate
// toward ReadErrorThreshold, so isolated reports only move the tier to
// Suspect; repeated reports trip it.
func (m *Monarch) ReportTierError(level int, err error) {
	if level < 0 || level >= len(m.levels) || level == m.source.level {
		return
	}
	if tripped := m.health.recordReadError(level); tripped {
		m.tierDown(level, err)
	}
}

// ForceTierDown opens level's breaker immediately, skipping the
// consecutive-error window. It is the demotion path for definitive
// evidence: when membership declares every replica of a peer tier Dead,
// counting to the threshold would just burn doomed reads. Recovery
// still goes through the normal probe cycle, so a rejoining cluster
// closes the breaker the same way a repaired device does. The source
// level and untracked levels are never forced.
func (m *Monarch) ForceTierDown(level int, err error) {
	if level < 0 || level >= len(m.levels) || level == m.source.level {
		return
	}
	if m.health.forceDown(level) {
		m.tierDown(level, err)
	}
}

// errTierDown stands in for an external report's missing evidence: a
// breaker span tells a trip from a recovery by its Err.
var errTierDown = errors.New("monarch: tier reported down")

// tierDown records a breaker trip: stats, span, and nothing else — the
// demotions that follow happen lazily, one metadata update per entry on
// its next read.
func (m *Monarch) tierDown(level int, err error) {
	if err == nil {
		err = errTierDown
	}
	m.stats.tierTrips.Add(1)
	m.span(obs.Span{Kind: obs.SpanBreaker, Tier: level, Err: err})
}

// demote re-points an entry placed on a Down tier at the source level
// so subsequent reads skip the broken tier entirely. The entry's bytes
// leave its job's quota ledger: a demoted file is served from the
// source, and its re-placement after recovery charges the job again.
func (m *Monarch) demote(e *fileEntry, from int) {
	if e.markDemoted(from, m.source.level) {
		m.tenants.release(m.tenants.job(e.name), from, e.size)
		m.stats.demotions.Add(1)
		m.span(obs.Span{Kind: obs.SpanDemote, File: e.name, Tier: from, Bytes: e.size})
	}
}

// tickProbes advances the probe gate of every Down tier; called once
// per foreground read. The atomic state load keeps the healthy path
// free of locks.
func (m *Monarch) tickProbes() {
	h := m.health
	for lvl, t := range h.tiers {
		if TierState(t.state.Load()) == TierDown && h.observeDown(lvl) {
			m.submitProbe(lvl)
		}
	}
}

// submitProbe schedules a recovery probe of level on the placement
// pool.
func (m *Monarch) submitProbe(level int) {
	d := m.levels[level]
	ok := m.placer.submit(func(ctx context.Context) { m.runProbe(ctx, d) })
	if !ok {
		m.health.probeAborted(level)
	}
}

// runProbe checks whether a Down tier answers again. On success the
// breaker closes and every demoted/unplaceable entry becomes
// re-placeable, so the next epoch's reads restore the cached-tier pace.
func (m *Monarch) runProbe(ctx context.Context, d *driver) {
	start := time.Now()
	m.stats.probes.Add(1)
	err, cleanupErr := probeBackend(ctx, d.backend)
	if cleanupErr != nil {
		// The probe file lingering on a live tier is harmless but worth
		// knowing about.
		m.opError(stageCleanup, probeFile, d.level, cleanupErr)
	}
	if ctx.Err() != nil {
		m.health.probeAborted(d.level)
		return
	}
	if err != nil {
		m.inst.errs[stageProbe].Inc()
	}
	m.span(obs.Span{Kind: obs.SpanTierProbe, Tier: d.level, Err: err, Duration: time.Since(start)})
	if recovered := m.health.probeDone(d.level, err == nil); recovered {
		n := m.meta.resetForReplacement()
		m.stats.tierRecoveries.Add(1)
		m.span(obs.Span{Kind: obs.SpanBreaker, Tier: d.level, Bytes: int64(n)})
	}
}

// probeFile is the scratch name recovery probes write. It carries the
// temp prefix no backend listing reports, so one a crash left behind
// never becomes a dataset file (the probe removes its file immediately).
const probeFile = storage.TempPrefix + "probe"

// probeBackend is the cheap liveness check: a one-byte write, removed
// on success. Errors that prove the device responded (quota exhausted,
// read-only, pre-existing file) count as alive — the tier can still
// serve reads of previously placed data. cleanupErr reports a failed
// best-effort removal of the scratch file so the caller can surface it.
func probeBackend(ctx context.Context, b storage.Backend) (err, cleanupErr error) {
	// Backends with a native liveness check (the peer tier is read-only
	// AND reports zero free space, so the write probe below would judge
	// it alive without ever touching the network) answer directly.
	if p, ok := b.(storage.Pinger); ok {
		return p.Ping(ctx), nil
	}
	scratch := bufpool.Get(1)
	scratch[0] = 0
	err = b.WriteFile(ctx, probeFile, scratch)
	bufpool.Put(scratch)
	switch {
	case err == nil:
		if rmErr := b.Remove(ctx, probeFile); rmErr != nil && !errors.Is(rmErr, storage.ErrNotExist) {
			cleanupErr = rmErr
		}
		return nil, cleanupErr
	case errors.Is(err, storage.ErrNoSpace),
		errors.Is(err, storage.ErrReadOnly),
		errors.Is(err, storage.ErrExist):
		return nil, nil
	default:
		return err, nil
	}
}
