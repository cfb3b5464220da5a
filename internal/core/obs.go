package core

import (
	"fmt"
	"net"
	"net/http"
	"strconv"

	"monarch/internal/obs"
	"monarch/internal/pool"
)

// errStage indexes the monarch_errors_total funnel. Every error the
// middleware observes — including ones it previously dropped on
// best-effort paths — increments exactly one stage.
type errStage int

const (
	// stageTierRead: an upper-tier read failed and the read fell back
	// to the source.
	stageTierRead errStage = iota
	// stagePeer: a peer-tier read failed (transport or remote error —
	// NOT a clean miss) and the read fell back to the source.
	stagePeer
	// stageRead: a foreground read failed to the caller.
	stageRead
	// stagePlacement: a placement reached terminal failure.
	stagePlacement
	// stageChunkCopy: a chunk copy of a chunked placement failed (counted
	// once per failed job, when it settles).
	stageChunkCopy
	// stageProbe: a recovery probe found the tier still dead.
	stageProbe
	// stageEvict: an eviction victim could not be removed.
	stageEvict
	// stageCleanup: a best-effort removal failed (the torn copy a failed
	// or cancelled chunked copy left, a probe's scratch file) — or the trace
	// sink's close.
	stageCleanup
	// stageWrite: a foreground Create/WriteAt/Remove failed to the
	// caller.
	stageWrite
	// stageFlush: a background flush of a write-back file to the PFS
	// failed (the bytes stay dirty and journaled; the flush retries).
	stageFlush
	// stageJournal: a write-journal append, compaction or close failed.
	stageJournal
	numStages
)

// stageNames is the one table of stage label values; the counters are
// registered from it in errStage order.
var stageNames = [numStages]string{
	stageTierRead: "tier-read", stagePeer: "peer", stageRead: "read",
	stagePlacement: "placement", stageChunkCopy: "chunk-copy", stageProbe: "probe",
	stageEvict: "evict", stageCleanup: "cleanup", stageWrite: "write",
	stageFlush: "flush", stageJournal: "journal",
}

// instruments bundles the registry and every handle the middleware
// updates outside the statsCollector: latency histograms, the error
// funnel, and per-event-kind counters. All handles are created once in
// initObs; hot paths only touch atomics.
type instruments struct {
	reg *obs.Registry

	readLatency      []*obs.Histogram // per tier, successful foreground reads
	placementLatency *obs.Histogram   // enqueue → placed, successful placements
	chunkCopyLatency *obs.Histogram   // one chunk, source → destination tier
	writeLatency     *obs.Histogram   // successful foreground writes, ack latency
	flushLatency     *obs.Histogram   // one write-back flush, tier 0 → PFS

	errs   [numStages]*obs.Counter // the monarch_errors_total funnel
	events [eventKinds]*obs.Counter
}

// initObs builds the registry view of the instance: histograms, error
// counters, event counters, derived gauges (hit ratio, breaker state,
// pool load), and the auto-instrumentation of levels that support it.
// Called from New after stats, placer and health exist.
func (m *Monarch) initObs() {
	reg := m.inst.reg
	obs.RegisterBuildInfo(reg, m.base)
	for i := range m.levels {
		m.inst.readLatency = append(m.inst.readLatency, reg.Histogram(
			"monarch_read_latency_seconds",
			"Latency of successful foreground reads, by serving level.",
			nil, obs.L("tier", strconv.Itoa(i))))
	}
	m.inst.placementLatency = reg.Histogram("monarch_placement_latency_seconds",
		"Enqueue-to-landed latency of successful placements (includes queue wait).", nil)
	m.inst.chunkCopyLatency = reg.Histogram("monarch_chunk_copy_latency_seconds",
		"Latency of individual chunk copies within chunked placements.", nil)
	m.inst.writeLatency = reg.Histogram("monarch_write_latency_seconds",
		"Ack latency of successful foreground writes (both durability levels).", nil)
	m.inst.flushLatency = reg.Histogram("monarch_flush_latency_seconds",
		"Latency of background write-back flushes (tier 0 to the PFS).", nil)

	for st, name := range stageNames {
		m.inst.errs[st] = reg.Counter("monarch_errors_total",
			"Errors observed by the middleware, by pipeline stage.", obs.L("stage", name))
	}
	for k := EventKind(0); k < eventKinds; k++ {
		m.inst.events[k] = reg.Counter("monarch_events_total",
			"Middleware events emitted, by kind.", obs.L("kind", k.String()))
	}

	reg.GaugeFunc("monarch_hit_ratio",
		"Fraction of foreground reads served above the source level.",
		m.stats.hitRatio)
	reg.GaugeFunc("monarch_inflight_placements",
		"Queued or running placement tasks, including retries and probes.",
		func() float64 { return float64(m.placer.inFlight()) })
	if m.writes != nil {
		reg.GaugeFunc("monarch_dirty_bytes",
			"Write-back bytes acked by tier 0 but not yet flushed to the PFS.",
			func() float64 { return float64(m.writes.dirtyBytes()) })
		reg.GaugeFunc("monarch_write_burst_active",
			"1 while the checkpoint-burst gate holds background placement paused.",
			func() float64 {
				if m.writes.burstActive() {
					return 1
				}
				return 0
			})
	}
	for i := 0; i < len(m.levels)-1; i++ {
		lvl := i
		reg.GaugeFunc("monarch_tier_breaker_state",
			"Circuit-breaker state per tier: 0 healthy, 1 suspect, 2 down.",
			func() float64 { return float64(m.health.state(lvl)) },
			obs.L("tier", strconv.Itoa(lvl)))
	}
	p := m.cfg.Pool
	reg.GaugeFunc("monarch_pool_workers",
		"Fixed worker count of the placement pool.",
		func() float64 { return float64(p.Workers()) })
	reg.GaugeFunc("monarch_pool_queue_depth",
		"Placement tasks waiting for a worker.",
		func() float64 {
			if in, ok := p.(pool.Introspector); ok {
				s := in.Stats()
				return float64(s.Pending - s.Active)
			}
			return float64(p.Pending())
		})
	reg.GaugeFunc("monarch_pool_active_workers",
		"Workers currently running a placement task.",
		func() float64 {
			if in, ok := p.(pool.Introspector); ok {
				return float64(in.Stats().Active)
			}
			return 0
		})
	for i, d := range m.levels {
		b := d.backend
		tier := obs.L("tier", strconv.Itoa(i))
		reg.GaugeFunc("monarch_tier_used_bytes",
			"Bytes currently held by each level's backend.",
			func() float64 { return float64(b.Used()) }, tier)
		reg.GaugeFunc("monarch_tier_capacity_bytes",
			"Capacity each level's backend reports (0 = unlimited).",
			func() float64 { return float64(b.Capacity()) }, tier)
		if in, ok := b.(obs.Instrumentable); ok {
			in.Instrument(reg, tier)
		}
	}
}

// initTenantObs registers per-tenant quota gauges for every declared
// tenant and cache tier. Jobs discovered only at runtime still get
// their fairness counters lazily (statsCollector.job); quota gauges
// exist only for declared shares, because only those carry guarantees.
func (m *Monarch) initTenantObs() {
	if m.tenants == nil {
		return
	}
	reg := m.inst.reg
	for _, j := range m.tenants.jobs() {
		job := j
		for lvl := 0; lvl < len(m.levels)-1; lvl++ {
			level := lvl
			labels := []obs.Label{obs.L("job", job), obs.L("tier", strconv.Itoa(level))}
			reg.GaugeFunc("monarch_job_tier_used_bytes",
				"Bytes of a tenant job's files currently placed on a tier.",
				func() float64 { return float64(m.tenants.usedBytes(job, level)) },
				labels...)
			reg.GaugeFunc("monarch_job_tier_quota_bytes",
				"A tenant job's guaranteed share of a tier, in bytes.",
				func() float64 { return float64(m.tenants.guarantee(job, level)) },
				labels...)
		}
	}
}

// event is the single funnel every middleware event goes through: it
// bumps the per-kind counter, forwards to the (possibly nil) event
// log, and mirrors tier-state changes into the access trace — so the
// log, the registry and the trace can never disagree about what
// happened.
func (m *Monarch) event(e Event) {
	if k := int(e.Kind); k >= 0 && k < len(m.inst.events) {
		m.inst.events[k].Inc()
	}
	m.cfg.Events.emit(e)
	m.traceState(e)
}

// opError books the failure of a best-effort operation — cleanup after
// a failed copy, an eviction victim's removal, a probe's scratch file,
// a flush, a journal or trace-sink write: the work it served goes on and
// no caller sees err, so it lands on its stage of monarch_errors_total
// and in the event log, here and nowhere else.
func (m *Monarch) opError(stage errStage, file string, level int, err error) {
	m.inst.errs[stage].Inc()
	m.event(Event{Kind: EventOpError, File: file, Level: level, Err: err})
}

// span delivers a completed span to the configured consumers (the
// trace recorder and the Config.Trace hook, fanned out by New).
func (m *Monarch) span(s obs.Span) {
	if m.spanHook != nil {
		m.spanHook(s)
	}
}

// Registry exposes the instance's metrics registry, for taking
// snapshots or attaching custom sinks.
func (m *Monarch) Registry() *obs.Registry { return m.inst.reg }

// Healthz summarizes the instance for the /healthz endpoint: every
// cache tier's breaker state plus the trace ring's drop count. The
// summary is Healthy() unless a breaker is open. Gossip state is
// outside core's view; monarch-serve layers it in before serving.
func (m *Monarch) Healthz() obs.Health {
	h := obs.Health{}
	for i, d := range m.levels {
		if i == m.source.level {
			continue
		}
		h.Tiers = append(h.Tiers, obs.TierHealth{
			Tier:  i,
			Name:  d.backend.Name(),
			State: m.health.state(i).String(),
		})
	}
	h.TraceDrops = m.tracer.Stats().Dropped
	return h
}

// MetricsURL returns the base URL of the metrics endpoint, or "" when
// Config.MetricsAddr is unset. With MetricsAddr ":0" this is how the
// chosen port is discovered.
func (m *Monarch) MetricsURL() string {
	if m.metricsLn == nil {
		return ""
	}
	return "http://" + m.metricsLn.Addr().String()
}

// startMetrics binds Config.MetricsAddr and serves the registry
// (Prometheus text on /metrics, JSON snapshot on /metrics.json).
func (m *Monarch) startMetrics() error {
	ln, err := net.Listen("tcp", m.cfg.MetricsAddr)
	if err != nil {
		return fmt.Errorf("monarch: metrics listener: %w", err)
	}
	m.metricsLn = ln
	srv := &http.Server{Handler: m.inst.reg.HandlerWith(obs.HandlerOpts{Health: m.Healthz})}
	m.metricsSrv = srv
	// srv is captured locally: stopMetrics may nil the field before this
	// goroutine is scheduled.
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// stopMetrics shuts the metrics endpoint down; safe to call twice and
// with no server running.
func (m *Monarch) stopMetrics() {
	if m.metricsSrv != nil {
		_ = m.metricsSrv.Close()
		m.metricsSrv = nil
		m.metricsLn = nil
	}
}
