package core

import (
	"fmt"
	"strconv"

	"monarch/internal/trace"
)

// startTrace opens the access-trace recorder (Config.TracePath) and
// registers its accounting in the metrics registry. Called from New
// before the span hook is assembled.
func (m *Monarch) startTrace() error {
	levels := make([]trace.Level, len(m.levels))
	for i, d := range m.levels {
		levels[i] = trace.Level{Name: d.backend.Name(), Capacity: d.backend.Capacity()}
	}
	rec, err := trace.New(trace.Config{
		Path:      m.cfg.TracePath,
		Sample:    m.cfg.TraceSample,
		Now:       m.cfg.TraceClock,
		Levels:    levels,
		Source:    m.source.level,
		ChunkSize: m.cfg.ChunkSize,
		Meta:      m.cfg.TraceMeta,
	})
	if err != nil {
		return fmt.Errorf("monarch: trace: %w", err)
	}
	m.tracer = rec
	rec.Instrument(m.inst.reg)
	return nil
}

// closeTrace seals the trace: final counters become the trailer
// summary, the ring drains, and the file closes. Idempotent; a sink
// failure surfaces through the cleanup error funnel rather than
// failing Close.
func (m *Monarch) closeTrace() {
	if m.tracer == nil {
		return
	}
	m.traceOnce.Do(func() {
		m.tracer.AddSummary(m.traceSummary())
		if err := m.tracer.Close(); err != nil {
			m.opError(stageCleanup, m.cfg.TracePath, -1, err)
		}
	})
}

// traceSummary flattens Stats into the trailer's counter map — the
// ground truth a faithful replay must reproduce.
func (m *Monarch) traceSummary() map[string]int64 {
	s := m.Stats()
	out := map[string]int64{
		"placements":        s.Placements,
		"placed_bytes":      s.PlacedBytes,
		"placement_skips":   s.PlacementSkips,
		"placement_errors":  s.PlacementErrors,
		"full_read_reuses":  s.FullReadReuses,
		"chunk_placements":  s.ChunkPlacements,
		"partial_hits":      s.PartialHits,
		"partial_hit_bytes": s.PartialHitBytes,
		"fallbacks":         s.Fallbacks,
		"evictions":         s.Evictions,
		"demotions":         s.Demotions,
	}
	if m.cfg.Peer.enabled() {
		// Only with peer routing on: replays of single-node traces
		// compare trailer keys and would see spurious zero-valued ones.
		out["peer_hits"] = s.PeerHits
		out["peer_hit_bytes"] = s.PeerHitBytes
		out["peer_misses"] = s.PeerMisses
		out["peer_hedges"] = s.PeerHedges
	}
	if m.cfg.Write.Enabled {
		// Gated like the peer keys: read-only traces keep their trailer
		// shape.
		out["writes"] = s.Writes
		out["write_backs"] = s.WriteBacks
		out["written_bytes"] = s.WrittenBytes
		out["flushes"] = s.Flushes
		out["removes"] = s.Removes
	}
	for i := range s.ReadsServed {
		out["reads_tier_"+strconv.Itoa(i)] = s.ReadsServed[i]
		out["bytes_tier_"+strconv.Itoa(i)] = s.BytesServed[i]
	}
	return out
}

// MarkEpoch tells the instance that epoch n (1-based) finished: the
// access trace records the boundary (a no-op without Config.TracePath)
// and an epoch-aware eviction policy advances its heat-decay clock —
// the online counterpart of the analyzer's per-epoch heatmap cut
// points. The training loop should call it once per epoch.
func (m *Monarch) MarkEpoch(n int) {
	m.tracer.MarkEpoch(n)
	if ea, ok := m.cfg.Eviction.(epochAdvancer); ok {
		ea.AdvanceEpoch()
	}
}

// Tracer exposes the access-trace recorder (nil without
// Config.TracePath), so harnesses can merge their own counters into
// the trailer — the experiments record the measured PFS data-op count
// for the analyzer's cross-check.
func (m *Monarch) Tracer() *trace.Recorder { return m.tracer }

// traceState forwards tier-state events into the recorder; called
// from the event funnel so the trace and monarch_events_total can
// never disagree.
func (m *Monarch) traceState(e Event) {
	if m.tracer == nil {
		return
	}
	var c trace.Class
	switch e.Kind {
	case EventDemoted:
		c = trace.ClassDemoted
	case EventEvicted:
		c = trace.ClassEvicted
	case EventTierDown:
		c = trace.ClassTierDown
	case EventTierUp:
		c = trace.ClassTierUp
	default:
		return
	}
	m.tracer.State(c, e.File, e.Level, e.Bytes)
}
