package core

import (
	"context"

	"monarch/internal/obs"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// StagingMode selects when data placement happens (§III-A discusses
// both options).
type StagingMode int

const (
	// StageOnFirstRead places each file when the framework first reads
	// it during epoch 1 — the paper's choice, adding no start-up delay.
	StageOnFirstRead StagingMode = iota
	// StagePreTraining copies files (in namespace order) into the upper
	// tiers before any read is served — the paper's rejected option i,
	// kept for the abl-staging ablation.
	StagePreTraining
)

// String names the mode.
func (s StagingMode) String() string {
	switch s {
	case StageOnFirstRead:
		return "on-first-read"
	case StagePreTraining:
		return "pre-training"
	default:
		return "unknown"
	}
}

// Config assembles a Monarch instance.
type Config struct {
	// Levels is the storage hierarchy in placement order. The last
	// level is the PFS: it must already hold the dataset and is treated
	// as a read-only source. At least two levels are required.
	Levels []storage.Backend
	// Pool executes background placements. Required.
	Pool pool.Executor
	// FullFileFetch enables the §III-A optimisation: when the framework
	// reads only a slice of a file, the background copy still fetches
	// the file's full content so subsequent slices hit the fast tier.
	// Disabling it (abl-fullfetch) copies only bytes the framework has
	// already read — i.e. placement degenerates to per-range caching.
	FullFileFetch bool
	// ChunkSize, when positive, splits each background placement into
	// fixed-size chunks fanned out across the pool; the read path then
	// serves any range whose chunks have already landed from the upper
	// tier while the rest of the copy is still in flight (mid-copy
	// read-through). The destination tier must implement
	// storage.RangeWriter or the placement silently falls back to a
	// whole-file copy. Zero preserves the paper-faithful whole-file
	// behaviour.
	ChunkSize int64
	// Staging selects placement timing; see StagingMode.
	Staging StagingMode
	// Eviction is nil for the paper's no-eviction policy (the right
	// choice for a single job with uniform access), a HeatPolicy for
	// heat-driven multi-job admission/eviction, or LRU/FIFO for the
	// abl-eviction ablation.
	Eviction EvictionPolicy
	// JobOf attributes a file name to a tenant job for quota accounting
	// and per-job fairness counters. Nil with Tenants set defaults to
	// JobFromPath (the first path segment); nil without Tenants disables
	// per-job accounting entirely.
	JobOf func(name string) string
	// Tenants declares per-job guaranteed shares of every cache tier;
	// see TenantConfig. Empty disables quota enforcement (single-tenant
	// behaviour). Borrowing is work-conserving: shares only bite under
	// tier pressure.
	Tenants []TenantConfig
	// Health tunes the per-tier circuit breaker that demotes entries
	// off failing tiers and probes Down tiers for recovery. The zero
	// value uses the default thresholds.
	Health HealthConfig
	// Retry re-queues placements that failed transiently instead of
	// marking the file unplaceable. The zero value disables retries.
	Retry RetryPolicy
	// Events, when non-nil, receives placement/eviction/fallback events
	// for observability. The log never blocks the data path.
	Events *EventLog
	// MetricsAddr, when non-empty, serves the instance's metrics
	// registry over HTTP at this "host:port" (":0" picks a free port;
	// see Monarch.MetricsURL). Endpoints: /metrics (Prometheus text),
	// /metrics.json (JSON snapshot), /debug/pprof/. The server starts in New and stops with
	// Close/Shutdown.
	MetricsAddr string
	// Trace, when non-nil, receives typed spans from the read,
	// placement, chunk-copy and probe paths. The hook runs
	// synchronously on the instrumented path: it must be fast and must
	// never block.
	Trace obs.TraceHook
	// TracePath, when non-empty, streams an access trace to this file:
	// one fixed-size event per read, placement, chunk copy, epoch mark
	// and tier-state change (see internal/trace; monarch-inspect trace
	// reads it). The recorder closes (and writes its trailer) with
	// Close/Shutdown.
	TracePath string
	// TraceSample records 1 in N plain read hits (≤1 records every
	// read). Partial hits, fallbacks, errors, placements and state
	// changes are never sampled out, so the trace stays in lock-step
	// with the monarch_events_total counters.
	TraceSample int
	// TraceClock supplies the trace's monotonic nanosecond clock; the
	// experiments pass the simulation clock so captured timestamps are
	// virtual. Nil uses wall-monotonic time.
	TraceClock func() int64
	// TraceMeta is embedded verbatim in the trace header (scale,
	// dataset name, copy-chunk size — whatever replays need).
	TraceMeta map[string]string
	// Peer wires a peer cache tier (a level serving sibling nodes'
	// caches over the wire) into the read path; see PeerConfig.
	Peer PeerConfig
	// Write enables the write path — Create/WriteAt/Flush/Remove for
	// runtime-created files (checkpoints), with per-path durability and
	// an optional crash journal; see WriteConfig.
	Write WriteConfig
}

// PeerConfig routes reads through a peer cache tier. With a consistent
// ownership ring, every node caches only the files it owns and serves
// them to siblings; reads of non-owned files go through the owner's
// cache instead of hammering the PFS.
type PeerConfig struct {
	// Tier is the hierarchy index of the peer tier — the level whose
	// backend serves sibling caches (a peernet.Tier). It must sit
	// strictly between the top local tier and the source: 0 < Tier <
	// len(Levels)-1. Zero disables peer routing (level 0 is the top
	// local tier and can never be the peer tier).
	Tier int
	// Owns reports whether this node owns name on the ownership ring.
	// Owned files are cached locally by the placement handler;
	// non-owned reads route through the peer tier. Required when Tier
	// is set.
	Owns func(name string) bool
}

// enabled reports whether peer routing is configured.
func (p PeerConfig) enabled() bool { return p.Tier != 0 }

// ReadFull reads the entire named file through the middleware.
func (m *Monarch) ReadFull(ctx context.Context, name string) ([]byte, error) {
	e, err := m.lookup(name)
	if err != nil {
		return nil, err
	}
	p := make([]byte, e.size)
	n, err := m.ReadAt(ctx, name, p, 0)
	if err != nil {
		return nil, err
	}
	return p[:n], nil
}

// Stat returns the namespace entry for name without touching storage.
func (m *Monarch) Stat(name string) (storage.FileInfo, error) {
	e, err := m.lookup(name)
	if err != nil {
		return storage.FileInfo{}, err
	}
	return storage.FileInfo{Name: name, Size: e.size}, nil
}

// Files returns the namespace in sorted order.
func (m *Monarch) Files() []storage.FileInfo { return m.meta.list() }

// LevelOf reports which tier currently serves name.
func (m *Monarch) LevelOf(name string) (int, error) {
	e, err := m.lookup(name)
	if err != nil {
		return 0, err
	}
	return e.currentLevel(), nil
}
