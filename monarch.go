// Package monarch is a framework-agnostic middleware for hierarchical
// storage management for deep-learning training jobs, reproducing
// "MONARCH: Hierarchical Storage Management for Deep Learning
// Frameworks" (Dantas et al., IEEE CLUSTER 2021).
//
// MONARCH sits between a DL framework's data loader and an ordered
// hierarchy of storage backends — typically the compute node's local
// SSD above the shared parallel file system (PFS) that holds the
// dataset. A single ReadAt call replaces the framework's pread: reads
// are served from whichever tier currently holds the file, and the
// first read of each file schedules a background whole-file copy into
// the highest tier with free space. By default no evictions ever
// happen: under a single job's random once-per-epoch access pattern,
// replacement would only churn data between tiers. When several jobs
// share a tier, Config.Eviction = NewHeatPolicy() plus
// Config.Tenants turns on heat-driven admission/eviction with per-job
// quota shares (DESIGN.md §12).
//
// # Quick start
//
//	tier0, _ := monarch.NewOSFS("ssd", "/mnt/nvme/cache", 115<<30)
//	pfs, _ := monarch.NewOSFS("lustre", "/lustre/datasets/imagenet", 0)
//	m, _ := monarch.New(monarch.Config{
//		Levels:        []monarch.Backend{tier0, pfs},
//		Pool:          monarch.NewPool(6),
//		FullFileFetch: true,
//	})
//	defer m.Close()
//	_ = m.Init(ctx)                   // build the namespace from the PFS
//	n, err := m.ReadAt(ctx, "train.tfrecord-00001-of-01600", buf, off)
//
// # Observability
//
// Stats and the metrics registry (Monarch.Registry, served over HTTP
// by Registry.HandlerWith on the caller's listener) count what
// happened. Config.Trace says why: it receives one Span per decision —
// a read and the tier that served it, a placement placed, skipped or
// failed, an eviction, a breaker trip or recovery, a demotion, a flush
// — and Config.TracePath streams the same spans to a binary access
// trace that monarch-inspect reads.
//
// The packages under internal/ additionally contain the simulation
// substrate (a deterministic discrete-event model of a Frontera-like
// compute node, Lustre, and a TensorFlow-style input pipeline) that
// regenerates every figure and table of the paper's evaluation; see
// cmd/monarch-bench and EXPERIMENTS.md.
package monarch

import (
	"time"

	"monarch/internal/core"
	"monarch/internal/obs"
	"monarch/internal/peernet"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// Core middleware types, re-exported from internal/core.
type (
	// Monarch is a middleware instance; see New.
	Monarch = core.Monarch
	// Config assembles a Monarch: the storage hierarchy (last level =
	// the read-only PFS source), the placement pool, and the placement
	// policy knobs.
	Config = core.Config
	// Stats is a snapshot of middleware counters.
	Stats = core.Stats
	// StagingMode selects placement timing (on first read vs before
	// training).
	StagingMode = core.StagingMode
	// EvictionPolicy is the replacement hook: nil (the paper's
	// single-job configuration, never evict), an ablation policy
	// (NewLRU/NewFIFO), or the multi-tenant heat engine (NewHeatPolicy).
	EvictionPolicy = core.EvictionPolicy
	// HeatPolicy is the heat-driven eviction/admission engine with
	// per-job quota shares; see NewHeatPolicy.
	HeatPolicy = core.HeatPolicy
	// TenantConfig declares one job's guaranteed share of every capped
	// cache tier (Config.Tenants).
	TenantConfig = core.TenantConfig
	// JobStats is one job's slice of the fairness counters
	// (Stats.Jobs).
	JobStats = core.JobStats
	// HealthConfig tunes the per-tier circuit breaker (Config.Health).
	HealthConfig = core.HealthConfig
	// RetryPolicy re-queues transiently failed placements
	// (Config.Retry).
	RetryPolicy = core.RetryPolicy
	// TierState is the circuit-breaker state of a hierarchy level; see
	// Monarch.TierState.
	TierState = core.TierState
	// PeerConfig mounts a hierarchy level as the peer tier — a
	// read-only view of sibling nodes' caches (Config.Peer).
	PeerConfig = core.PeerConfig
)

// Write path, re-exported from internal/core: Create/WriteAt/Remove on
// the middleware with per-path durability — write-through (the PFS has
// the bytes before the ack) or write-back (tier-0 ack, bounded dirty
// budget, background flush, crash-safe journal). See DESIGN.md §14.
type (
	// WriteConfig enables and tunes the write path (Config.Write).
	WriteConfig = core.WriteConfig
	// Durability selects how a writable file's bytes are acknowledged.
	Durability = core.Durability
)

// Durability levels for WriteConfig.Durability.
const (
	WriteThrough = core.WriteThrough
	WriteBack    = core.WriteBack
)

// Write-path sentinel errors.
var (
	// ErrWritesDisabled: Create/WriteAt/Flush/Remove without
	// Config.Write.Enabled.
	ErrWritesDisabled = core.ErrWritesDisabled
	// ErrNotWritable: a write-path call named a dataset file (or an
	// unknown one); only files registered through Create are writable.
	ErrNotWritable = core.ErrNotWritable
)

// Observability types, re-exported from internal/obs. A Monarch's
// Registry() holds every counter, gauge and histogram the middleware
// maintains; Registry.HandlerWith serves it over HTTP, and Config.Trace
// receives one typed Span per decision the middleware makes — the one
// record of why a file was placed, skipped, evicted or demoted.
type (
	// Registry is a metrics registry (see Monarch.Registry).
	Registry = obs.Registry
	// MetricsSnapshot is a point-in-time JSON-serialisable registry view.
	MetricsSnapshot = obs.Snapshot
	// MetricsHandlerOpts configures Registry.HandlerWith: /healthz from
	// Monarch.Healthz, pprof, extra routes.
	MetricsHandlerOpts = obs.HandlerOpts
	// Span is one completed operation on an instrumented path.
	Span = obs.Span
	// SpanKind classifies spans.
	SpanKind = obs.SpanKind
	// FallbackError is a FlagFallback read span's failed first attempt.
	FallbackError = obs.FallbackError
	// MetricLabel is one name/value dimension of a metric series.
	MetricLabel = obs.Label
)

// Span kinds.
const (
	SpanRead             = obs.SpanRead
	SpanPlacementEnqueue = obs.SpanPlacementEnqueue
	SpanPlacement        = obs.SpanPlacement
	SpanChunkCopy        = obs.SpanChunkCopy
	SpanTierProbe        = obs.SpanTierProbe
	SpanEvict            = obs.SpanEvict
	SpanWrite            = obs.SpanWrite
	SpanFlush            = obs.SpanFlush
	SpanBreaker          = obs.SpanBreaker
	SpanDemote           = obs.SpanDemote
	SpanRetry            = obs.SpanRetry
	SpanPromote          = obs.SpanPromote
	SpanOpError          = obs.SpanOpError
	SpanRecover          = obs.SpanRecover
)

// Span flags.
const (
	FlagPartial  = obs.FlagPartial
	FlagFallback = obs.FlagFallback
	FlagStalled  = obs.FlagStalled
)

// Tier circuit-breaker states.
const (
	TierHealthy = core.TierHealthy
	TierSuspect = core.TierSuspect
	TierDown    = core.TierDown
)

// Staging modes.
const (
	StageOnFirstRead = core.StageOnFirstRead
	StagePreTraining = core.StagePreTraining
)

// Sentinel errors.
var (
	ErrNotInitialized = core.ErrNotInitialized
	ErrUnknownFile    = core.ErrUnknownFile
)

// New validates cfg and assembles a middleware instance.
func New(cfg Config) (*Monarch, error) { return core.New(cfg) }

// NewLRU and NewFIFO build the eviction-ablation policies.
var (
	NewLRU  = core.NewLRU
	NewFIFO = core.NewFIFO
)

// NewHeatPolicy builds the heat-driven eviction/admission engine for
// multi-job tenancy: exponentially decayed per-file heat (fed by the
// read path and Monarch.MarkEpoch), margin-gated admission so uniform
// single-job access degenerates to the paper's no-eviction behaviour,
// and work-conserving per-job quota reclaim when Config.Tenants
// declares shares. Heat halves every epoch; a candidate must be 1.25×
// hotter than the coldest resident to displace it. See DESIGN.md §12.
func NewHeatPolicy() *HeatPolicy { return core.NewHeatPolicy() }

// JobFromPath is the default Config.JobOf: a file's job is its first
// slash-separated path segment ("jobA/shard-0003" → "jobA").
func JobFromPath(name string) string { return core.JobFromPath(name) }

// Storage backend types, re-exported from internal/storage.
type (
	// Backend is the flat file-store abstraction hierarchy levels wrap.
	Backend = storage.Backend
	// FileInfo describes one file of a backend namespace.
	FileInfo = storage.FileInfo
	// MemFS is an in-memory backend.
	MemFS = storage.MemFS
	// OSFS is a backend rooted at a real directory.
	OSFS = storage.OSFS
	// Counting wraps a backend with operation/byte counters.
	Counting = storage.Counting
	// RangeWriter is the optional backend extension for range writes:
	// Allocate a file at its final size, then fill it with WriteAt calls.
	// Chunked placement (Config.ChunkSize) needs it — tiers without it
	// fall back to whole-file copies — and the write path (Create /
	// WriteAt, the write-back flusher, journal recovery) requires it on
	// tier 0 and the source. MemFS and OSFS implement it.
	RangeWriter = storage.RangeWriter
	// Pinger is the optional backend extension the circuit breaker's
	// recovery probe prefers over a write probe — read-only tiers (a
	// PeerTier) can only prove liveness this way.
	Pinger = storage.Pinger
	// View is a borrowed read-only window into a tier's bytes, the
	// zero-copy result of Monarch.ReadView. Call Release exactly once
	// after the last access to Data.
	View = storage.View
	// ViewReader is the optional backend extension behind the copy-free
	// read fast path. MemFS lends its buffers; OSFS lends windows of
	// read-only file mappings on unix and refuses elsewhere, where
	// ReadView copies.
	ViewReader = storage.ViewReader
	// Releaser releases a borrowed resource such as a View.
	Releaser = storage.Releaser
)

// Backend sentinel errors.
var (
	ErrNotExist = storage.ErrNotExist
	ErrNoSpace  = storage.ErrNoSpace
	ErrReadOnly = storage.ErrReadOnly
)

// NewMemFS creates an in-memory backend (capacity 0 = unlimited).
func NewMemFS(name string, capacity int64) *MemFS { return storage.NewMemFS(name, capacity) }

// NewOSFS creates a directory-rooted backend (capacity 0 = unlimited).
func NewOSFS(name, dir string, capacity int64) (*OSFS, error) {
	return storage.NewOSFS(name, dir, capacity)
}

// NewCounting wraps a backend with I/O counters — useful for measuring
// the PFS pressure a training job produces.
func NewCounting(b Backend) *Counting { return storage.NewCounting(b) }

// Peer cache network, re-exported from internal/peernet: each node
// runs a PeerServer over its tier-0 cache (or the monarch-serve
// daemon), and mounts its siblings as a PeerTier via Config.Peer. See
// the README's two-node walkthrough and DESIGN.md §10.
type (
	// PeerServer exposes a Backend to sibling nodes over the peernet
	// wire protocol (read-only unless PeerServerConfig.AllowWrite).
	PeerServer = peernet.Server
	// PeerServerConfig configures a PeerServer.
	PeerServerConfig = peernet.ServerConfig
	// PeerClient speaks the wire protocol to one sibling and exposes
	// its cache as a Backend.
	PeerClient = peernet.Client
	// PeerClientConfig configures a PeerClient (pooling, deadlines,
	// transport retries).
	PeerClientConfig = peernet.ClientConfig
	// PeerDialer opens connections for a PeerClient.
	PeerDialer = peernet.Dialer
	// PeerRing is the consistent-hash ownership ring every node
	// derives identically from the member list.
	PeerRing = peernet.Ring
	// PeerTier aggregates sibling clients into the read-only Backend
	// that Config.Peer.Tier points at.
	PeerTier = peernet.Tier
)

// NewPeerServer validates cfg and builds a PeerServer; call Serve with
// a listener.
func NewPeerServer(cfg PeerServerConfig) (*PeerServer, error) { return peernet.NewServer(cfg) }

// NewPeerClient builds a client for one sibling. No connection is
// opened until the first request.
func NewPeerClient(cfg PeerClientConfig) (*PeerClient, error) { return peernet.NewClient(cfg) }

// NewPeerRing builds the ownership ring over the node names
// (replicas 0 = default virtual-node count).
func NewPeerRing(nodes []string, replicas int) (*PeerRing, error) {
	return peernet.NewRing(nodes, replicas)
}

// NewPeerTier aggregates clients (keyed by node name, self excluded)
// behind the ring into one read-only backend.
func NewPeerTier(name, self string, ring *PeerRing, clients map[string]*PeerClient) (*PeerTier, error) {
	return peernet.NewTier(name, self, ring, clients)
}

// PeerTCPDialer dials a sibling's monarch-serve address.
func PeerTCPDialer(addr string, timeout time.Duration) PeerDialer {
	return peernet.TCPDialer(addr, timeout)
}

// Cluster robustness, re-exported from internal/peernet: R-way
// replicated ownership, gossip membership, and hedged reads. See
// DESIGN.md §10.
type (
	// PeerTierConfig is the full-control constructor input for a
	// PeerTier: replica width, a membership view, and hedging.
	PeerTierConfig = peernet.TierConfig
	// PeerHedgeConfig tunes hedged reads against slow replicas.
	PeerHedgeConfig = peernet.HedgeConfig
	// PeerMembership is a node's gossip-maintained liveness view of
	// its ring siblings.
	PeerMembership = peernet.Membership
	// PeerMembershipConfig configures a PeerMembership (timeouts,
	// transition callback).
	PeerMembershipConfig = peernet.MembershipConfig
	// PeerHeartbeater drives the gossip exchange over the sibling
	// clients; Start it after wiring, Stop it on shutdown.
	PeerHeartbeater = peernet.Heartbeater
	// PeerState is a sibling's liveness as seen locally.
	PeerState = peernet.PeerState
	// PeerHeartbeatEntry is one gossiped view entry (peer name + age
	// of the freshest reachability evidence).
	PeerHeartbeatEntry = peernet.HeartbeatEntry
)

// Liveness states a PeerMembership reports.
const (
	PeerAlive   = peernet.PeerAlive
	PeerSuspect = peernet.PeerSuspect
	PeerDead    = peernet.PeerDead
)

// ErrPeerClientClosed is returned by every operation on a closed
// PeerClient (in-flight requests fail fast rather than waiting out
// their deadlines).
var ErrPeerClientClosed = peernet.ErrClientClosed

// NewPeerTierWithConfig builds a PeerTier with replication, an
// optional membership view, and optional hedged reads. NewPeerTier is
// the R=1 shorthand.
func NewPeerTierWithConfig(cfg PeerTierConfig) (*PeerTier, error) {
	return peernet.NewTierWithConfig(cfg)
}

// NewPeerMembership builds the liveness view for a node; feed it to
// both the PeerServer (so inbound heartbeats merge) and the
// PeerTier/PeerHeartbeater.
func NewPeerMembership(cfg PeerMembershipConfig) (*PeerMembership, error) {
	return peernet.NewMembership(cfg)
}

// NewPeerHeartbeater builds the gossip loop over the same per-sibling
// clients the tier reads through; interval <= 0 defaults to 250ms.
func NewPeerHeartbeater(mem *PeerMembership, clients map[string]*PeerClient, interval time.Duration) (*PeerHeartbeater, error) {
	return peernet.NewHeartbeater(mem, clients, interval)
}

// Pool is the background placement executor interface.
type Pool = pool.Executor

// NewPool starts a goroutine-backed placement pool with n workers (the
// paper uses 6).
func NewPool(n int) Pool { return pool.NewGoPool(n) }
