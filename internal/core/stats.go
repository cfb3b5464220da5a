package core

import (
	"strconv"
	"sync"

	"monarch/internal/obs"
)

// Stats is a snapshot of the middleware's counters. Per-level slices
// are indexed by hierarchy level; the last index is the PFS — the
// experiments read "I/O pressure on the PFS" from that slot.
//
// Stats is a read-only view derived from the obs metrics registry: the
// statsCollector's fields ARE registry counter handles, so a scrape of
// the Prometheus endpoint and a Stats() call can never disagree.
type Stats struct {
	// ReadsServed / BytesServed count foreground reads by the level
	// that served them.
	ReadsServed []int64
	BytesServed []int64
	// Placements is the number of files successfully moved to an upper
	// tier; PlacedBytes the bytes they amount to.
	Placements  int64
	PlacedBytes int64
	// PlacementSkips counts files left on the PFS because no tier had
	// room (or the fetch ablation disabled copying).
	PlacementSkips int64
	// PlacementErrors counts operational failures during placement.
	PlacementErrors int64
	// FullReadReuses counts placements satisfied from content the
	// foreground had already read in full (§III-B): the framework's own
	// whole-file read, or a fetch-through.
	FullReadReuses int64
	// FetchThroughs counts first misses of small files that read the
	// whole file from the source in place of their range, so that the
	// placement and the reads behind them needed no source read of their
	// own; FetchThroughBytes is the whole-file bytes they pulled. Each is
	// one read in ReadsServed[source], which keeps counting reads that
	// reached the source backend; the reads served from the fetched bytes
	// are PartialHits on the tier the copy was bound for.
	FetchThroughs     int64
	FetchThroughBytes int64
	// ReadAheads counts sequential runs over unplaceable small files that
	// read the rest of the file from the source in place of their range;
	// ReadAheadBytes is the bytes those fills pulled. The arming read is
	// one read in ReadsServed[source], like a fetch-through; the reads its
	// buffer serves are PartialHits booked on the source level, as no
	// other read is (in a trace: class partial on the source tier). What
	// each event then costs the source is trace.Pricer's table, which
	// TestTraceCaptureRoundTrip holds a counted source to.
	ReadAheads     int64
	ReadAheadBytes int64
	// ChunkPlacements counts individual chunks written by chunked
	// placements (Config.ChunkSize > 0).
	ChunkPlacements int64
	// PartialHits counts foreground reads served while the file's
	// placement was still in flight: from the upper tier, ranges whose
	// chunks had already landed, or from a fetch-through's bytes, booked
	// on the tier the copy was bound for, or from a read-ahead's, booked
	// on the source. PartialHitBytes is the bytes they amount to.
	PartialHits     int64
	PartialHitBytes int64
	// PeerHits counts foreground reads served by the peer cache tier —
	// files this node does not own, read from their owner's cache over
	// the wire. PeerHitBytes is the bytes they amount to.
	PeerHits     int64
	PeerHitBytes int64
	// PeerMisses counts reads routed to the peer tier whose owner had
	// not cached the file yet; the read was re-served from the source.
	// A miss is protocol behaviour, not a failure: it feeds neither
	// Fallbacks nor the tier breaker.
	PeerMisses int64
	// PeerHedges counts peer hits served under a hedge: the primary
	// replica exceeded its adaptive latency threshold, so the read
	// raced a second replica and took the first answer.
	PeerHedges int64
	// Fallbacks counts foreground reads re-served from the PFS after an
	// upper tier failed.
	Fallbacks int64
	// ViewsLent counts ReadViews served as the tier's own bytes (or a
	// fetch-through's); ViewsCopied those copied into scratch — the read
	// left the local route, the file was registered by Create, or the
	// backend has no views or refused this one (no mmap on the platform,
	// a mapping the kernel would not grant). A warm tier running on
	// ViewsCopied is paying for every byte it was asked to lend.
	ViewsLent   int64
	ViewsCopied int64
	// Evictions counts files removed from a tier by the eviction policy
	// (the heat engine under tenancy, or an abl-eviction ablation).
	Evictions int64
	// EvictionRaces counts reads that looked up a placed file and found
	// its tier copy already removed by a concurrent eviction; they were
	// re-served from the source with no breaker feed, like peer misses.
	EvictionRaces int64
	// Promotions counts unplaceable files re-entered into the placement
	// pipeline because their heat came to justify displacing a colder
	// resident.
	Promotions int64
	// Demotions counts entries re-pointed from a Down tier to the
	// source level by the circuit breaker.
	Demotions int64
	// PlacementRetries counts placements re-queued after a transient
	// failure (Config.Retry).
	PlacementRetries int64
	// TierTrips counts circuit-breaker openings (Healthy/Suspect→Down).
	TierTrips int64
	// TierRecoveries counts successful recovery probes (Down→Healthy).
	TierRecoveries int64
	// Probes counts recovery probes attempted against Down tiers.
	Probes int64
	// Creates counts writable files registered through Create.
	Creates int64
	// Writes counts foreground WriteAt acks (both durability levels);
	// WriteBacks is the subset acked by tier 0 with the flush deferred.
	// WrittenBytes is the foreground bytes acked.
	Writes       int64
	WriteBacks   int64
	WrittenBytes int64
	// Flushes counts background flushes of write-back files to the PFS;
	// FlushedBytes the dirty bytes they retired.
	Flushes      int64
	FlushedBytes int64
	// WriteStalls counts writers that blocked on the dirty budget.
	WriteStalls int64
	// Removes counts writable files deleted through Remove.
	Removes int64
	// RecoveredFiles counts files whose journaled write-back state was
	// replayed into the PFS by Init after a crash.
	RecoveredFiles int64
	// PlacementPauses counts background placement tasks paused by the
	// checkpoint-burst gate.
	PlacementPauses int64
	// DirtyBytes is the current write-back backlog: bytes acked by tier
	// 0 but not yet flushed to the PFS.
	DirtyBytes int64
	// InFlight is the number of queued or running placement tasks
	// (including retries and recovery probes).
	InFlight int
	// Jobs holds per-tenant fairness counters, keyed by job name; nil
	// unless Config.JobOf or Config.Tenants enabled tenancy.
	Jobs map[string]JobStats
}

// JobStats are one tenant's fairness counters.
type JobStats struct {
	// ReadsServed / BytesServed count the job's foreground reads.
	ReadsServed int64
	BytesServed int64
	// Hits counts the job's reads served above the source level.
	Hits int64
	// Evictions counts the job's files evicted from a tier.
	Evictions int64
}

// HitRatio returns the fraction of the job's reads served above the
// source level.
func (j JobStats) HitRatio() float64 {
	if j.ReadsServed == 0 {
		return 0
	}
	return float64(j.Hits) / float64(j.ReadsServed)
}

// HitRatio returns the fraction of foreground reads served above the
// source level.
func (s Stats) HitRatio() float64 {
	var upper, total int64
	for i, n := range s.ReadsServed {
		total += n
		if i < len(s.ReadsServed)-1 {
			upper += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(upper) / float64(total)
}

// statsCollector is the live, concurrent form of Stats. Every field is
// a handle into the instance's obs registry — there is exactly one
// copy of each count, and Stats/the Prometheus endpoint/the JSON
// snapshot are all views over it.
type statsCollector struct {
	readsServed []*obs.Counter
	bytesServed []*obs.Counter
	// writtenBytes counts placement bytes landing on each tier
	// (registry-only: whole-file copies plus individual chunks, even
	// chunks of a copy that later fails and is removed).
	writtenBytes    []*obs.Counter
	placements      *obs.Counter
	placedBytes     *obs.Counter
	placementSkips  *obs.Counter
	placementErrors *obs.Counter
	fullReadReuses  *obs.Counter
	fetchThroughs   *obs.Counter
	fetchedBytes    *obs.Counter
	readAheads      *obs.Counter
	readAheadBytes  *obs.Counter
	chunkPlacements *obs.Counter
	partialHits     *obs.Counter
	partialHitBytes *obs.Counter
	peerHits        *obs.Counter
	peerHitBytes    *obs.Counter
	peerMisses      *obs.Counter
	peerHedges      *obs.Counter
	fallbacks       *obs.Counter
	viewsLent       *obs.Counter
	viewsCopied     *obs.Counter
	evictions       *obs.Counter
	evictionRaces   *obs.Counter
	promotions      *obs.Counter
	demotions       *obs.Counter
	retries         *obs.Counter
	tierTrips       *obs.Counter
	tierRecoveries  *obs.Counter
	probes          *obs.Counter
	creates         *obs.Counter
	writes          *obs.Counter
	writeBacks      *obs.Counter
	writtenBytesFg  *obs.Counter
	flushes         *obs.Counter
	flushedBytes    *obs.Counter
	writeStalls     *obs.Counter
	removes         *obs.Counter
	recoveredFiles  *obs.Counter
	placementPauses *obs.Counter

	// Per-job fairness series, registered lazily on a job's first read
	// or eviction (obs.Registry handles are idempotent and mutex-guarded,
	// so concurrent first touches are safe). reg is retained for that
	// lazy registration only.
	reg   *obs.Registry
	jobMu sync.RWMutex
	jobs  map[string]*jobCounters
}

// jobCounters are one tenant's live fairness handles.
type jobCounters struct {
	reads     *obs.Counter
	readBytes *obs.Counter
	hits      *obs.Counter
	evictions *obs.Counter
}

func (c *statsCollector) init(reg *obs.Registry, levels int) {
	c.reg = reg
	c.jobs = make(map[string]*jobCounters)
	for i := 0; i < levels; i++ {
		tier := obs.L("tier", strconv.Itoa(i))
		c.readsServed = append(c.readsServed, reg.Counter("monarch_tier_read_ops_total",
			"Foreground reads served, by the hierarchy level that served them.", tier))
		c.bytesServed = append(c.bytesServed, reg.Counter("monarch_tier_read_bytes_total",
			"Foreground bytes served, by the hierarchy level that served them.", tier))
		c.writtenBytes = append(c.writtenBytes, reg.Counter("monarch_tier_write_bytes_total",
			"Placement bytes written into each hierarchy level (whole files and chunks).", tier))
	}
	c.placements = reg.Counter("monarch_placements_total",
		"Files successfully moved to an upper tier.")
	c.placedBytes = reg.Counter("monarch_placed_bytes_total",
		"Bytes of successfully placed files.")
	c.placementSkips = reg.Counter("monarch_placement_skips_total",
		"Files left on the PFS because no tier had room or fetching was disabled.")
	c.placementErrors = reg.Counter("monarch_placement_errors_total",
		"Placements aborted by an operational failure.")
	c.fullReadReuses = reg.Counter("monarch_full_read_reuses_total",
		"Placements satisfied from content the framework had already read in full.")
	c.fetchThroughs = reg.Counter("monarch_fetch_throughs_total",
		"First misses that read the whole file from the source and lent it to the placement.")
	c.fetchedBytes = reg.Counter("monarch_fetch_through_bytes_total",
		"Whole-file bytes pulled from the source by fetch-through first misses.")
	c.readAheads = reg.Counter("monarch_read_aheads_total",
		"Passes over small files no tier has room for that read the rest of the file ahead in one source read.")
	c.readAheadBytes = reg.Counter("monarch_read_ahead_bytes_total",
		"Bytes pulled from the source by read-ahead fills.")
	c.chunkPlacements = reg.Counter("monarch_chunk_placements_total",
		"Individual chunks written by chunked placements.")
	c.partialHits = reg.Counter("monarch_partial_hits_total",
		"Reads served from landed chunks or fetched-through bytes while the file's placement was in flight, or from a read-ahead buffer.")
	c.partialHitBytes = reg.Counter("monarch_partial_hit_bytes_total",
		"Bytes served by partial (mid-copy) hits.")
	c.peerHits = reg.Counter("monarch_peer_hits_total",
		"Reads served by the peer cache tier (non-owned files, read from their owner's cache).")
	c.peerHitBytes = reg.Counter("monarch_peer_hit_bytes_total",
		"Bytes served by peer cache hits.")
	c.peerMisses = reg.Counter("monarch_peer_misses_total",
		"Peer-routed reads whose owner had not cached the file; re-served from the source.")
	c.peerHedges = reg.Counter("monarch_peer_hedged_reads_total",
		"Peer hits served under a hedge: a second replica raced a slow primary.")
	c.fallbacks = reg.Counter("monarch_fallbacks_total",
		"Reads re-served from the PFS after an upper-tier failure.")
	const viewHelp = "ReadViews served, by whether the tier lent its own bytes or the read was copied into scratch."
	c.viewsLent = reg.Counter("monarch_view_reads_total", viewHelp, obs.L("served", "lent"))
	c.viewsCopied = reg.Counter("monarch_view_reads_total", viewHelp, obs.L("served", "copied"))
	c.evictions = reg.Counter("monarch_evictions_total",
		"Files removed from a tier by the eviction policy.")
	c.evictionRaces = reg.Counter("monarch_eviction_read_races_total",
		"Reads that raced a concurrent eviction and were cleanly re-served from the source.")
	c.promotions = reg.Counter("monarch_promotions_total",
		"Unplaceable files re-entered into placement because their heat justified it.")
	c.demotions = reg.Counter("monarch_demotions_total",
		"Entries re-pointed from a Down tier to the source level.")
	c.retries = reg.Counter("monarch_placement_retries_total",
		"Placements re-queued after a transient failure.")
	c.tierTrips = reg.Counter("monarch_tier_trips_total",
		"Circuit-breaker openings (Healthy/Suspect to Down).")
	c.tierRecoveries = reg.Counter("monarch_tier_recoveries_total",
		"Successful recovery probes (Down to Healthy).")
	c.probes = reg.Counter("monarch_probes_total",
		"Recovery probes attempted against Down tiers.")
	c.creates = reg.Counter("monarch_creates_total",
		"Writable files registered through Create.")
	c.writes = reg.Counter("monarch_writes_total",
		"Foreground WriteAt acks (write-through and write-back).")
	c.writeBacks = reg.Counter("monarch_write_backs_total",
		"Writes acked by tier 0 with the PFS flush deferred.")
	c.writtenBytesFg = reg.Counter("monarch_written_bytes_total",
		"Foreground bytes acked by the write path.")
	c.flushes = reg.Counter("monarch_flushes_total",
		"Background flushes of write-back files to the PFS.")
	c.flushedBytes = reg.Counter("monarch_flushed_bytes_total",
		"Dirty bytes retired by background flushes.")
	c.writeStalls = reg.Counter("monarch_write_stalls_total",
		"Writers that blocked on the dirty budget until the flusher drained.")
	c.removes = reg.Counter("monarch_removes_total",
		"Writable files deleted through Remove.")
	c.recoveredFiles = reg.Counter("monarch_recovered_files_total",
		"Files whose journaled write-back state was replayed into the PFS after a crash.")
	c.placementPauses = reg.Counter("monarch_placement_pauses_total",
		"Background placement tasks paused by the checkpoint-burst gate.")
}

func (c *statsCollector) served(level int, bytes int64) {
	c.readsServed[level].Inc()
	c.bytesServed[level].Add(bytes)
}

// viewed records how a served ReadView got its bytes.
func (c *statsCollector) viewed(lent bool) {
	if lent {
		c.viewsLent.Inc()
	} else {
		c.viewsCopied.Inc()
	}
}

// placedOn records a whole placement landing on level.
func (c *statsCollector) placedOn(level int, bytes int64) {
	c.placements.Inc()
	c.placedBytes.Add(bytes)
}

// job returns (lazily creating) the fairness handles for one tenant.
func (c *statsCollector) job(name string) *jobCounters {
	c.jobMu.RLock()
	jc := c.jobs[name]
	c.jobMu.RUnlock()
	if jc != nil {
		return jc
	}
	c.jobMu.Lock()
	defer c.jobMu.Unlock()
	if jc = c.jobs[name]; jc == nil {
		l := obs.L("job", name)
		jc = &jobCounters{
			reads: c.reg.Counter("monarch_job_read_ops_total",
				"Foreground reads, by tenant job.", l),
			readBytes: c.reg.Counter("monarch_job_read_bytes_total",
				"Foreground bytes read, by tenant job.", l),
			hits: c.reg.Counter("monarch_job_hits_total",
				"Reads served above the source level, by tenant job.", l),
			evictions: c.reg.Counter("monarch_job_evictions_total",
				"Files evicted from a tier, by tenant job.", l),
		}
		c.jobs[name] = jc
	}
	return jc
}

// jobRead attributes one served read to its tenant; no-op without a
// tenant table, so single-tenant instances pay one nil check.
func (c *statsCollector) jobRead(t *tenantTable, file string, level, src int, bytes int64) {
	if t == nil {
		return
	}
	jc := c.job(t.job(file))
	jc.reads.Inc()
	jc.readBytes.Add(bytes)
	if level != src {
		jc.hits.Inc()
	}
}

// jobEviction attributes one eviction to its tenant.
func (c *statsCollector) jobEviction(t *tenantTable, job string) {
	if t == nil {
		return
	}
	c.job(job).evictions.Inc()
}

// hitRatio is the live form of Stats.HitRatio, exposed as the
// monarch_hit_ratio gauge.
func (c *statsCollector) hitRatio() float64 {
	var upper, total int64
	for i, ctr := range c.readsServed {
		n := ctr.Value()
		total += n
		if i < len(c.readsServed)-1 {
			upper += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(upper) / float64(total)
}

func (c *statsCollector) snapshot(inFlight int) Stats {
	s := Stats{
		ReadsServed:       make([]int64, len(c.readsServed)),
		BytesServed:       make([]int64, len(c.bytesServed)),
		Placements:        c.placements.Value(),
		PlacedBytes:       c.placedBytes.Value(),
		PlacementSkips:    c.placementSkips.Value(),
		PlacementErrors:   c.placementErrors.Value(),
		FullReadReuses:    c.fullReadReuses.Value(),
		FetchThroughs:     c.fetchThroughs.Value(),
		FetchThroughBytes: c.fetchedBytes.Value(),
		ReadAheads:        c.readAheads.Value(),
		ReadAheadBytes:    c.readAheadBytes.Value(),
		ChunkPlacements:   c.chunkPlacements.Value(),
		PartialHits:       c.partialHits.Value(),
		PartialHitBytes:   c.partialHitBytes.Value(),
		PeerHits:          c.peerHits.Value(),
		PeerHitBytes:      c.peerHitBytes.Value(),
		PeerMisses:        c.peerMisses.Value(),
		PeerHedges:        c.peerHedges.Value(),
		Fallbacks:         c.fallbacks.Value(),
		ViewsLent:         c.viewsLent.Value(),
		ViewsCopied:       c.viewsCopied.Value(),
		Evictions:         c.evictions.Value(),
		EvictionRaces:     c.evictionRaces.Value(),
		Promotions:        c.promotions.Value(),
		Demotions:         c.demotions.Value(),
		PlacementRetries:  c.retries.Value(),
		TierTrips:         c.tierTrips.Value(),
		TierRecoveries:    c.tierRecoveries.Value(),
		Probes:            c.probes.Value(),
		Creates:           c.creates.Value(),
		Writes:            c.writes.Value(),
		WriteBacks:        c.writeBacks.Value(),
		WrittenBytes:      c.writtenBytesFg.Value(),
		Flushes:           c.flushes.Value(),
		FlushedBytes:      c.flushedBytes.Value(),
		WriteStalls:       c.writeStalls.Value(),
		Removes:           c.removes.Value(),
		RecoveredFiles:    c.recoveredFiles.Value(),
		PlacementPauses:   c.placementPauses.Value(),
		InFlight:          inFlight,
	}
	for i := range c.readsServed {
		s.ReadsServed[i] = c.readsServed[i].Value()
		s.BytesServed[i] = c.bytesServed[i].Value()
	}
	c.jobMu.RLock()
	if len(c.jobs) > 0 {
		s.Jobs = make(map[string]JobStats, len(c.jobs))
		for name, jc := range c.jobs {
			s.Jobs[name] = JobStats{
				ReadsServed: jc.reads.Value(),
				BytesServed: jc.readBytes.Value(),
				Hits:        jc.hits.Value(),
				Evictions:   jc.evictions.Value(),
			}
		}
	}
	c.jobMu.RUnlock()
	return s
}
