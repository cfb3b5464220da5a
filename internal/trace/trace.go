// Package trace captures MONARCH access traces: one fixed-size event
// per foreground read, per placement resolution, per chunk copy, per
// epoch boundary and per tier-state change. A Recorder hooks the
// middleware's span stream (obs.TraceHook) and streams events through a
// bounded ring buffer to a binary file, so memory stays flat however
// long the run and the hot path never blocks on I/O.
//
// The captured artifact is self-describing: a header carries the
// hierarchy shape, clock kind and sampling rate; file-definition
// records carry the namespace (names and sizes); a trailer carries the
// run's final counters. The analyze subpackage derives per-epoch PFS
// statistics from it, and the replay subpackage re-drives it through a
// fresh simulated hierarchy; what an event cost the PFS is the Pricer's
// to say, for both.
package trace

import (
	"math"
	"time"

	"monarch/internal/obs"
)

// Version is the trace format version written into headers. Version 2
// added the Req correlation field to events (8 extra bytes per record).
// Read refuses every other version.
const Version = 2

// Kind classifies trace events.
type Kind uint8

const (
	// KindRead is one foreground ReadAt served by the middleware.
	KindRead Kind = iota + 1
	// KindPlacement is one placement reaching a terminal state.
	KindPlacement
	// KindChunkCopy is one chunk of a chunked placement landing.
	KindChunkCopy
	// KindEpoch marks an epoch boundary; Len carries the epoch number
	// (1-based) of the epoch that just finished.
	KindEpoch
	// KindState is a tier-state change: demotion, eviction, a breaker
	// opening or closing.
	KindState
	// KindServe is one READ frame this node served to a sibling over
	// the peer protocol — the remote half of the sibling's KindRead
	// peer hit, correlated through the shared Req ID. (Appended so
	// earlier kinds keep their numeric values in old binary traces.)
	KindServe
	// KindWrite is one foreground WriteAt acknowledged by the
	// middleware; its class says which durability level acked it.
	// (Appended, like KindServe, to keep old binary traces decodable.)
	KindWrite
	// KindFlush is one background flush of a write-back file's dirty
	// bytes from tier 0 to the PFS.
	KindFlush
)

var kindNames = [...]string{
	KindRead: "read", KindPlacement: "placement", KindChunkCopy: "chunk-copy", KindEpoch: "epoch",
	KindState: "state", KindServe: "serve", KindWrite: "write", KindFlush: "flush",
}

// String names the kind, as monarch-inspect trace -events prints it.
func (k Kind) String() string {
	if k == 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// Class qualifies an event within its kind: the hit class of a read,
// the resolution of a placement, or the nature of a state change.
type Class uint8

const (
	// ClassNone is the zero class (epoch markers, chunk copies).
	ClassNone Class = iota

	// ClassLocal: a read served entirely from an upper tier.
	ClassLocal
	// ClassPartial: a read served from an upper tier mid-copy, while
	// the file's chunked placement was still in flight.
	ClassPartial
	// ClassPFS: a read served by the source (PFS) level.
	ClassPFS
	// ClassFallback: a read that failed on an upper tier and was
	// re-served from the source.
	ClassFallback
	// ClassError: a read that failed to the caller.
	ClassError

	// ClassFetch: a placement that copied content from the source.
	ClassFetch
	// ClassReuse: a placement satisfied from the foreground's full
	// read, with no source traffic.
	ClassReuse
	// ClassSkip: a placement skipped (no tier had room, or fetching
	// was disabled).
	ClassSkip
	// ClassFail: a placement that failed terminally.
	ClassFail

	// ClassDemoted: the breaker re-pointed a placed file at the source.
	ClassDemoted
	// ClassEvicted: an eviction ablation removed a file from a tier.
	ClassEvicted
	// ClassTierDown: a tier's circuit breaker opened.
	ClassTierDown
	// ClassTierUp: a recovery probe returned a tier to service.
	ClassTierUp

	// ClassPeer: a read served by the peer cache tier — the bytes came
	// from a sibling node's tier-0 store over the wire, not the PFS.
	// (Appended after the tier-state classes so the numeric values of
	// earlier classes — and with them existing binary traces — are
	// unchanged.)
	ClassPeer
	// ClassPeerMiss: a read routed to the peer tier whose owner had not
	// cached the file; it was re-served from the source. Unlike
	// ClassFallback this is a clean miss, not a failure.
	ClassPeerMiss
	// ClassPeerHedge: a peer-served read whose primary replica blew
	// past the adaptive latency threshold, so a hedge raced the next
	// replica. Still a peer hit — zero PFS ops — but priced separately
	// so the analyzer can report what tail latency costs. (Appended
	// after ClassPeerMiss to keep earlier binary traces decodable.)
	ClassPeerHedge

	// ClassWrite: a write-through write — the PFS had the bytes before
	// the caller was acked, so it costs foreground PFS ops. (Appended,
	// with the write classes below, after the peer classes.)
	ClassWrite
	// ClassWriteBack: a write acked by tier 0 with the flush deferred;
	// zero foreground PFS ops — the flush is priced separately.
	ClassWriteBack
	// ClassFlush: a background flush moving a write-back file's bytes
	// to the PFS; background PFS ops, off the foreground path.
	ClassFlush
	// ClassRemove: a foreground Remove of a writable file (one PFS
	// metadata op when the file had reached the PFS).
	ClassRemove
)

var classNames = [...]string{
	ClassNone: "", ClassLocal: "local", ClassPartial: "partial", ClassPFS: "pfs",
	ClassFallback: "fallback", ClassError: "error", ClassFetch: "fetch", ClassReuse: "reuse",
	ClassSkip: "skip", ClassFail: "fail", ClassDemoted: "demoted", ClassEvicted: "evicted",
	ClassTierDown: "tier-down", ClassTierUp: "tier-up", ClassPeer: "peer", ClassPeerMiss: "peer-miss",
	ClassPeerHedge: "peer-hedge", ClassWrite: "write", ClassWriteBack: "write-back",
	ClassFlush: "flush", ClassRemove: "remove",
}

// String names the class, as monarch-inspect trace -events prints it
// ("" for ClassNone).
func (c Class) String() string {
	if int(c) >= len(classNames) {
		return "unknown"
	}
	return classNames[c]
}

// Event is one fixed-size trace record. T is nanoseconds since the
// recorder started, on whatever clock the header declares (virtual
// under simulation, wall-monotonic otherwise). File is an interned ID
// resolved through the trace's file table (0 = no file). Off/Len carry
// the byte range of reads and chunk copies; for placements Len is the
// file size, for epoch markers it is the epoch number.
type Event struct {
	T     int64
	File  uint32
	Kind  Kind
	Class Class
	Tier  int8  // serving/target level; -1 when not applicable
	Lat   uint8 // latency bucket index; see LatBucket
	Off   int64
	Len   int64
	Req   uint64 // cross-node correlation ID; 0 when unset
}

// File is one namespace entry of the traced hierarchy. IDs are dense
// and start at 1, in first-seen order (namespace order for runs that
// call Init before serving reads).
type File struct {
	ID   uint32 `json:"id"`
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// Level describes one hierarchy level in the header, enough for a
// replay to rebuild an equivalent stack.
type Level struct {
	Name     string `json:"name"`
	Capacity int64  `json:"capacity"`
}

// Header is the trace's self-description, written first.
type Header struct {
	Version   int               `json:"monarch_trace"`
	Clock     string            `json:"clock"`  // "wall" or "virtual"
	Sample    int               `json:"sample"` // 1-in-N read sampling (<=1: every read)
	Source    int               `json:"source"` // source (PFS) level index
	ChunkSize int64             `json:"chunk_size,omitempty"`
	Levels    []Level           `json:"levels"`
	Meta      map[string]string `json:"meta,omitempty"`
}

// Trailer closes a complete trace: the run's final middleware counters
// plus the recorder's own accounting, so consumers can tell a truncated
// capture from a clean one.
type Trailer struct {
	Summary map[string]int64 `json:"summary"`
	Trace   map[string]int64 `json:"trace"`
}

// latBoundsNS mirrors obs.LatencyBuckets in integer nanoseconds, so
// the hot path buckets with int64 compares instead of float division.
var latBoundsNS = func() [8]int64 {
	var b [8]int64
	if len(obs.LatencyBuckets) != len(b) {
		panic("trace: latency bucket count drifted from obs.LatencyBuckets")
	}
	for i, s := range obs.LatencyBuckets {
		b[i] = int64(s * 1e9)
	}
	return b
}()

// LatBucket maps a duration onto obs.LatencyBuckets: the index of the
// first bound the duration fits under, or len(obs.LatencyBuckets) for
// observations beyond the last bound. One byte per event buys the
// analyzer latency histograms without storing nanosecond durations.
func LatBucket(d time.Duration) uint8 {
	ns := int64(d)
	for i, b := range latBoundsNS {
		if ns <= b {
			return uint8(i)
		}
	}
	return uint8(len(latBoundsNS))
}

// LatBucketBound returns the upper bound (seconds) of bucket i, or
// +Inf for the overflow bucket.
func LatBucketBound(i uint8) float64 {
	if int(i) < len(obs.LatencyBuckets) {
		return obs.LatencyBuckets[i]
	}
	return math.Inf(1)
}
