package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// SpanKind classifies the typed spans MONARCH's hot paths emit. Spans
// replace ad-hoc log prints: each covers one bounded operation on the
// read → tier probe → placement enqueue → chunk copy pipeline, with its
// duration and outcome attached.
type SpanKind int

const (
	// SpanRead covers one foreground ReadAt, from namespace lookup to
	// the bytes landing in the caller's buffer. Tier is the level that
	// served it. With FlagFallback, Err carries the failed first attempt
	// as a *FallbackError; see Span.Failed.
	SpanRead SpanKind = iota
	// SpanPlacementEnqueue marks a first access handing a file to the
	// placement pool (duration zero: enqueue never blocks).
	SpanPlacementEnqueue
	// SpanPlacement covers one placement reaching a terminal state:
	// placed (Err nil), skipped, or failed. Duration runs from enqueue
	// to resolution, so it includes queue wait — the figure an operator
	// needs to size the pool.
	SpanPlacement
	// SpanChunkCopy covers one chunk of a chunked placement moving from
	// the source to the destination tier.
	SpanChunkCopy
	// SpanTierProbe covers one recovery probe of a Down tier.
	SpanTierProbe
	// SpanEvict covers one eviction: a victim's bytes leaving a tier to
	// make room for a hotter (or quota-entitled) placement. Duration is
	// the backend removal; the trace records it as a state change.
	SpanEvict
	// SpanPeerServe covers one READ frame served to a sibling node by
	// the peer cache server. It is the remote half of a peer read: its
	// Req matches the Req of the client-side SpanRead that triggered
	// it, so correlated traces can price true end-to-end peer latency.
	SpanPeerServe
	// SpanWrite covers one foreground WriteAt: from the durability
	// decision to the acknowledgment. Tier is the level that acked the
	// bytes (tier 0 for write-back, the source level for write-through);
	// FlagWriteBack distinguishes the two, and FlagStalled marks a
	// write-back that waited on the dirty budget.
	SpanWrite
	// SpanFlush covers one background flush of a write-back file's dirty
	// bytes from tier 0 to the PFS. Bytes is the file size flushed.
	SpanFlush
	// SpanRemove covers one foreground Remove of a writable file.
	SpanRemove
	// SpanBreaker records a tier's circuit breaker changing state: with
	// Err, a trip (Err is the error that opened it); without, a recovery
	// probe returning the tier to service, Bytes counting the entries
	// made re-placeable.
	SpanBreaker
	// SpanDemote records a placed file re-pointed at the source level
	// because its tier is Down. Tier is the level it left, Bytes its
	// size.
	SpanDemote
	// SpanRetry records a transient placement failure re-queued under the
	// retry policy: Err is the failure, Attempt the attempt that failed.
	SpanRetry
	// SpanPromote records an unplaceable file re-entering the placement
	// pipeline because its heat came to justify displacing a colder
	// resident.
	SpanPromote
	// SpanOpError records a best-effort operation that failed with no
	// caller to see Err: cleanup after a torn copy, an eviction victim's
	// removal, a probe's scratch file, a flush, a journal or trace-sink
	// write.
	SpanOpError
	// SpanRecover records Init replaying journaled write-back state into
	// the PFS after a crash; Bytes is the number of files recovered.
	SpanRecover
)

// String names the kind.
func (k SpanKind) String() string {
	switch k {
	case SpanRead:
		return "read"
	case SpanPlacementEnqueue:
		return "placement-enqueue"
	case SpanPlacement:
		return "placement"
	case SpanChunkCopy:
		return "chunk-copy"
	case SpanTierProbe:
		return "tier-probe"
	case SpanEvict:
		return "evict"
	case SpanPeerServe:
		return "peer-serve"
	case SpanWrite:
		return "write"
	case SpanFlush:
		return "flush"
	case SpanRemove:
		return "remove"
	case SpanBreaker:
		return "breaker"
	case SpanDemote:
		return "demote"
	case SpanRetry:
		return "retry"
	case SpanPromote:
		return "promote"
	case SpanOpError:
		return "op-error"
	case SpanRecover:
		return "recover"
	default:
		return "unknown"
	}
}

// SpanFlags qualify how an operation was served, beyond what Kind and
// Tier capture. They exist so downstream consumers (the trace recorder
// in particular) can classify hits without re-deriving middleware
// state.
type SpanFlags uint8

const (
	// FlagPartial marks a read served from bytes in flight: a chunked
	// placement's landed prefix or a fetch-through's buffer (mid-copy
	// read-through, booked on the tier the copy is bound for), or a
	// read-ahead buffer (booked on the source level).
	FlagPartial SpanFlags = 1 << iota
	// FlagFallback marks a read that failed on an upper tier and was
	// re-served from the source level. The span's Err records the
	// failure as a *FallbackError.
	FlagFallback
	// FlagReuse marks a placement satisfied by re-using the
	// foreground's full read instead of fetching from the source.
	FlagReuse
	// FlagPeer marks a read served by the peer cache tier: the bytes
	// came from a sibling node over the wire, not from the PFS.
	FlagPeer
	// FlagPeerMiss marks a read that was routed to the peer tier, found
	// the owner had not cached the file, and was re-served from the
	// source. A clean miss — distinct from FlagFallback, which records a
	// tier *failure*.
	FlagPeerMiss
	// FlagHedged marks a peer read whose primary replica blew past the
	// adaptive latency threshold, so a hedge request raced the next
	// replica (whichever answered first served the bytes).
	FlagHedged
	// FlagWriteBack marks a write acknowledged by tier 0 with the PFS
	// flush deferred to the background (vs write-through, which acks
	// only after the PFS has the bytes).
	FlagWriteBack
	// FlagStalled marks a write-back writer that blocked on the dirty
	// budget until the flusher drained.
	FlagStalled
)

// Span is one completed operation on an instrumented path. Spans are
// delivered synchronously to the Config.Trace hook; hooks must be fast
// and must not block, or they stall the path they observe.
type Span struct {
	Kind     SpanKind
	File     string        // file involved ("" for tier-scoped spans)
	Tier     int           // hierarchy level (-1 when not applicable)
	Off      int64         // byte offset of the operation, if ranged
	Bytes    int64         // payload bytes moved, if any
	Attempt  int           // 1-based placement attempt, if applicable
	Flags    SpanFlags     // hit qualifiers; see SpanFlags
	Req      uint64        // cross-node correlation ID (0 when unset)
	Err      error         // outcome; nil on success
	Duration time.Duration // wall-clock duration (informational under simulation)
}

// FallbackError is how a FlagFallback read span records the first
// attempt that let the read down: Tier is the level (a cache tier or
// the peer tier) that failed and Err its error. When the source then
// served the read it is the span's whole Err; when the source failed
// too, Err joins the source's error with it.
type FallbackError struct {
	Tier int
	Err  error
}

func (e *FallbackError) Error() string { return fmt.Sprintf("tier %d: %v", e.Tier, e.Err) }

func (e *FallbackError) Unwrap() error { return e.Err }

// Failed reports whether the operation failed: Err is set and is not
// merely the recovered first attempt of a fallback read.
func (s Span) Failed() bool {
	if _, recovered := s.Err.(*FallbackError); recovered {
		return false
	}
	return s.Err != nil
}

// String formats the span for logs.
func (s Span) String() string {
	out := s.Kind.String()
	if s.File != "" {
		out += " " + s.File
	}
	if s.Tier >= 0 {
		out += fmt.Sprintf(" tier=%d", s.Tier)
	}
	if s.Off > 0 {
		out += fmt.Sprintf(" off=%d", s.Off)
	}
	if s.Bytes > 0 {
		out += fmt.Sprintf(" bytes=%d", s.Bytes)
	}
	if s.Attempt > 0 {
		out += fmt.Sprintf(" attempt=%d", s.Attempt)
	}
	if s.Flags&FlagPartial != 0 {
		out += " partial"
	}
	if s.Flags&FlagFallback != 0 {
		out += " fallback"
	}
	if s.Flags&FlagReuse != 0 {
		out += " reuse"
	}
	if s.Flags&FlagPeer != 0 {
		out += " peer"
	}
	if s.Flags&FlagPeerMiss != 0 {
		out += " peer-miss"
	}
	if s.Flags&FlagHedged != 0 {
		out += " hedged"
	}
	if s.Flags&FlagWriteBack != 0 {
		out += " write-back"
	}
	if s.Flags&FlagStalled != 0 {
		out += " stalled"
	}
	if s.Req != 0 {
		out += fmt.Sprintf(" req=%016x", s.Req)
	}
	out += fmt.Sprintf(" dur=%s", s.Duration)
	if s.Err != nil {
		out += fmt.Sprintf(" err=%q", s.Err)
	}
	return out
}

// TraceHook receives completed spans.
type TraceHook func(Span)

// MultiHook fans one span stream out to several hooks, skipping nil
// entries. It returns nil when no hook remains, so callers can keep
// their usual `if hook != nil` fast path, and returns a lone survivor
// directly to avoid a wrapper on the hot path.
func MultiHook(hooks ...TraceHook) TraceHook {
	live := hooks[:0:0]
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(s Span) {
		for _, h := range live {
			h(s)
		}
	}
}

// Instrumentable is implemented by components (storage wrappers, pools)
// that can register their own metrics into a registry; extra labels
// identify the instance (e.g. its hierarchy tier).
type Instrumentable interface {
	Instrument(r *Registry, labels ...Label)
}

// readAnnKey keys a *ReadAnnotation in a context.
type readAnnKey struct{}

// ReadAnnotation is a flag backchannel from a backend to the span its
// read runs under. storage.Backend.ReadAt returns only (n, err), so a
// backend that wants to qualify how it served — the peer tier marking
// a hedged read — sets flags here; the middleware ORs them into the
// read span before emitting it. Writes happen before the backend call
// returns and reads after, on the caller's goroutine, so no locking.
// It also carries the read's request ID, if it has one (RequestIDFrom).
type ReadAnnotation struct {
	flags SpanFlags
	req   uint64
	home  *annotated // the context carrying it, until released
}

// Annotate marks the operation with f.
func (a *ReadAnnotation) Annotate(f SpanFlags) {
	if a != nil {
		a.flags |= f
	}
}

// Flags returns the accumulated flags.
func (a *ReadAnnotation) Flags() SpanFlags {
	if a == nil {
		return 0
	}
	return a.flags
}

// WithReadAnnotation derives a context carrying a fresh annotation with
// request ID req (0: none). The peer route derives one per read, so it
// comes from a pool that ReleaseReadAnnotation refills: a warm read
// allocates nothing for it.
func WithReadAnnotation(ctx context.Context, req uint64) (context.Context, *ReadAnnotation) {
	c, _ := annotations.Get().(*annotated)
	if c == nil {
		c = new(annotated)
	}
	c.Context, c.ann = ctx, ReadAnnotation{req: req, home: c}
	return c, &c.ann
}

// ReleaseReadAnnotation hands a's context back for a later
// WithReadAnnotation; neither may be used after. The rule: a context
// some goroutine may still walk after the read returned is never
// recycled. So a FlagHedged annotation is kept out of the pool — the
// hedge's losing request may outlive the read — and so is one over a
// parent that can be cancelled, which the context package may watch
// from a goroutine of its own. Nil, a second release and an annotation
// WithReadAnnotation did not make are no-ops.
func ReleaseReadAnnotation(a *ReadAnnotation) {
	if a == nil || a.home == nil || a.flags&FlagHedged != 0 || a.home.Context.Done() != nil {
		return
	}
	c := a.home
	*c = annotated{}
	annotations.Put(c)
}

// annotations recycles the contexts WithReadAnnotation derives.
var annotations sync.Pool

// annotated is the context WithReadAnnotation derives.
type annotated struct {
	context.Context
	ann ReadAnnotation
}

// Value answers the annotation's key without allocating and hands every
// other key to the parent.
func (c *annotated) Value(key any) any {
	if _, ok := key.(readAnnKey); ok {
		return &c.ann
	}
	return c.Context.Value(key)
}

// ReadAnnotationFrom extracts the annotation, or nil.
func ReadAnnotationFrom(ctx context.Context) *ReadAnnotation {
	a, _ := ctx.Value(readAnnKey{}).(*ReadAnnotation)
	return a
}
