package trace

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"monarch/internal/obs"
)

// Config assembles a Recorder.
type Config struct {
	// Path is the trace destination, in the binary encoding of
	// format.go whatever its name.
	Path string
	// Sample records 1 in Sample plain read hits (<=1 records every
	// read). Sampling never touches partial hits, fallbacks, errors,
	// placements, chunk copies, epoch markers or state changes, so the
	// trace stays in lock-step with the middleware's event counters —
	// only the bulk local/PFS hit stream is thinned.
	Sample int
	// Now supplies monotonic nanoseconds; experiments pass the sim
	// clock so timestamps are virtual. Nil uses wall-monotonic time
	// since the recorder started.
	Now func() int64
	// Buffer is the ring capacity in events (default 65536, ~2 MiB).
	// When producers outrun the drainer the ring drops events and
	// counts them rather than blocking the read path.
	Buffer int
	// Levels, Source and ChunkSize describe the traced hierarchy and
	// are embedded in the header for replays.
	Levels    []Level
	Source    int
	ChunkSize int64
	// Meta is embedded verbatim in the header (scale, dataset, copy
	// chunk — whatever a consumer needs to interpret the run).
	Meta map[string]string
}

// RecorderStats is the recorder's own accounting. The invariant
// Seen == Recorded + SampledOut + Dropped always holds; Written trails
// Recorded until Close drains the ring.
type RecorderStats struct {
	Seen       int64 // events offered to the recorder
	Recorded   int64 // events accepted into the ring
	SampledOut int64 // plain read hits thinned by Config.Sample
	Dropped    int64 // ring overflow, sink failure, or post-Close arrivals
	Written    int64 // events the drainer has handed to the sink
}

// Recorder streams middleware events to a trace file. Producers only
// take a short mutex to append into a preallocated ring; encoding and
// file I/O happen on a background drainer goroutine.
type Recorder struct {
	cfg     Config
	sampleN int64
	now     func() int64
	epoch   int64 // wall base when cfg.Now is nil

	f   *os.File
	enc *encoder

	// recorded is not stored: the invariant pins it to
	// seen - sampledOut - dropped, saving one atomic per hot-path event.
	tick       atomic.Int64 // read-hit counter driving sampling
	seen       atomic.Int64
	sampledOut atomic.Int64
	dropped    atomic.Int64
	written    atomic.Int64

	mu      sync.Mutex
	ring    []Event
	start   int
	n       int
	defs    []File // file definitions pending a drain
	names   map[string]uint32
	summary map[string]int64
	sinkErr error
	closed  bool

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New opens cfg.Path and starts the drainer. The header is written
// immediately, so even an empty trace is self-describing.
func New(cfg Config) (*Recorder, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("trace: empty path")
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 1 << 16
	}
	if cfg.Sample < 1 {
		cfg.Sample = 1
	}
	f, err := os.Create(cfg.Path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	r := &Recorder{
		cfg:     cfg,
		sampleN: int64(cfg.Sample),
		now:     cfg.Now,
		ring:    make([]Event, cfg.Buffer),
		names:   make(map[string]uint32),
		summary: make(map[string]int64),
		f:       f,
		enc:     newEncoder(f),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	clock := "virtual"
	if r.now == nil {
		start := time.Now()
		r.now = func() int64 { return int64(time.Since(start)) }
		clock = "wall"
	}
	h := Header{
		Version:   Version,
		Clock:     clock,
		Sample:    cfg.Sample,
		Source:    cfg.Source,
		ChunkSize: cfg.ChunkSize,
		Levels:    cfg.Levels,
		Meta:      cfg.Meta,
	}
	if err := r.enc.header(h); err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %w", err)
	}
	go r.drainLoop()
	return r, nil
}

// AddFiles registers namespace entries (IDs are assigned in order).
// Call it once the metadata container is built; files first seen
// through events are interned lazily with size -1.
func (r *Recorder) AddFiles(files []File) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, f := range files {
		r.internLocked(f.Name, f.Size)
	}
	r.mu.Unlock()
	r.wakeDrainer()
}

// internLocked returns the ID for name, defining it if new. Definitions
// queue ahead of the events that reference them: defs and ring are
// appended under the same mutex and drained together, so a definition
// always reaches the sink before its first event.
func (r *Recorder) internLocked(name string, size int64) uint32 {
	if id, ok := r.names[name]; ok {
		return id
	}
	id := uint32(len(r.names) + 1)
	r.names[name] = id
	r.defs = append(r.defs, File{ID: id, Name: name, Size: size})
	return id
}

// spanRow is how one span kind is recorded: as an event of kind, whose
// class is the first that applies of noTier (the span failed and names
// no tier), onErr (it failed), the class of the first flags row whose
// flag it carries, and class. A new class is one row here, plus its
// price in Pricer.Price if it reaches the PFS.
type spanRow struct {
	kind   Kind
	class  Class
	onErr  Class
	noTier Class
	flags  []flagClass
}

type flagClass struct {
	flag  obs.SpanFlags
	class Class
}

// spanRows is indexed by obs.SpanKind. The kinds with no row — a
// placement's enqueue, a tier probe, an eviction's backend removal —
// are not trace events: the placement's resolution and the state
// stream (State) already say what they would.
var spanRows = [...]spanRow{
	obs.SpanRead: {kind: KindRead, class: ClassLocal, onErr: ClassError, flags: []flagClass{
		{obs.FlagFallback, ClassFallback},
		{obs.FlagPartial, ClassPartial},
		{obs.FlagPeerMiss, ClassPeerMiss},
		{obs.FlagHedged, ClassPeerHedge},
		{obs.FlagPeer, ClassPeer},
	}},
	// The remote half of a sibling's peer read.
	obs.SpanPeerServe: {kind: KindServe, onErr: ClassError},
	obs.SpanPlacement: {kind: KindPlacement, class: ClassFetch, onErr: ClassFail, noTier: ClassSkip,
		flags: []flagClass{{obs.FlagReuse, ClassReuse}}},
	obs.SpanChunkCopy: {kind: KindChunkCopy},
	obs.SpanWrite: {kind: KindWrite, class: ClassWrite, onErr: ClassError,
		flags: []flagClass{{obs.FlagWriteBack, ClassWriteBack}}},
	obs.SpanRemove: {kind: KindWrite, class: ClassRemove, onErr: ClassError},
	obs.SpanFlush:  {kind: KindFlush, class: ClassFlush, onErr: ClassError},
}

// classify maps a span onto the event that records it. ok is false for
// the span kinds the trace ignores. sampled says Config.Sample may thin
// it: only the bulk stream of plain local and PFS read hits is — never
// a serve (the witness that stitches a cross-node pair), a write (each
// acked byte matters for crash accounting) or anything else the
// analyzer prices from exact counts.
func classify(s *obs.Span, source int) (k Kind, c Class, sampled, ok bool) {
	if s.Kind < 0 || int(s.Kind) >= len(spanRows) || spanRows[s.Kind].kind == 0 {
		return 0, 0, false, false
	}
	row := &spanRows[s.Kind]
	c = row.class
	switch {
	case s.Err != nil && s.Tier < 0 && row.noTier != ClassNone:
		return row.kind, row.noTier, false, true
	case s.Err != nil:
		return row.kind, row.onErr, false, true
	}
	for _, f := range row.flags {
		if s.Flags&f.flag != 0 {
			return row.kind, f.class, false, true
		}
	}
	if row.kind == KindRead {
		if s.Tier == source {
			c = ClassPFS
		}
		sampled = true
	}
	return row.kind, c, sampled, true
}

// HookSpan adapts the middleware's span stream into trace events; wire
// it as (or into) core's Config.Trace hook.
func (r *Recorder) HookSpan(s obs.Span) {
	if r == nil {
		return
	}
	kind, class, sampled, ok := classify(&s, r.cfg.Source)
	if !ok {
		return
	}
	r.seen.Add(1)
	if sampled && r.sampleN > 1 && (r.tick.Add(1)-1)%r.sampleN != 0 {
		r.sampledOut.Add(1)
		return
	}
	r.enqueue(Event{
		T:     r.now(),
		Kind:  kind,
		Class: class,
		Tier:  int8(s.Tier),
		Lat:   LatBucket(s.Duration),
		Off:   s.Off,
		Len:   s.Bytes,
		Req:   s.Req,
	}, s.File)
}

// State records a tier-state change (demotion, eviction, breaker
// transitions); core forwards these from its event funnel.
func (r *Recorder) State(c Class, file string, tier int, bytes int64) {
	if r == nil {
		return
	}
	r.seen.Add(1)
	r.enqueue(Event{T: r.now(), Kind: KindState, Class: c, Tier: int8(tier), Len: bytes}, file)
}

// MarkEpoch records an epoch boundary: epoch n (1-based) just ended.
func (r *Recorder) MarkEpoch(n int) {
	if r == nil {
		return
	}
	r.seen.Add(1)
	r.enqueue(Event{T: r.now(), Kind: KindEpoch, Tier: -1, Len: int64(n)}, "")
}

// AddSummary merges counters into the trailer written at Close (core
// contributes its Stats; experiments add the measured PFS op count so
// the analyzer can cross-check its accounting).
func (r *Recorder) AddSummary(kv map[string]int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range kv {
		r.summary[k] = v
	}
}

// enqueue appends ev to the ring, interning the file name. Ring-full
// and post-Close events are dropped and counted, never blocked on.
// The drainer is only woken on an empty→non-empty transition: while it
// works it re-checks the ring itself, so per-event signalling would
// just add channel traffic and shrink its batches.
func (r *Recorder) enqueue(ev Event, file string) {
	r.mu.Lock()
	if r.closed || r.sinkErr != nil {
		r.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	if file != "" {
		ev.File = r.internLocked(file, -1)
	}
	if r.n == len(r.ring) {
		r.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	wasEmpty := r.n == 0
	r.ring[(r.start+r.n)%len(r.ring)] = ev
	r.n++
	r.mu.Unlock()
	if wasEmpty {
		r.wakeDrainer()
	}
}

// recorded derives the accepted-event count from the invariant.
func (r *Recorder) recorded() int64 {
	return r.seen.Load() - r.sampledOut.Load() - r.dropped.Load()
}

func (r *Recorder) wakeDrainer() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// drainLoop moves definitions and events from the ring to the encoder
// until Close. Encoding happens outside the producer mutex.
func (r *Recorder) drainLoop() {
	defer close(r.done)
	for {
		select {
		case <-r.wake:
			r.drain()
		case <-r.stop:
			r.drain()
			return
		}
	}
}

// drain writes everything currently buffered. Definitions drain before
// events grabbed in the same batch, preserving the define-before-use
// order established under the producer mutex.
func (r *Recorder) drain() {
	for {
		r.mu.Lock()
		if len(r.defs) == 0 && r.n == 0 {
			r.mu.Unlock()
			return
		}
		defs := r.defs
		r.defs = nil
		batch := make([]Event, 0, r.n)
		for r.n > 0 {
			batch = append(batch, r.ring[r.start])
			r.start = (r.start + 1) % len(r.ring)
			r.n--
		}
		broken := r.sinkErr != nil
		r.mu.Unlock()

		if broken {
			// Converts these events from recorded to dropped: recorded is
			// derived as seen - sampledOut - dropped.
			r.dropped.Add(int64(len(batch)))
			continue
		}
		var err error
		for _, d := range defs {
			if err = r.enc.define(d); err != nil {
				break
			}
		}
		for _, ev := range batch {
			if err != nil {
				break
			}
			if err = r.enc.event(ev); err != nil {
				break
			}
			r.written.Add(1)
		}
		if err != nil {
			r.mu.Lock()
			if r.sinkErr == nil {
				r.sinkErr = err
			}
			r.mu.Unlock()
		}
	}
}

// Stats returns the recorder's accounting.
func (r *Recorder) Stats() RecorderStats {
	if r == nil {
		return RecorderStats{}
	}
	return RecorderStats{
		Seen:       r.seen.Load(),
		Recorded:   r.recorded(),
		SampledOut: r.sampledOut.Load(),
		Dropped:    r.dropped.Load(),
		Written:    r.written.Load(),
	}
}

// Instrument registers the recorder's accounting into a metrics
// registry, so snapshots embed trace health next to everything else.
func (r *Recorder) Instrument(reg *obs.Registry, labels ...obs.Label) {
	const help = "Trace recorder events, by disposition."
	reg.CounterFunc("monarch_trace_events_total", help,
		r.recorded, append(labels, obs.L("disposition", "recorded"))...)
	reg.CounterFunc("monarch_trace_events_total", help,
		func() int64 { return r.sampledOut.Load() }, append(labels, obs.L("disposition", "sampled-out"))...)
	reg.CounterFunc("monarch_trace_events_total", help,
		func() int64 { return r.dropped.Load() }, append(labels, obs.L("disposition", "dropped"))...)
	reg.CounterFunc("monarch_trace_written_total",
		"Trace events drained to the sink.",
		func() int64 { return r.written.Load() }, labels...)
}

// Close stops intake, drains the ring, writes the trailer and closes
// the file. Events arriving after Close are dropped and counted; a
// second Close is a no-op returning the first outcome.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.closed {
		err := r.sinkErr
		r.mu.Unlock()
		return err
	}
	r.closed = true
	r.mu.Unlock()

	close(r.stop)
	<-r.done

	r.mu.Lock()
	defer r.mu.Unlock()
	t := Trailer{
		Summary: r.summary,
		Trace: map[string]int64{
			"seen":        r.seen.Load(),
			"recorded":    r.recorded(),
			"sampled_out": r.sampledOut.Load(),
			"dropped":     r.dropped.Load(),
		},
	}
	if r.sinkErr == nil {
		r.sinkErr = r.enc.trailer(t)
	}
	if r.sinkErr == nil {
		r.sinkErr = r.enc.flush()
	}
	if err := r.f.Close(); err != nil && r.sinkErr == nil {
		r.sinkErr = err
	}
	return r.sinkErr
}
