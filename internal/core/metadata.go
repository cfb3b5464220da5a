package core

import (
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"monarch/internal/bufpool"
	"monarch/internal/storage"
)

// placementState tracks a file's progress through the placement
// pipeline.
type placementState int

const (
	// stateSource: only the PFS copy exists and no placement has been
	// scheduled yet.
	stateSource placementState = iota
	// stateQueued: a placement task is queued or running.
	stateQueued
	// statePlaced: the file lives on an upper tier.
	statePlaced
	// stateUnplaceable: every candidate tier was full (or a placement
	// failed permanently); the file is served from the PFS until a tier
	// recovery makes it re-placeable (§III-A: placement stops once the
	// local tiers run out of space).
	stateUnplaceable
	// stateDemoted: the file was placed on a tier whose circuit breaker
	// tripped; it is served from the source until the tier recovers and
	// resetForReplacement sends it back through the placement pipeline.
	stateDemoted
	// stateEvicting: an eviction has re-pointed the entry at the source,
	// where reads now route, but the tier copy is still being removed.
	// tryQueue refuses it, so no re-placement can land bytes that the
	// evictor's pending Remove would then delete; evictDone moves it on
	// to stateSource once the bytes have left the tier.
	stateEvicting
)

// fileEntry is the paper's "file info": size, name and current storage
// tier, guarded for concurrent access from the framework's reader
// threads and the placement pool. Beyond the paper it carries a
// landed-prefix watermark while a chunked placement is in flight, so the
// read path can serve the already-copied prefix from the upper tier
// mid-copy; and, while a read bound for the source can be served from
// memory, the buffer that serves it (fetch): a fetch-through's whole
// file until its attempt settles, or a read-ahead until its pass ends.
//
// Watermark invariants:
//   - armed exactly between arm and markPlaced/clearChunks; outside that
//     window reads never consult landed;
//   - bytes [0, landed) of the copy in flight are on level landedAt;
//   - landed only rises while armed (advance), never past size, so a
//     range observed covered stays covered until the placement resolves.
type fileEntry struct {
	name string
	size int64
	// writable marks a file registered by Create (insert), whose bytes
	// WriteAt changes in place: the read plan never lends views of it.
	// Fixed before the entry is linked into the namespace.
	writable bool

	// snap is a packed (state, level, chunk-armed, eviction-generation)
	// snapshot republished under mu after every transition, so the read
	// path answers "which tier serves this file right now?" with one
	// atomic load instead of the entry mutex. Layout: bits 0–7 state,
	// 8–31 level, 32 armed, 33–63 generation. The mutex stays the sole
	// writer: transitions are still serialized and the snapshot is
	// always internally consistent.
	snap atomic.Uint64

	// fetch is the one way a read bound for the source is served from
	// memory: a fetch-through's whole file, stored by the owner of the
	// queued attempt before it reaches the pool, or a read-ahead
	// (placer.readAhead) in ahead — a holder recycled, not allocated, per
	// fill. disarm drops it with the attempt, or when the entry leaves
	// stateUnplaceable. Only reads bound for the source
	// consult it, or write the sequential detector's run and runFlags:
	// placed-file reads pay nothing.
	fetch    atomic.Pointer[fetched]
	ahead    fetched
	run      atomic.Int64 // where the previous source-bound read ended
	runFlags atomic.Uint32

	mu       sync.Mutex
	level    int
	state    placementState
	gen      uint64    // evictions begun; lets a reader tell its route predates one
	queuedAt time.Time // when the current placement was enqueued (latency spans)

	// Chunked-placement residency (armed only while a chunked copy is
	// in flight; never in whole-file mode).
	armed    bool
	landedAt int
	landed   int64
}

const (
	snapArmed    = 1 << 32
	snapGenShift = 33
)

const (
	runIntact   = 1 << iota // every read since the one at offset 0 was adjacent
	runStreamed             // so was the pass before, all the way to EOF
	runFilled               // this run has had its read-ahead
)

// fetched holds a file's bytes [base, size) while reads bound for the
// source are served from them, booked on level: the tier a fetch-through
// was bound for, the source for a read-ahead. A read-ahead's bytes are
// bufpool's, so every user counts: the publication, each read while it
// copies, each lent view until its Release — the holder is its Releaser
// — and the last out returns the buffer. acquire fails at zero (the OSFS
// fd table's rule): fileEntry.ahead is refilled in place, held at -1
// meanwhile, and a stale pointer must not catch it half rewritten.
type fetched struct {
	data   []byte
	base   int64
	level  int
	pooled bool // bufpool's, not the GC's
	refs   atomic.Int32
	seq    atomic.Uint64 // which fill this is (placer.track); 0 while bound for a tier
}

func (f *fetched) acquire() bool {
	for n := f.refs.Load(); n > 0; n = f.refs.Load() {
		if f.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
	return false
}

// Release implements storage.Releaser.
func (f *fetched) Release() {
	data, pooled := f.data, f.pooled // read under the reference being dropped
	if f.refs.Add(-1) == 0 && pooled {
		bufpool.Put(data)
	}
}

// unpublish ends f's publication on e, if it still stands; reads and
// views that hold f keep its bytes.
func (e *fileEntry) unpublish(f *fetched) {
	if e.fetch.CompareAndSwap(f, nil) {
		f.Release()
	}
}

// sequential books a source-bound read of [off, end) and reports whether
// to read ahead from off: the first read of a pass whose predecessor
// streamed the whole file, or an adjacent read of a run not read ahead
// yet — its second, unless that fill failed. A run whose buffer the cap
// took gets no other: it would pull the rest of the file once per read.
// A backwards, overlapping or skipping read starts a new run. Readers
// racing on one file may lose an update: a read arms late or once too
// often, and the bytes served are the file's either way.
func (e *fileEntry) sequential(off, end int64) (arm bool) {
	prev, fl := e.run.Swap(end), e.runFlags.Load()
	switch {
	case off == 0:
		arm, fl = fl&runStreamed != 0, runIntact
	case off == prev:
		arm = fl&runFilled == 0
	default:
		fl = 0
	}
	if end == e.size && fl&runIntact != 0 {
		fl |= runStreamed
	}
	e.runFlags.Store(fl)
	return arm
}

// publish refreshes the packed snapshot; callers hold e.mu (or hold the
// entry exclusively, as populate does before linking it into a shard).
func (e *fileEntry) publish() {
	s := uint64(e.state)&0xff | uint64(e.level)&0xffffff<<8 | e.gen<<snapGenShift
	if e.armed {
		s |= snapArmed
	}
	e.snap.Store(s)
}

// disarm drops the watermark and the fetch buffer and publishes;
// every transition that ends a placement attempt or leaves
// stateUnplaceable finishes with it, so neither outlives what it
// describes. An unplaceable entry's buffer stays — a read-ahead, or the
// fetch of an attempt that found no room — to end with its pass. The
// buffer goes after the snapshot: once markPlaced has re-routed reads to
// the tier, none falls between the two and reads the source. Callers
// hold e.mu.
func (e *fileEntry) disarm() {
	e.armed, e.landed = false, 0
	e.publish()
	if f := e.fetch.Load(); f != nil && e.state != stateUnplaceable {
		e.unpublish(f)
	}
}

// snapshot returns the packed (state, level, armed) triple with one
// atomic load.
func (e *fileEntry) snapshot() (placementState, int, bool) {
	return unpackSnap(e.snap.Load())
}

func unpackSnap(s uint64) (placementState, int, bool) {
	return placementState(s & 0xff), int(s >> 8 & 0xffffff), s&snapArmed != 0
}

func (e *fileEntry) currentLevel() int {
	_, lvl, _ := e.snapshot()
	return lvl
}

func (e *fileEntry) currentState() placementState {
	st, _, _ := e.snapshot()
	return st
}

// tryQueue transitions Source→Queued exactly once; it reports whether
// the caller won the race and should schedule the placement.
func (e *fileEntry) tryQueue() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateSource {
		return false
	}
	e.state = stateQueued
	e.queuedAt = time.Now()
	e.publish()
	return true
}

// queuedSince returns when the in-flight placement was enqueued; the
// zero time if none is.
func (e *fileEntry) queuedSince() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queuedAt
}

// markPlaced records a successful placement onto level and disarms any
// watermark: once placed, the normal tier routing serves the file.
func (e *fileEntry) markPlaced(level int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.level = level
	e.state = statePlaced
	e.disarm()
}

// arm starts the watermark of a chunked copy into level at zero bytes
// landed (a retried placement starts over).
func (e *fileEntry) arm(level int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.armed, e.landedAt, e.landed = true, level, 0
	e.publish()
}

// advance records the copy's first end bytes as landed. The watermark
// only rises, never past size, and only while armed.
func (e *fileEntry) advance(end int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.armed && end > e.landed {
		e.landed = min(end, e.size)
	}
}

// clearChunks discards what an attempt that failed or was cancelled
// left for readers — a landed prefix, a fetch-through buffer; the entry
// falls back to source-only residency.
func (e *fileEntry) clearChunks() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.disarm()
}

// chunksCover reports whether [off, off+n), clamped to the file size,
// lies in the landed prefix of the chunked placement in flight,
// returning the level it is landing on. It only answers while the
// placement is in flight (stateQueued, armed); empty ranges go to the
// source.
func (e *fileEntry) chunksCover(off, n int64) (int, bool) {
	// Lock-free pre-gate: outside the arm→markPlaced/clearChunks window
	// (the common case — placed or plain source files) the armed bit is
	// clear and reads never pay the entry mutex here.
	if st, _, armed := e.snapshot(); !armed || st != stateQueued {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.armed || e.state != stateQueued || off < 0 || off >= e.size || n <= 0 || min(off+n, e.size) > e.landed {
		return 0, false
	}
	return e.landedAt, true
}

// markUnplaceable records that no tier had space.
func (e *fileEntry) markUnplaceable() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state = stateUnplaceable
	e.disarm()
}

// markEvictedFrom begins an eviction: it atomically re-points a file
// placed on from at the source level, reporting whether the entry
// actually moved. It refuses any entry not currently placed on from —
// in particular queued entries with an in-flight (possibly chunk-armed)
// placement, which is what pins them against eviction — so a victim
// chosen from a stale policy view is skipped instead of corrupted. The
// entry lands in stateEvicting until evictDone.
func (e *fileEntry) markEvictedFrom(from, sourceLevel int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != statePlaced || e.level != from {
		return false
	}
	e.level = sourceLevel
	e.state = stateEvicting
	e.gen++
	e.disarm()
	return true
}

// evictDone ends an eviction once the tier copy is gone: the entry is
// re-placeable on its next access.
func (e *fileEntry) evictDone() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateEvicting {
		e.state = stateSource
		e.publish()
	}
}

// markDemoted re-points a file placed on a tripped tier at the source
// level; it reports whether the entry actually moved (false when a
// concurrent demotion or placement already changed it).
func (e *fileEntry) markDemoted(from, sourceLevel int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != statePlaced || e.level != from {
		return false
	}
	e.level = sourceLevel
	e.state = stateDemoted
	e.publish()
	return true
}

// cancelQueued returns a queued entry to Source after a cancelled
// placement, so a later access may schedule it again; a cancelled
// placement is not a placement failure.
func (e *fileEntry) cancelQueued() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateQueued {
		e.state = stateSource
	}
	e.disarm()
}

// makeReplaceable sends a demoted or unplaceable entry back to Source
// so its next access re-enters the placement pipeline; it reports
// whether the entry changed.
func (e *fileEntry) makeReplaceable() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateDemoted && e.state != stateUnplaceable {
		return false
	}
	e.state = stateSource
	e.disarm()
	return true
}

// metaShards is the lock-stripe width of the namespace. Power of two
// so shard selection is a mask; 64 stripes keep the collision odds of
// any two concurrently-read files on one lock at ~1.5%.
const metaShards = 64

// metaShard is one lock stripe: a plain map under its own RWMutex.
// Padding keeps neighbouring shards' locks off one cache line, so
// reader fan-in on shard i doesn't false-share with shard i+1.
type metaShard struct {
	mu      sync.RWMutex
	entries map[string]*fileEntry
	_       [40]byte
}

// metadataContainer is the paper's virtual namespace module. It follows
// an ephemeral storage model: populated at the start of the training
// job, updated during runtime, and discarded with the process.
//
// The namespace is sharded into metaShards lock stripes keyed by a
// maphash of the file name: a read locks only its own stripe, so
// goroutine fan-in on distinct files no longer serializes on one
// RWMutex cache line. Entries never move between stripes (the
// namespace is append-only after Init), and whole-namespace walks
// (list, resetForReplacement) take the stripes in index order.
type metadataContainer struct {
	seed   maphash.Seed
	shards [metaShards]metaShard
	ready  atomic.Bool
	count  atomic.Int64
	levels int
}

func newMetadataContainer(levels int) *metadataContainer {
	c := &metadataContainer{seed: maphash.MakeSeed(), levels: levels}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*fileEntry)
	}
	return c
}

func (c *metadataContainer) shard(name string) *metaShard {
	return &c.shards[maphash.String(c.seed, name)&(metaShards-1)]
}

// populate builds the namespace from a source-level listing.
func (c *metadataContainer) populate(infos []storage.FileInfo, sourceLevel int) {
	for _, fi := range infos {
		e := &fileEntry{name: fi.Name, size: fi.Size, level: sourceLevel}
		e.publish()
		s := c.shard(fi.Name)
		s.mu.Lock()
		if _, exists := s.entries[fi.Name]; !exists {
			c.count.Add(1)
		}
		s.entries[fi.Name] = e
		s.mu.Unlock()
	}
	c.ready.Store(true)
}

// insert adds one entry at runtime (the write path registering a
// created file). It fails with storage.ErrExist when the name is
// taken: writable names must not shadow dataset files.
func (c *metadataContainer) insert(name string, size int64, level int, state placementState) (*fileEntry, error) {
	e := &fileEntry{name: name, size: size, writable: true, level: level, state: state}
	e.publish()
	s := c.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[name]; exists {
		return nil, storage.ErrExist
	}
	s.entries[name] = e
	c.count.Add(1)
	return e, nil
}

// remove drops an entry from the namespace (the write path's Remove);
// it reports whether the name was present.
func (c *metadataContainer) remove(name string) bool {
	s := c.shard(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[name]; !exists {
		return false
	}
	delete(s.entries, name)
	c.count.Add(-1)
	return true
}

func (c *metadataContainer) initialized() bool {
	return c.ready.Load()
}

func (c *metadataContainer) get(name string) (*fileEntry, bool) {
	s := c.shard(name)
	s.mu.RLock()
	e, ok := s.entries[name]
	s.mu.RUnlock()
	return e, ok
}

func (c *metadataContainer) len() int {
	return int(c.count.Load())
}

// list returns the namespace sorted by name.
func (c *metadataContainer) list() []storage.FileInfo {
	out := make([]storage.FileInfo, 0, c.len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			out = append(out, storage.FileInfo{Name: e.name, Size: e.size})
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// resetForReplacement makes every demoted or unplaceable entry
// re-placeable after a tier recovery; it returns how many entries
// changed.
func (c *metadataContainer) resetForReplacement() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			if e.makeReplaceable() {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}

// sortedEntries returns entries in name order (pre-staging order).
func (c *metadataContainer) sortedEntries() []*fileEntry {
	out := make([]*fileEntry, 0, c.len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			out = append(out, e)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
