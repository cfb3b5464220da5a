package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"sync"
	"sync/atomic"

	"monarch/internal/bufpool"
	"monarch/internal/journal"
	"monarch/internal/obs"
	"monarch/internal/storage"
)

// Durability selects how a writable file's bytes are acknowledged.
type Durability int

const (
	// WriteThrough acks a write only after the PFS (source level) has
	// the bytes — the durability of a direct-PFS checkpoint, at its
	// latency.
	WriteThrough Durability = iota
	// WriteBack acks as soon as tier 0 has the bytes; a background
	// flusher pushes them to the PFS behind the job's back. With a
	// journal configured, acked bytes survive a kill -9 before the
	// flush: the journal replays them into the PFS on the next Init.
	WriteBack
)

// String names the durability level.
func (d Durability) String() string {
	switch d {
	case WriteThrough:
		return "write-through"
	case WriteBack:
		return "write-back"
	default:
		return "unknown"
	}
}

// WriteConfig enables the write path: Create/WriteAt/Flush/Remove for
// runtime-created files (checkpoints, logs, preprocessed shards). The
// dataset the source listing yields stays read-only; only files
// created through Create are writable.
type WriteConfig struct {
	// Enabled turns the write path on.
	Enabled bool
	// Durability picks the level for a new file by name; nil means
	// WriteThrough for everything.
	Durability func(name string) Durability
	// JournalPath, when non-empty, write-ahead-logs every write-back
	// mutation to this file (see internal/journal), making tier-0-acked
	// bytes survive a kill -9 before their flush: Init replays the
	// journal into the PFS before listing it. The journal also persists
	// heat-policy state across restarts (written on Close).
	JournalPath string
	// JournalSync fsyncs the journal on every append, extending
	// durability from process death to machine crash.
	JournalSync bool
}

const (
	// dirtyBudget bounds the unflushed write-back bytes: writers block
	// once it is exhausted until the flusher drains.
	dirtyBudget = 256 << 20
	// burstIdle is how long after the last foreground write the
	// checkpoint-burst gate keeps background placement copies paused
	// (the gate also holds while dirty bytes remain). It doubles as the
	// flusher's back-off after a refused flush.
	burstIdle = 100 * time.Millisecond
	// flushRefusals is how many flushes of one file the PFS may refuse in
	// a row before Flush and Close report its error instead of waiting.
	flushRefusals = 3
	// flushWorkers is the number of dedicated flusher goroutines. They
	// are deliberately NOT placement-pool tasks: the write-burst gate
	// pauses pool workers, and a flusher queued behind paused workers
	// while writers block on the dirty budget would deadlock the path
	// it exists to drain.
	flushWorkers = 2
)

// ErrWritesDisabled is returned by the write API without Config.Write.
var ErrWritesDisabled = errors.New("monarch: writes not enabled")

// ErrNotWritable is returned when WriteAt/Flush/Remove target a file
// that was not created through Create — the dataset stays read-only.
var ErrNotWritable = errors.New("monarch: file is not writable")

// Journal record kinds. The journal carries the write-back WAL plus
// the heat-policy snapshot; framing lives in internal/journal, these
// semantics live here.
const (
	// recAlloc: a writable file was created; Off is its size.
	recAlloc byte = 1
	// recData: one acked write-back write; Off is the file offset, Data
	// the payload.
	recData byte = 2
	// recFlush: every data record for Name with seq <= Off is durable
	// on the PFS and must not be replayed.
	recFlush byte = 3
	// recRemove: the file was removed; pending records are void.
	recRemove byte = 4
	// recHeatFile: one file's heat-decay state (Off = lastEpoch, Data =
	// prevBits u64 + cur u64, little-endian).
	recHeatFile byte = 5
	// recHeatEpoch: the heat policy's global epoch (Off).
	recHeatEpoch byte = 6
)

// durabilityState is a writable file's place in the write plan:
//
//	clean → dirty → flushing → clean | dirty
//	clean | dirty → removing → gone
//
// A write-through file stays clean until it is removed. Transitions
// run under writeState.mu, the ledger's lock, so state and dirty bytes
// always move together.
type durabilityState int

const (
	// writeClean: every acked byte is on the PFS.
	writeClean durabilityState = iota
	// writeDirty: tier 0 holds acked bytes the PFS lacks and no flusher
	// owns the file; claimDirty moves it on.
	writeDirty
	// writeFlushing: one flusher worker is pushing the file's claimed
	// ranges to the PFS. Writers keep landing bytes meanwhile; Remove
	// waits the flush out, or its PFS remove could run before the
	// flusher's write and leave the removed file behind.
	writeFlushing
	// writeRemoving: a Remove owns the file. claimDirty skips it, a write
	// that raced the Remove is refused at its ack, and the name stays
	// reserved in the table and the namespace until both backend removes
	// have returned — so a Create of the same name cannot have its fresh
	// allocation deleted by this Remove.
	writeRemoving
)

// writeFile is one writable file's live write-back state.
type writeFile struct {
	name string
	size int64
	back bool // WriteBack durability

	// wmu serialises write-back writes to this one file, so lastSeq is
	// monotone with *landed* tier-0 writes: without it, writer B (seq 6)
	// could publish lastSeq=6 while writer A's seq-5 bytes were still in
	// flight, and a flush covering 6 would let replay drop record 5.
	// Distinct files (the checkpoint-shard case) still write in parallel.
	wmu sync.Mutex

	// Guarded by writeState.mu.
	state   durabilityState
	dirty   int64  // tier-0-acked bytes not yet flushed; moved only by book
	ranges  spans  // where they are; a claim takes the list, a refusal merges it back
	lastSeq uint64 // journal seq of the newest acked data record
	refused int    // flushes the PFS refused in a row
	err     error  // the last refusal; nil after a flush that landed

	// onPFS: the PFS holds the file, so ranges can land in it. Only the
	// flusher that has the file in writeFlushing looks or sets.
	onPFS bool
}

// writeState is the write subsystem: the writable-file table, the
// dirty-budget ledger, the dedicated flusher workers, the write-burst
// gate, and the crash journal.
type writeState struct {
	m   *Monarch
	cfg WriteConfig
	jn  *journal.Journal // nil without JournalPath

	// budget and idle are dirtyBudget and burstIdle; fields so the
	// in-package tests can shrink them before Init.
	budget int64
	idle   time.Duration

	mu    sync.Mutex
	files map[string]*writeFile
	dirty int64 // per-file dirty plus reservations in flight; moved only by book
	// wake is the write plan's one wake-up: book closes and drops it on
	// every ledger or state change, the next waiter makes a new one.
	wake chan struct{}

	kick chan struct{} // nudges the flusher workers (cap 1)
	quit chan struct{}
	wg   sync.WaitGroup

	// lastWrite is the monotonic nanosecond stamp (time.Since(m.base))
	// of the last foreground write ack; the burst gate reads it.
	lastWrite atomic.Int64
	closed    atomic.Bool
}

func newWriteState(m *Monarch, cfg WriteConfig) *writeState {
	return &writeState{
		m:      m,
		cfg:    cfg,
		budget: dirtyBudget,
		idle:   burstIdle,
		files:  make(map[string]*writeFile),
		kick:   make(chan struct{}, 1),
		quit:   make(chan struct{}),
	}
}

// file returns the writable-file record, or nil.
func (ws *writeState) file(name string) *writeFile {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.files[name]
}

// dirtyBytes reports the unflushed write-back backlog (none without a
// write path).
func (ws *writeState) dirtyBytes() int64 {
	if ws == nil {
		return 0
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.dirty
}

// book is the only place dirty bytes move: file on f's count (nil f: a
// reservation no file owns yet), global on the budget ledger. A
// positive global delta is a reservation and is refused while it would
// push a non-empty backlog past the budget — a single write larger than
// the whole budget still proceeds once the backlog is empty, or it
// would wait for ever. Every call fires the wake-up, so a state change
// with nothing to move books zeros. Callers hold ws.mu.
func (ws *writeState) book(f *writeFile, file, global int64) bool {
	if global > 0 && ws.dirty > 0 && ws.dirty+global > ws.budget {
		return false
	}
	if f != nil {
		f.dirty += file
	}
	ws.dirty += global
	if ws.wake != nil {
		close(ws.wake)
		ws.wake = nil
	}
	return true
}

// waitLocked returns the channel the next book closes. Callers hold
// ws.mu since looking at what they wait on, so no change is missed.
func (ws *writeState) waitLocked() <-chan struct{} {
	if ws.wake == nil {
		ws.wake = make(chan struct{})
	}
	return ws.wake
}

// await blocks until done, asked under ws.mu, reports true; it asks
// again after every wake-up. Everything awaited here ends with a flush
// finishing, hence the nudge.
func (ws *writeState) await(ctx context.Context, done func() bool) error {
	for {
		ws.mu.Lock()
		if done() {
			ws.mu.Unlock()
			return nil
		}
		wake := ws.waitLocked()
		ws.mu.Unlock()
		ws.nudge()
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// idleLeft is how much of the burst gate's idle tail remains after the
// last foreground write ack; not positive once it has run out.
func (ws *writeState) idleLeft() time.Duration {
	last := ws.lastWrite.Load()
	if last == 0 {
		return 0
	}
	return ws.idle - (time.Since(ws.m.base) - time.Duration(last))
}

// burstActive reports whether a write burst is in progress: unflushed
// bytes still draining, or a foreground write acked within the idle
// tail.
func (ws *writeState) burstActive() bool {
	return ws != nil && (ws.dirtyBytes() > 0 || ws.idleLeft() > 0)
}

// pauseForBurst blocks until the write burst drains (or ctx ends); a
// no-op without a write path. Called by placement-pool tasks; the
// flushers this wait depends on run on their own goroutines, so the
// pause can always resolve.
func (ws *writeState) pauseForBurst(ctx context.Context) {
	if ws == nil {
		return
	}
	for paused := false; ctx.Err() == nil; {
		ws.mu.Lock()
		dirty, left := ws.dirty, ws.idleLeft()
		if dirty == 0 && left <= 0 {
			ws.mu.Unlock()
			return
		}
		wake := ws.waitLocked()
		ws.mu.Unlock()
		if !paused {
			paused = true
			ws.m.stats.placementPauses.Add(1)
		}
		// While bytes drain only the wake-up can end the wait; the idle
		// tail after them is the one thing no ledger change marks.
		var tail <-chan time.Time
		if dirty == 0 {
			tail = time.After(left)
		}
		select {
		case <-wake:
		case <-tail:
		case <-ctx.Done():
		}
	}
}

// ack books a landed write-back write: n of the reserved bytes, at off,
// became f's dirty bytes, the rest of the reservation (a short write,
// or all of it when err stopped the write) goes back. A file a Remove
// took meanwhile refuses the ack — its ledger share is already void.
func (ws *writeState) ack(f *writeFile, reserved, off, n int64, seq uint64, err error) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if err == nil && f.state == writeRemoving {
		err = fmt.Errorf("%w: %q removed mid-write", ErrNotWritable, f.name)
	}
	if err != nil {
		ws.book(nil, 0, -reserved)
		return err
	}
	ws.book(f, n, n-reserved)
	if n > 0 {
		f.ranges = f.ranges.add(off, off+n)
	}
	if seq > f.lastSeq {
		f.lastSeq = seq
	}
	if f.state == writeClean && f.dirty > 0 {
		f.state = writeDirty
	}
	return nil
}

// log appends rec to the journal, if one is configured, booking a
// refusal against the journal stage — for the callers that carry on
// without the record and the ones that refuse their write alike.
func (ws *writeState) log(rec journal.Record) (uint64, error) {
	if ws.jn == nil {
		return 0, nil
	}
	seq, err := ws.jn.Append(rec)
	if err != nil {
		ws.m.opError(stageJournal, rec.Name, -1, err)
	}
	return seq, err
}

// nudge wakes a flusher worker (non-blocking; one pending nudge is
// enough, workers drain every dirty file per wake).
func (ws *writeState) nudge() {
	select {
	case ws.kick <- struct{}{}:
	default:
	}
}

// start launches the flusher workers; called from Init after journal
// recovery so flushes never race the replay.
func (ws *writeState) start() {
	for range flushWorkers {
		ws.wg.Add(1)
		go ws.flushLoop()
	}
}

func (ws *writeState) flushLoop() {
	defer ws.wg.Done()
	ctx := context.Background()
	for {
		select {
		case <-ws.quit:
			return
		case <-ws.kick:
		}
		for {
			f, snap, ranges, covered := ws.claimDirty()
			if f == nil {
				break
			}
			if err := ws.flush(ctx, f, snap, ranges, covered); err != nil {
				// The PFS refused the flush. The bytes stay dirty (and
				// journaled), so nothing is lost; back off before the
				// next attempt rather than hot-looping on a dead PFS.
				select {
				case <-ws.quit:
					return
				case <-time.After(ws.idle):
				}
				ws.nudge()
			}
		}
	}
}

// claimDirty moves any dirty file to flushing for the calling worker
// and returns what the flush will cover: its dirty bytes, the ranges
// they lie in and its newest journal seq as of now.
func (ws *writeState) claimDirty() (f *writeFile, snap int64, ranges spans, covered uint64) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for _, f := range ws.files {
		if f.state == writeDirty {
			ranges, f.ranges = f.ranges, nil
			f.state = writeFlushing
			return f, f.dirty, ranges, f.lastSeq
		}
	}
	return nil, 0, nil, 0
}

// push lands the claimed ranges of f's tier-0 content on the PFS in
// pieces no larger than a pooled buffer and reports the bytes that
// crossed. The first push allocates the file there — unless the claim
// is the whole file, which is one WriteFile and no Allocate.
func (ws *writeState) push(ctx context.Context, f *writeFile, ranges spans) (pushed int64, _ error) {
	tier0, src := ws.m.levels[0].backend, ws.m.source.backend
	rw := src.(storage.RangeWriter) // New checked
	piece := int64(bufpool.MaxPooled)
	whole := !f.onPFS && len(ranges) == 1 && ranges[0] == span{0, f.size}
	if whole {
		piece = f.size
	} else if !f.onPFS {
		if err := rw.Allocate(ctx, f.name, f.size); err != nil {
			return 0, err
		}
		f.onPFS = true // a second Allocate would wipe what landed since
	}
	var longest int64
	for _, r := range ranges {
		longest = max(longest, r.end-r.off)
	}
	buf := bufpool.Get(int(min(longest, piece)))
	defer bufpool.Put(buf)
	for _, r := range ranges {
		for off := r.off; off < r.end; off += int64(len(buf)) {
			// Tier 0 as of the claim's seq is fully visible here: writers
			// publish lastSeq only after their tier-0 write returns.
			p := buf[:min(int64(len(buf)), r.end-off)]
			n, err := tier0.ReadAt(ctx, f.name, p, off)
			switch {
			case err != nil:
			case n < len(p):
				err = io.ErrUnexpectedEOF
			case whole:
				err = src.WriteFile(ctx, f.name, p)
			default:
				if n, err = rw.WriteAt(ctx, f.name, p, off); err == nil && n < len(p) {
					err = io.ErrShortWrite // a refusal, not a smaller success
				}
			}
			if err != nil {
				return pushed, err
			}
			pushed += int64(len(p))
		}
	}
	f.onPFS = true
	return pushed, nil
}

// flush pushes f's claimed ranges to the PFS and hands the file back:
// the snap bytes it was claimed with leave the ledger and it settles to
// clean, or to dirty when writers landed more mid-flush — then it is
// simply claimed again. A refused flush releases nothing: the ranges
// merge back into the file's and every byte stays dirty.
func (ws *writeState) flush(ctx context.Context, f *writeFile, snap int64, ranges spans, covered uint64) error {
	m := ws.m
	start := time.Now()
	pushed, err := ws.push(ctx, f, ranges)
	dur := time.Since(start)
	// Accounted before the ledger moves, so the Flush it wakes returns to
	// counters that already say what happened.
	if err != nil {
		m.opError(stageFlush, f.name, m.source.level, err)
	} else {
		// Best-effort: without the record a crash replays bytes the PFS
		// already has.
		_, _ = ws.log(journal.Record{Kind: recFlush, Name: f.name, Off: covered})
		m.stats.flushes.Inc()
		m.stats.flushedBytes.Add(snap)
		m.inst.flushLatency.Observe(dur.Seconds())
		m.event(Event{Kind: EventFlushed, File: f.name, Level: m.source.level, Bytes: snap})
	}
	m.span(obs.Span{Kind: obs.SpanFlush, File: f.name, Tier: m.source.level, Bytes: pushed, Err: err, Duration: dur})
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if f.err = err; err == nil {
		f.refused = 0
	} else {
		f.refused++
		snap = 0
		for _, r := range ranges {
			f.ranges = f.ranges.add(r.off, r.end)
		}
	}
	ws.book(f, -snap, -snap)
	f.state = writeClean
	if f.dirty > 0 {
		f.state = writeDirty
	}
	return err
}

// flushed blocks until f — nil: every file — has no dirty bytes or ctx
// ends. Once the PFS has refused flushRefusals flushes of such a file
// in a row its error comes back instead; the bytes stay dirty (and
// journaled) and the flusher keeps trying. Used by Flush and Close.
func (ws *writeState) flushed(ctx context.Context, f *writeFile) error {
	var stuck error
	check := func(f *writeFile) {
		if f.dirty > 0 && f.refused >= flushRefusals {
			stuck = fmt.Errorf("monarch: flush %q refused %d times: %w", f.name, f.refused, f.err)
		}
	}
	err := ws.await(ctx, func() bool {
		if f != nil {
			check(f)
			return f.dirty == 0 || stuck != nil
		}
		for _, f := range ws.files {
			check(f)
		}
		return ws.dirty == 0 || stuck != nil
	})
	return cmp.Or(err, stuck)
}

// close drains the dirty backlog, persists the heat snapshot, and
// closes the journal. graceful=false (Shutdown) skips the drain — the
// journal already holds every acked byte, so the next Init recovers
// them; only the heat snapshot is sacrificed.
func (ws *writeState) close(graceful bool) {
	if !ws.closed.CompareAndSwap(false, true) {
		// Close after Close (or Shutdown then Close): already sealed.
		return
	}
	if graceful {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = ws.flushed(ctx, nil)
		cancel()
	}
	close(ws.quit)
	ws.wg.Wait()
	if ws.jn == nil {
		return
	}
	if graceful {
		ws.persistHeat()
	}
	if err := ws.jn.Close(); err != nil {
		ws.m.opError(stageJournal, ws.cfg.JournalPath, -1, err)
	}
}

// persistHeat compacts the journal down to a heat-policy snapshot: the
// dirty backlog has drained, so the data records are dead weight and
// the snapshot (empty without a HeatPolicy) is the only live state the
// next Init needs.
func (ws *writeState) persistHeat() {
	if ws.dirtyBytes() > 0 {
		// An unflushable backlog (PFS down at close): keep the journal
		// as-is — replay durability outranks snapshot compaction.
		return
	}
	var recs []journal.Record
	if hp, ok := ws.m.cfg.Eviction.(*HeatPolicy); ok {
		epoch, files := hp.snapshotState()
		recs = append(recs, journal.Record{Kind: recHeatEpoch, Off: uint64(epoch)})
		for _, f := range files {
			var data [16]byte
			binary.LittleEndian.PutUint64(data[0:8], f.prevBits)
			binary.LittleEndian.PutUint64(data[8:16], uint64(f.cur))
			recs = append(recs, journal.Record{
				Kind: recHeatFile,
				Name: f.name,
				Off:  uint64(f.lastEpoch),
				Data: data[:],
			})
		}
	}
	if err := ws.jn.Compact(recs); err != nil {
		ws.m.opError(stageJournal, ws.cfg.JournalPath, -1, err)
	}
}

// pendingWrite is one file's unreplayed journal state during recovery.
type pendingWrite struct {
	size    int64
	alloc   bool
	recs    []journal.Record // data records not yet covered by a flush
	removed bool
}

// initWrites opens the journal, replays it into the PFS (so every
// tier-0-acked byte the previous process lost to a crash is durable
// before the namespace is listed), restores the heat snapshot, and
// starts the flusher workers. Called from Init before the source List.
func (m *Monarch) initWrites(ctx context.Context) error {
	ws := m.writes
	if ws == nil {
		return nil
	}
	if ws.cfg.JournalPath == "" {
		ws.start()
		return nil
	}
	pending := make(map[string]*pendingWrite)
	var heatEpoch int64
	var heatFiles []heatState
	jn, err := journal.Open(ws.cfg.JournalPath, journal.Options{
		Sync: ws.cfg.JournalSync,
		Meta: map[string]string{"owner": "monarch-write-path"},
	}, func(r journal.Record) error {
		switch r.Kind {
		case recAlloc:
			pending[r.Name] = &pendingWrite{size: int64(r.Off), alloc: true}
		case recData:
			p := pending[r.Name]
			if p == nil {
				p = &pendingWrite{}
				pending[r.Name] = p
			}
			p.recs = append(p.recs, r)
		case recFlush:
			if p := pending[r.Name]; p != nil {
				live := p.recs[:0]
				for _, rec := range p.recs {
					if rec.Seq > r.Off {
						live = append(live, rec)
					}
				}
				p.recs = live
			}
		case recRemove:
			pending[r.Name] = &pendingWrite{removed: true}
		case recHeatEpoch:
			heatEpoch = int64(r.Off)
		case recHeatFile:
			if len(r.Data) == 16 {
				heatFiles = append(heatFiles, heatState{
					name:      r.Name,
					prevBits:  binary.LittleEndian.Uint64(r.Data[0:8]),
					cur:       int64(binary.LittleEndian.Uint64(r.Data[8:16])),
					lastEpoch: int64(r.Off),
				})
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("monarch: write journal: %w", err)
	}
	ws.jn = jn
	if err := ws.recover(ctx, pending); err != nil {
		jn.Close()
		ws.jn = nil
		return err
	}
	if hp, ok := m.cfg.Eviction.(*HeatPolicy); ok && (heatEpoch > 0 || len(heatFiles) > 0) {
		hp.restoreState(heatEpoch, heatFiles)
	}
	ws.start()
	return nil
}

// recover applies the surviving journal state to the PFS: pending
// allocations and data records land (in seq order), pending removals
// remove. Afterwards the journal is compacted down to the heat
// snapshot — everything it recovered is durable now.
func (ws *writeState) recover(ctx context.Context, pending map[string]*pendingWrite) error {
	m := ws.m
	src := m.source.backend
	names := make([]string, 0, len(pending))
	for name := range pending {
		names = append(names, name)
	}
	sort.Strings(names)
	rw, _ := src.(storage.RangeWriter)
	recovered := 0
	for _, name := range names {
		p := pending[name]
		if p.removed {
			if err := notExistOK(src.Remove(ctx, name)); err != nil {
				return fmt.Errorf("monarch: recover remove %q: %w", name, err)
			}
			continue
		}
		if !p.alloc && len(p.recs) == 0 {
			continue
		}
		_, err := src.Stat(ctx, name)
		missing := errors.Is(err, storage.ErrNotExist)
		if err != nil && !missing {
			return fmt.Errorf("monarch: recover stat %q: %w", name, err)
		}
		if !missing && len(p.recs) == 0 {
			continue // every record was covered by a flush: nothing to recover
		}
		if rw == nil {
			return fmt.Errorf("monarch: recover %q: source lacks range writes", name)
		}
		if missing {
			if err := rw.Allocate(ctx, name, p.size); err != nil {
				return fmt.Errorf("monarch: recover allocate %q: %w", name, err)
			}
		}
		sort.Slice(p.recs, func(i, j int) bool { return p.recs[i].Seq < p.recs[j].Seq })
		for _, rec := range p.recs {
			n, err := rw.WriteAt(ctx, name, rec.Data, int64(rec.Off))
			if err == nil && n < len(rec.Data) {
				err = io.ErrShortWrite
			}
			if err != nil {
				return fmt.Errorf("monarch: recover write %q: %w", name, err)
			}
		}
		recovered++
	}
	if recovered > 0 {
		m.stats.recoveredFiles.Add(int64(recovered))
		m.event(Event{Kind: EventRecovered, File: "", Level: m.source.level, Bytes: int64(recovered)})
	}
	// Everything recovered is durable; drop the replayed WAL so the
	// next crash replays only post-recovery records. Heat records are
	// re-persisted on the next graceful close.
	if err := ws.jn.Compact(nil); err != nil {
		return fmt.Errorf("monarch: compact after recovery: %w", err)
	}
	return nil
}

// Create registers a new writable file of fixed size and allocates its
// backing bytes (zero-filled) on the tier its durability dictates:
// tier 0 for write-back, the PFS for write-through. The name must not
// collide with the namespace; dataset files are never writable.
func (m *Monarch) Create(ctx context.Context, name string, size int64) error {
	ws := m.writes
	if ws == nil {
		return ErrWritesDisabled
	}
	if name == "" || size < 0 {
		return fmt.Errorf("monarch: invalid create %q size %d", name, size)
	}
	if !m.meta.initialized() {
		return ErrNotInitialized
	}
	back := ws.cfg.Durability != nil && ws.cfg.Durability(name) == WriteBack
	target, state := m.source, stateSource
	if back {
		target, state = m.levels[0], statePlaced
	}
	rw, ok := target.backend.(storage.RangeWriter)
	if !ok {
		return fmt.Errorf("monarch: level %d (%s) lacks range writes: %w",
			target.level, target.backend.Name(), errors.ErrUnsupported)
	}
	// The namespace entry is the name's reservation: a writable file
	// keeps its own until Remove is through with both backends.
	if _, err := m.meta.insert(name, size, target.level, state); err != nil {
		return fmt.Errorf("monarch: create %q: %w", name, err)
	}
	var err error
	if back {
		_, err = ws.log(journal.Record{Kind: recAlloc, Name: name, Off: uint64(size)})
	}
	if err == nil {
		err = rw.Allocate(ctx, name, size)
	}
	if err != nil {
		m.meta.remove(name)
		return fmt.Errorf("monarch: create %q: %w", name, err)
	}
	ws.mu.Lock()
	ws.files[name] = &writeFile{name: name, size: size, back: back}
	ws.mu.Unlock()
	m.stats.creates.Inc()
	return nil
}

// WriteAt writes len(p) bytes at offset off of a file previously
// registered with Create, acking at the file's durability level:
// write-through returns once the PFS has the bytes; write-back returns
// once tier 0 (and the journal, when configured) has them, with the
// PFS flush running behind the caller's back under the dirty budget.
func (m *Monarch) WriteAt(ctx context.Context, name string, p []byte, off int64) (n int, err error) {
	ws := m.writes
	if ws == nil {
		return 0, ErrWritesDisabled
	}
	start := time.Now()
	f := ws.file(name)
	tier, flags, stalled := -1, obs.SpanFlags(0), false
	switch {
	case f == nil:
		err = fmt.Errorf("%w: %q", ErrNotWritable, name)
	case off < 0 || off+int64(len(p)) > f.size:
		err = fmt.Errorf("monarch: write [%d,%d) outside %q (size %d)", off, off+int64(len(p)), name, f.size)
	case len(p) == 0:
		return 0, nil
	case f.back:
		tier, flags = 0, obs.FlagWriteBack
		n, stalled, err = ws.writeBack(ctx, f, p, off)
	default: // write-through: the PFS has the bytes before the ack
		tier = m.source.level
		n, err = m.source.backend.(storage.RangeWriter).WriteAt(ctx, name, p, off)
	}
	// The one account tail for every outcome above.
	dur := time.Since(start)
	sp := obs.Span{Kind: obs.SpanWrite, File: name, Tier: tier, Off: off, Flags: flags, Err: err, Duration: dur}
	if err != nil {
		m.inst.errs[stageWrite].Inc()
	} else {
		sp.Bytes = int64(n)
		ws.lastWrite.Store(int64(time.Since(m.base)))
		m.stats.writes.Inc()
		if f.back {
			m.stats.writeBacks.Inc()
		}
		m.stats.writtenBytesFg.Add(int64(n))
		if stalled {
			m.event(Event{Kind: EventWriteStalled, File: name, Level: tier, Bytes: int64(n)})
		}
		m.inst.writeLatency.Observe(dur.Seconds())
	}
	m.span(sp)
	return n, err
}

// writeBack journals the bytes, lands them on tier 0, and acks; the
// flusher owns getting them to the PFS.
func (ws *writeState) writeBack(ctx context.Context, f *writeFile, p []byte, off int64) (n int, stalled bool, err error) {
	// Reserve: wait until the bytes fit under the dirty budget, then
	// charge them.
	reserved := int64(len(p))
	if err = ws.await(ctx, func() bool {
		if ws.book(nil, 0, reserved) {
			return true
		}
		if !stalled {
			stalled = true
			ws.m.stats.writeStalls.Add(1)
		}
		return false
	}); err != nil {
		return 0, stalled, err
	}
	f.wmu.Lock()
	seq, err := ws.log(journal.Record{Kind: recData, Name: f.name, Off: uint64(off), Data: p})
	if err == nil {
		n, err = ws.m.levels[0].backend.(storage.RangeWriter).WriteAt(ctx, f.name, p, off)
	}
	err = ws.ack(f, reserved, off, int64(n), seq, err)
	f.wmu.Unlock()
	if err == nil {
		ws.nudge()
	}
	return n, stalled, err
}

// Flush blocks until the named write-back file's acked bytes are
// durable on the PFS; name "" drains every dirty file. A no-op for
// write-through files.
func (m *Monarch) Flush(ctx context.Context, name string) error {
	ws := m.writes
	if ws == nil {
		return ErrWritesDisabled
	}
	f := ws.file(name)
	if f == nil && name != "" {
		return fmt.Errorf("%w: %q", ErrNotWritable, name)
	}
	return ws.flushed(ctx, f)
}

// notExistOK is err, or nil when err only says the name was not there.
func notExistOK(err error) error {
	if errors.Is(err, storage.ErrNotExist) {
		return nil
	}
	return err
}

// Remove deletes a writable file everywhere: the namespace, its tiered
// copy, the PFS copy (if flushed), and — through the journal — any
// pending replay state. Dataset files cannot be removed.
func (m *Monarch) Remove(ctx context.Context, name string) (err error) {
	ws := m.writes
	if ws == nil {
		return ErrWritesDisabled
	}
	start, tier := time.Now(), -1
	defer func() {
		if err != nil {
			m.inst.errs[stageWrite].Inc()
		} else {
			m.stats.removes.Inc()
		}
		m.span(obs.Span{Kind: obs.SpanRemove, File: name, Tier: tier, Err: err, Duration: time.Since(start)})
	}()
	f := ws.file(name)
	if f == nil {
		return fmt.Errorf("%w: %q", ErrNotWritable, name)
	}
	// The fence: clean|dirty → removing, voiding the dirty bytes — but a
	// flush in flight is waited out first, and a file another Remove
	// already owns is not this one's to take.
	took := false
	if err = ws.await(ctx, func() bool {
		if f.state == writeFlushing {
			return false
		}
		if took = f.state != writeRemoving; took {
			ws.book(f, -f.dirty, -f.dirty)
			f.state = writeRemoving
		}
		return true
	}); err != nil {
		return err
	}
	if !took {
		return fmt.Errorf("%w: %q", ErrNotWritable, name)
	}
	_, _ = ws.log(journal.Record{Kind: recRemove, Name: name}) // best-effort, like flush's record
	tier = 0
	if f.back {
		err = notExistOK(m.levels[0].backend.Remove(ctx, name))
	}
	if err == nil {
		tier, err = m.source.level, notExistOK(m.source.backend.Remove(ctx, name))
	}
	// Only now does the name come free — the table first, so the
	// namespace entry still refuses a Create while this record is in it.
	ws.mu.Lock()
	delete(ws.files, name)
	ws.mu.Unlock()
	m.meta.remove(name)
	return err
}

// DirtyBytes reports the write-back bytes acked but not yet flushed to
// the PFS (also the monarch_dirty_bytes gauge).
func (m *Monarch) DirtyBytes() int64 { return m.writes.dirtyBytes() }

// WriteBurstActive reports whether the checkpoint-burst gate currently
// holds background placement copies paused.
func (m *Monarch) WriteBurstActive() bool { return m.writes.burstActive() }
