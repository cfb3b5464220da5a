package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"sync"
	"sync/atomic"

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
	// DirtyBudget bounds the unflushed write-back bytes; writers block
	// once the budget is exhausted until the flusher drains. Zero means
	// 256 MiB.
	DirtyBudget int64
	// FlushWorkers is the number of dedicated flusher goroutines. They
	// are deliberately NOT placement-pool tasks: the write-burst gate
	// pauses pool workers, and a flusher queued behind paused workers
	// while writers block on the dirty budget would deadlock the path
	// it exists to drain. Zero means 2.
	FlushWorkers int
	// BurstIdle is how long after the last foreground write the
	// checkpoint-burst gate keeps background placement copies paused
	// (the gate also holds while dirty bytes remain). Zero means 100ms.
	BurstIdle time.Duration
}

func (c WriteConfig) dirtyBudget() int64 {
	if c.DirtyBudget <= 0 {
		return 256 << 20
	}
	return c.DirtyBudget
}

func (c WriteConfig) flushWorkers() int {
	if c.FlushWorkers <= 0 {
		return 2
	}
	return c.FlushWorkers
}

func (c WriteConfig) burstIdle() time.Duration {
	if c.BurstIdle <= 0 {
		return 100 * time.Millisecond
	}
	return c.BurstIdle
}

func (c WriteConfig) durabilityOf(name string) Durability {
	if c.Durability == nil {
		return WriteThrough
	}
	return c.Durability(name)
}

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

	mu       sync.Mutex
	dirty    int64  // tier-0-acked bytes not yet flushed to the PFS
	lastSeq  uint64 // journal seq of the newest acked data record
	flushing bool   // a flusher worker owns this file right now
	removed  bool
}

// writeState is the write subsystem: the writable-file table, the
// dirty-budget ledger, the dedicated flusher workers, the write-burst
// gate, and the crash journal.
type writeState struct {
	m   *Monarch
	cfg WriteConfig
	jn  *journal.Journal // nil without JournalPath

	mu     sync.Mutex
	files  map[string]*writeFile
	dirty  int64         // sum of per-file dirty (budget accounting)
	waitCh chan struct{} // closed+replaced when dirty drains; nil when nobody waits

	kick chan struct{} // nudges the flusher workers (cap 1)
	quit chan struct{}
	wg   sync.WaitGroup

	// lastWrite is the monotonic nanosecond stamp (time.Since(m.base))
	// of the last foreground write ack; the burst gate reads it.
	lastWrite atomic.Int64
	started   atomic.Bool
	closed    atomic.Bool
}

func newWriteState(m *Monarch, cfg WriteConfig) *writeState {
	return &writeState{
		m:     m,
		cfg:   cfg,
		files: make(map[string]*writeFile),
		kick:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
}

// file returns the writable-file record, or nil.
func (ws *writeState) file(name string) *writeFile {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.files[name]
}

// protected reports whether name is a writable file — writable files
// are never eviction victims: dirty ones hold the only tiered copy of
// acked bytes, and clean ones are owned by the Remove lifecycle, not
// the placement policy.
func (ws *writeState) protected(name string) bool {
	if ws == nil {
		return false
	}
	return ws.file(name) != nil
}

// dirtyBytes reports the unflushed write-back backlog.
func (ws *writeState) dirtyBytes() int64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.dirty
}

// burstActive reports whether a write burst is in progress: a
// foreground write acked within BurstIdle, or unflushed bytes still
// draining. The placement gate polls this.
func (ws *writeState) burstActive() bool {
	if ws.dirtyBytes() > 0 {
		return true
	}
	last := ws.lastWrite.Load()
	return last > 0 && time.Since(ws.m.base)-time.Duration(last) < ws.cfg.burstIdle()
}

// pauseForBurst blocks until the write burst drains (or ctx ends).
// Called by placement-pool tasks; the flushers this wait depends on
// run on their own goroutines, so the pause can always resolve.
func (ws *writeState) pauseForBurst(ctx context.Context) {
	paused := false
	poll := ws.cfg.burstIdle() / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	for ws.burstActive() {
		if ctx.Err() != nil {
			return
		}
		if !paused {
			paused = true
			ws.m.stats.placementPauses.Add(1)
		}
		time.Sleep(poll)
	}
}

// writePause is the nil-safe gate hook on the placement paths.
func (m *Monarch) writePause(ctx context.Context) {
	if m.writes != nil {
		m.writes.pauseForBurst(ctx)
	}
}

// reserve blocks until n write-back bytes fit under the dirty budget,
// then charges them. It reports whether the writer had to stall.
func (ws *writeState) reserve(ctx context.Context, n int64) (stalled bool, err error) {
	budget := ws.cfg.dirtyBudget()
	for {
		ws.mu.Lock()
		if ws.dirty+n <= budget || ws.dirty == 0 {
			// A single write larger than the whole budget must still
			// proceed when the backlog is empty, or it would wait forever.
			ws.dirty += n
			ws.mu.Unlock()
			return stalled, nil
		}
		if ws.waitCh == nil {
			ws.waitCh = make(chan struct{})
		}
		wait := ws.waitCh
		ws.mu.Unlock()
		if !stalled {
			stalled = true
			ws.m.stats.writeStalls.Add(1)
		}
		ws.nudge()
		select {
		case <-wait:
		case <-ctx.Done():
			return stalled, ctx.Err()
		}
	}
}

// release returns n flushed (or voided) bytes to the budget and wakes
// stalled writers.
func (ws *writeState) release(n int64) {
	if n == 0 {
		return
	}
	ws.mu.Lock()
	ws.dirty -= n
	if ws.waitCh != nil {
		close(ws.waitCh)
		ws.waitCh = nil
	}
	ws.mu.Unlock()
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
	if !ws.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < ws.cfg.flushWorkers(); i++ {
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
			f := ws.claimDirty()
			if f == nil {
				break
			}
			if err := ws.flush(ctx, f); err != nil {
				// The PFS refused the flush. The bytes stay dirty (and
				// journaled), so nothing is lost; back off before the
				// next attempt rather than hot-looping on a dead PFS.
				select {
				case <-ws.quit:
					return
				case <-time.After(ws.cfg.burstIdle()):
				}
				ws.nudge()
			}
		}
	}
}

// claimDirty picks a dirty, unclaimed, live file and marks it flushing.
func (ws *writeState) claimDirty() *writeFile {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for _, f := range ws.files {
		f.mu.Lock()
		ok := f.dirty > 0 && !f.flushing && !f.removed
		if ok {
			f.flushing = true
		}
		f.mu.Unlock()
		if ok {
			return f
		}
	}
	return nil
}

// flush pushes f's current tier-0 content to the PFS and marks the
// covered bytes clean. Writers may land more bytes mid-flush; those
// stay dirty and the file is simply claimed again.
func (ws *writeState) flush(ctx context.Context, f *writeFile) error {
	m := ws.m
	f.mu.Lock()
	snap := f.dirty
	covered := f.lastSeq
	removed := f.removed
	f.mu.Unlock()
	if snap == 0 || removed {
		f.mu.Lock()
		f.flushing = false
		f.mu.Unlock()
		return nil
	}
	start := time.Now()
	// The tier-0 content as of `covered` is fully visible here: writers
	// update lastSeq only after their tier-0 write returns.
	data, err := m.levels[0].backend.ReadFile(ctx, f.name)
	if err == nil {
		err = m.source.backend.WriteFile(ctx, f.name, data)
	}
	dur := time.Since(start)
	if err != nil {
		f.mu.Lock()
		f.flushing = false
		f.mu.Unlock()
		m.inst.errs[stageFlush].Inc()
		m.event(Event{Kind: EventOpError, File: f.name, Level: m.source.level, Err: err})
		m.span(obs.Span{Kind: obs.SpanFlush, File: f.name, Tier: m.source.level, Bytes: int64(len(data)), Err: err, Duration: dur})
		return err
	}
	if ws.jn != nil {
		if _, jerr := ws.jn.Append(journal.Record{Kind: recFlush, Name: f.name, Off: covered}); jerr != nil {
			m.inst.errs[stageJournal].Inc()
			m.event(Event{Kind: EventOpError, File: f.name, Level: -1, Err: jerr})
		}
	}
	f.mu.Lock()
	f.dirty -= snap
	f.flushing = false
	f.mu.Unlock()
	ws.release(snap)
	m.stats.flushes.Inc()
	m.stats.flushedBytes.Add(snap)
	m.inst.flushLatency.Observe(dur.Seconds())
	m.event(Event{Kind: EventFlushed, File: f.name, Level: m.source.level, Bytes: snap})
	m.span(obs.Span{Kind: obs.SpanFlush, File: f.name, Tier: m.source.level, Bytes: int64(len(data)), Duration: dur})
	return nil
}

// drain flushes every dirty file, blocking until the backlog is empty
// or ctx ends. Used by Close and Monarch.Flush("").
func (ws *writeState) drain(ctx context.Context) error {
	for {
		if ws.dirtyBytes() == 0 {
			return nil
		}
		ws.nudge()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
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
	if ws.started.CompareAndSwap(false, true) {
		// Never started (Init not reached): just seal the journal.
		if ws.jn != nil {
			ws.jn.Close()
		}
		return
	}
	if graceful {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = ws.drain(ctx)
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
		ws.m.inst.errs[stageJournal].Inc()
	}
}

// persistHeat compacts the journal down to a heat-policy snapshot: the
// dirty backlog has drained, so the data records are dead weight and
// the snapshot is the only live state the next Init needs.
func (ws *writeState) persistHeat() {
	hp, ok := ws.m.cfg.Eviction.(*HeatPolicy)
	if !ok {
		if ws.dirtyBytes() == 0 {
			if err := ws.jn.Compact(nil); err != nil {
				ws.m.inst.errs[stageJournal].Inc()
			}
		}
		return
	}
	if ws.dirtyBytes() > 0 {
		// An unflushable backlog (PFS down at close): keep the journal
		// as-is — replay durability outranks snapshot compaction.
		return
	}
	epoch, files := hp.snapshotState()
	recs := make([]journal.Record, 0, len(files)+1)
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
	if err := ws.jn.Compact(recs); err != nil {
		ws.m.inst.errs[stageJournal].Inc()
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
	recovered := 0
	for _, name := range names {
		p := pending[name]
		if p.removed {
			if err := src.Remove(ctx, name); err != nil && !errors.Is(err, storage.ErrNotExist) {
				return fmt.Errorf("monarch: recover remove %q: %w", name, err)
			}
			continue
		}
		if !p.alloc && len(p.recs) == 0 {
			continue
		}
		if _, err := src.Stat(ctx, name); errors.Is(err, storage.ErrNotExist) {
			rw, ok := src.(storage.RangeWriter)
			if !ok {
				return fmt.Errorf("monarch: recover %q: source lacks range writes", name)
			}
			if err := rw.Allocate(ctx, name, p.size); err != nil {
				return fmt.Errorf("monarch: recover allocate %q: %w", name, err)
			}
		} else if err != nil {
			return fmt.Errorf("monarch: recover stat %q: %w", name, err)
		}
		if len(p.recs) > 0 {
			rw, ok := src.(storage.RangeWriter)
			if !ok {
				return fmt.Errorf("monarch: recover %q: source lacks range writes", name)
			}
			sort.Slice(p.recs, func(i, j int) bool { return p.recs[i].Seq < p.recs[j].Seq })
			for _, rec := range p.recs {
				if _, err := rw.WriteAt(ctx, name, rec.Data, int64(rec.Off)); err != nil {
					return fmt.Errorf("monarch: recover write %q: %w", name, err)
				}
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
	back := ws.cfg.durabilityOf(name) == WriteBack
	var target *driver
	var state placementState
	if back {
		target, state = m.levels[0], statePlaced
	} else {
		target, state = m.source, stateSource
	}
	rw, ok := target.backend.(storage.RangeWriter)
	if !ok {
		return fmt.Errorf("monarch: level %d (%s) lacks range writes: %w",
			target.level, target.backend.Name(), errors.ErrUnsupported)
	}
	ws.mu.Lock()
	if _, exists := ws.files[name]; exists {
		ws.mu.Unlock()
		return fmt.Errorf("monarch: create %q: %w", name, storage.ErrExist)
	}
	ws.mu.Unlock()
	if _, err := m.meta.insert(name, size, target.level, state); err != nil {
		return fmt.Errorf("monarch: create %q: %w", name, err)
	}
	if back && ws.jn != nil {
		if _, err := ws.jn.Append(journal.Record{Kind: recAlloc, Name: name, Off: uint64(size)}); err != nil {
			m.meta.remove(name)
			m.inst.errs[stageJournal].Inc()
			return fmt.Errorf("monarch: create %q: %w", name, err)
		}
	}
	if err := rw.Allocate(ctx, name, size); err != nil {
		m.meta.remove(name)
		return fmt.Errorf("monarch: create %q: %w", name, err)
	}
	f := &writeFile{name: name, size: size, back: back}
	ws.mu.Lock()
	ws.files[name] = f
	ws.mu.Unlock()
	m.stats.creates.Inc()
	return nil
}

// WriteAt writes len(p) bytes at offset off of a file previously
// registered with Create, acking at the file's durability level:
// write-through returns once the PFS has the bytes; write-back returns
// once tier 0 (and the journal, when configured) has them, with the
// PFS flush running behind the caller's back under the dirty budget.
func (m *Monarch) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	ws := m.writes
	if ws == nil {
		return 0, ErrWritesDisabled
	}
	start := time.Now()
	f := ws.file(name)
	if f == nil {
		err := fmt.Errorf("%w: %q", ErrNotWritable, name)
		m.inst.errs[stageWrite].Inc()
		m.span(obs.Span{Kind: obs.SpanWrite, File: name, Tier: -1, Off: off, Err: err, Duration: time.Since(start)})
		return 0, err
	}
	if off < 0 || off+int64(len(p)) > f.size {
		err := fmt.Errorf("monarch: write [%d,%d) outside %q (size %d)", off, off+int64(len(p)), name, f.size)
		m.inst.errs[stageWrite].Inc()
		m.span(obs.Span{Kind: obs.SpanWrite, File: name, Tier: -1, Off: off, Err: err, Duration: time.Since(start)})
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if f.back {
		return ws.writeBack(ctx, f, p, off, start)
	}
	return ws.writeThrough(ctx, f, p, off, start)
}

// writeThrough lands the bytes on the PFS before acking.
func (ws *writeState) writeThrough(ctx context.Context, f *writeFile, p []byte, off int64, start time.Time) (int, error) {
	m := ws.m
	rw := m.source.backend.(storage.RangeWriter)
	n, err := rw.WriteAt(ctx, f.name, p, off)
	dur := time.Since(start)
	if err != nil {
		m.inst.errs[stageWrite].Inc()
		m.span(obs.Span{Kind: obs.SpanWrite, File: f.name, Tier: m.source.level, Off: off, Err: err, Duration: dur})
		return n, err
	}
	ws.lastWrite.Store(int64(time.Since(m.base)))
	m.stats.writes.Inc()
	m.stats.writtenBytesFg.Add(int64(n))
	m.inst.writeLatency.Observe(dur.Seconds())
	m.span(obs.Span{Kind: obs.SpanWrite, File: f.name, Tier: m.source.level, Off: off, Bytes: int64(n), Duration: dur})
	return n, nil
}

// writeBack journals the bytes, lands them on tier 0, and acks; the
// flusher owns getting them to the PFS.
func (ws *writeState) writeBack(ctx context.Context, f *writeFile, p []byte, off int64, start time.Time) (int, error) {
	m := ws.m
	fail := func(n int, err error) (int, error) {
		m.inst.errs[stageWrite].Inc()
		m.span(obs.Span{Kind: obs.SpanWrite, File: f.name, Tier: 0, Off: off,
			Flags: obs.FlagWriteBack, Err: err, Duration: time.Since(start)})
		return n, err
	}
	stalled, err := ws.reserve(ctx, int64(len(p)))
	if err != nil {
		return fail(0, err)
	}
	f.wmu.Lock()
	var seq uint64
	if ws.jn != nil {
		var err error
		seq, err = ws.jn.Append(journal.Record{Kind: recData, Name: f.name, Off: uint64(off), Data: p})
		if err != nil {
			f.wmu.Unlock()
			ws.release(int64(len(p)))
			m.inst.errs[stageJournal].Inc()
			return fail(0, err)
		}
	}
	rw := m.levels[0].backend.(storage.RangeWriter)
	n, err := rw.WriteAt(ctx, f.name, p, off)
	if err != nil {
		f.wmu.Unlock()
		ws.release(int64(len(p)))
		return fail(n, err)
	}
	f.mu.Lock()
	f.dirty += int64(n)
	if seq > f.lastSeq {
		f.lastSeq = seq
	}
	f.mu.Unlock()
	f.wmu.Unlock()
	if int64(n) < int64(len(p)) {
		ws.release(int64(len(p)) - int64(n))
	}
	ws.lastWrite.Store(int64(time.Since(m.base)))
	ws.nudge()
	dur := time.Since(start)
	m.stats.writes.Inc()
	m.stats.writeBacks.Inc()
	m.stats.writtenBytesFg.Add(int64(n))
	if stalled {
		m.event(Event{Kind: EventWriteStalled, File: f.name, Level: 0, Bytes: int64(n)})
	}
	m.inst.writeLatency.Observe(dur.Seconds())
	m.span(obs.Span{Kind: obs.SpanWrite, File: f.name, Tier: 0, Off: off, Bytes: int64(n),
		Flags: obs.FlagWriteBack, Duration: dur})
	return n, nil
}

// Flush blocks until the named write-back file's acked bytes are
// durable on the PFS; name "" drains every dirty file. A no-op for
// write-through files.
func (m *Monarch) Flush(ctx context.Context, name string) error {
	ws := m.writes
	if ws == nil {
		return ErrWritesDisabled
	}
	if name == "" {
		return ws.drain(ctx)
	}
	f := ws.file(name)
	if f == nil {
		return fmt.Errorf("%w: %q", ErrNotWritable, name)
	}
	for {
		f.mu.Lock()
		dirty := f.dirty
		f.mu.Unlock()
		if dirty == 0 {
			return nil
		}
		ws.nudge()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Remove deletes a writable file everywhere: the namespace, its tiered
// copy, the PFS copy (if flushed), and — through the journal — any
// pending replay state. Dataset files cannot be removed.
func (m *Monarch) Remove(ctx context.Context, name string) error {
	ws := m.writes
	if ws == nil {
		return ErrWritesDisabled
	}
	start := time.Now()
	f := ws.file(name)
	if f == nil {
		err := fmt.Errorf("%w: %q", ErrNotWritable, name)
		m.inst.errs[stageWrite].Inc()
		m.span(obs.Span{Kind: obs.SpanRemove, File: name, Tier: -1, Err: err, Duration: time.Since(start)})
		return err
	}
	f.mu.Lock()
	f.removed = true
	voided := f.dirty
	f.dirty = 0
	f.mu.Unlock()
	ws.release(voided)
	if ws.jn != nil {
		if _, err := ws.jn.Append(journal.Record{Kind: recRemove, Name: name}); err != nil {
			m.inst.errs[stageJournal].Inc()
			m.event(Event{Kind: EventOpError, File: name, Level: -1, Err: err})
		}
	}
	ws.mu.Lock()
	delete(ws.files, name)
	ws.mu.Unlock()
	m.meta.remove(name)
	if f.back {
		if err := m.levels[0].backend.Remove(ctx, name); err != nil && !errors.Is(err, storage.ErrNotExist) {
			m.inst.errs[stageWrite].Inc()
			m.span(obs.Span{Kind: obs.SpanRemove, File: name, Tier: 0, Err: err, Duration: time.Since(start)})
			return err
		}
	}
	if err := m.source.backend.Remove(ctx, name); err != nil && !errors.Is(err, storage.ErrNotExist) {
		m.inst.errs[stageWrite].Inc()
		m.span(obs.Span{Kind: obs.SpanRemove, File: name, Tier: m.source.level, Err: err, Duration: time.Since(start)})
		return err
	}
	m.stats.removes.Inc()
	m.span(obs.Span{Kind: obs.SpanRemove, File: name, Tier: m.source.level, Duration: time.Since(start)})
	return nil
}

// DirtyBytes reports the write-back bytes acked but not yet flushed to
// the PFS (also the monarch_dirty_bytes gauge).
func (m *Monarch) DirtyBytes() int64 {
	if m.writes == nil {
		return 0
	}
	return m.writes.dirtyBytes()
}

// WriteBurstActive reports whether the checkpoint-burst gate currently
// holds background placement copies paused.
func (m *Monarch) WriteBurstActive() bool {
	return m.writes != nil && m.writes.burstActive()
}
