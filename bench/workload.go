package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"monarch/internal/bufpool"
	"monarch/internal/core"
)

// runConfig is one invocation: a workload, a seed, how long the whole
// measured part may take, and whether the timing shims are installed.
type runConfig struct {
	W       workload
	Sz      sizes
	Seed    uint64
	Window  time.Duration // --seconds; 0 runs the minimum counts only
	Traced  bool
	Scratch string // a directory the run may fill and must empty
	SpanOut string // traced runs write their spans here; "" keeps them in memory only
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one invocation reports.
type runResult struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Traced   bool              `json:"traced"`
	Ops      int64             `json:"ops"`
	Failed   int64             `json:"failed_ops"`
	Metrics  map[string]metric `json:"metrics"`
	// Samples is how many values stand behind each median.
	Samples map[string]int `json:"samples"`
}

// snap is every counter the benchmark can read from outside the
// program at one instant: the middleware's public Stats summed over the
// nodes, the PFS emulator's counts, the shims' byte and socket counters
// (zero in an untraced run), bufpool, and the loader's own tally.
type snap struct {
	at    time.Time
	recAt int64 // the recorder's clock, traced runs
	core  core.Stats
	pfs   pfsCounts
	buf   bufpool.Stats

	tier0Written                            int64
	sockReads, sockWrites, sockBytes, dials int64
	srvReads, srvWrites, srvAwake           int64
	transportErrs                           int64

	ops, delivered, acked int64
}

func (st *stack) snap(t *tally) snap {
	s := snap{at: time.Now(), pfs: st.pfs.counts(), buf: bufpool.Snapshot()}
	for i, n := range st.nodes {
		ns := n.m.Stats()
		if i == 0 {
			s.core = ns
			s.core.ReadsServed = append([]int64(nil), ns.ReadsServed...)
			continue
		}
		addStats(&s.core, ns)
	}
	for _, n := range st.nodes {
		for _, c := range n.clients {
			s.transportErrs += c.TransportErrors()
		}
	}
	if st.rec != nil {
		s.recAt = st.rec.now()
		s.tier0Written = st.tier0IO.written.Load()
		s.sockReads, s.sockWrites = st.sock.reads.Load(), st.sock.writes.Load()
		s.sockBytes = st.sock.bytesIn.Load() + st.sock.bytesOut.Load()
		s.dials = st.sock.dials.Load()
		s.srvReads, s.srvWrites, s.srvAwake = st.srvSock.reads.Load(), st.srvSock.writes.Load(), st.srvSock.awake.Load()
	}
	s.ops, s.delivered, s.acked = t.ops.Load(), t.delivered.Load(), t.acked.Load()
	return s
}

// addStats folds the counters the metrics use from one node's Stats
// into a stack-wide total.
func addStats(total *core.Stats, n core.Stats) {
	for i := range n.ReadsServed {
		total.ReadsServed[i] += n.ReadsServed[i]
	}
	total.Placements += n.Placements
	total.PlacedBytes += n.PlacedBytes
	total.PlacementSkips += n.PlacementSkips
	total.PlacementErrors += n.PlacementErrors
	total.PeerHitBytes += n.PeerHitBytes
	total.PeerMisses += n.PeerMisses
	total.Fallbacks += n.Fallbacks
	total.Evictions += n.Evictions
	total.WrittenBytes += n.WrittenBytes
	total.Flushes += n.Flushes
	total.WriteStalls += n.WriteStalls
	total.PlacementPauses += n.PlacementPauses
}

// processCPU is user plus system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs is the cumulative bytes allocated on the Go heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// coldOut is one repetition's first epochs.
type coldOut struct {
	epoch    time.Duration // epoch 1 on empty tiers
	savedPct float64       // PFS read ops saved over epochs 1-3
	from     snap          // before epoch 1
	idle     snap          // once epoch 1's placements have all landed
}

// cold runs epoch 1 on empty tiers, waits for the placements to land,
// and runs epochs 2 and 3: the paper's headline count is the share of
// the loader's preads over those three epochs that never reached the
// PFS.
func cold(ctx context.Context, j *job) coldOut {
	st := j.st
	for _, n := range st.nodes {
		if n.hook != nil {
			n.hook.base = time.Now()
		}
	}
	out := coldOut{from: st.snap(j.tally)}
	out.epoch = j.coldEpoch(ctx)
	st.waitIdle()
	out.idle = st.snap(j.tally)
	j.warmEpoch(ctx, false)
	j.warmEpoch(ctx, false)
	end := st.snap(j.tally)
	pfsReads := end.pfs.ReadOps - out.from.pfs.ReadOps
	out.savedPct = 100 * (1 - ratio(float64(pfsReads), float64(end.ops-out.from.ops)))
	return out
}

// steadyOut is the steady window of one stack.
type steadyOut struct {
	copyEpochs, viewEpochs []float64 // seconds, one per epoch
	// blockCPU and blockAlloc are, per pair of blocks, the process CPU
	// milliseconds and the heap MiB allocated per GiB the loader was
	// delivered and the trainer was acked meanwhile.
	blockCPU, blockAlloc []float64
	// pfsWritten and acked are the bytes the PFS took and the bytes the
	// trainer was acked over the checkpoint cycles.
	pfsWritten, acked int64
	cycles            int
	// ck and the snaps are those of the last stack the window ran on.
	// readFrom/readTo bracket what cpu_ms_per_gib and alloc_mib_per_gib
	// are taken over: the read blocks, plus the overlapped checkpoint
	// cycles on a workload that overlaps them. ckptTo is the end of the
	// checkpoint cycles.
	ck                       *checkpointer
	readFrom, readTo, ckptTo snap
}

// add appends the part of the steady window that ran on the next stack.
func (so *steadyOut) add(seg steadyOut) {
	seg.copyEpochs = append(so.copyEpochs, seg.copyEpochs...)
	seg.viewEpochs = append(so.viewEpochs, seg.viewEpochs...)
	seg.blockCPU = append(so.blockCPU, seg.blockCPU...)
	seg.blockAlloc = append(so.blockAlloc, seg.blockAlloc...)
	seg.pfsWritten += so.pfsWritten
	seg.acked += so.acked
	seg.cycles += so.cycles
	*so = seg
}

// quietDecile is the quantile of the warm epoch times that is
// reported. On the shared sandbox interference only ever adds time, in
// bursts of seconds: over ten runs the lower decile of a run's epochs
// repeats two to three times better than their median does.
const quietDecile = 0.10

// writeAmp is the PFS bytes written per checkpoint byte acked over the
// checkpoint cycles: 1 when every byte is flushed once, more when the
// flusher pushes whole files again for every few writes that land.
func (so steadyOut) writeAmp() float64 {
	return ratio(float64(so.pfsWritten), float64(so.acked))
}

// steady runs the steady window. A block is BlockEpochs warm ReadAt
// epochs followed by as many warm ReadView epochs; blocks repeat until
// readUntil. Checkpoint cycles follow until ckptUntil — or, when the
// workload overlaps the two, exactly one cycle runs beside every block,
// so that each block moves the same bytes in both directions and the
// per-block CPU and allocation figures compare. minBlocks and minCycles
// hold whatever the clock says. A stack that journals stops after
// sizes.StackCycles cycles, whatever is left of the window: the
// middleware compacts its journal only when it closes, so the caller
// carries on with a fresh stack. Between blocks and between cycles,
// outside everything that is timed, the retired checkpoints are checked
// and let go.
func steady(ctx context.Context, j *job, readUntil, ckptUntil time.Time, minBlocks, minCycles int) steadyOut {
	st, sz := j.st, j.st.sz
	maxCycles := math.MaxInt
	if st.w.Journal {
		maxCycles = sz.StackCycles
	}
	out := steadyOut{ck: &checkpointer{j: j, m: st.nodes[0].m, keepDir: filepath.Join(st.dir, "kept")}}
	if err := os.MkdirAll(out.ck.keepDir, 0o755); err != nil {
		j.tally.failed.Add(1)
	}
	if jp := st.nodes[0].journalPath; st.rec != nil && jp != "" {
		out.ck.midBurst = func() {
			if dst := filepath.Join(st.dir, "journal-midburst"); copyFile(jp, dst) == nil {
				st.journalCopy = dst
			}
		}
	}
	moved := func() int64 { return j.tally.delivered.Load() + j.tally.acked.Load() }
	out.readFrom = st.snap(j.tally)
	for blocks := 0; blocks < minBlocks || time.Now().Before(readUntil); blocks++ {
		if st.w.Overlap && out.ck.steps >= maxCycles {
			break
		}
		cpu0, alloc0, bytes0 := processCPU(), heapAllocs(), moved()
		var trainer sync.WaitGroup
		if st.w.Overlap {
			trainer.Add(1)
			go func() {
				defer trainer.Done()
				out.ck.cycle(ctx)
			}()
		}
		for e := 0; e < sz.BlockEpochs; e++ {
			out.copyEpochs = append(out.copyEpochs, j.warmEpoch(ctx, false).Seconds())
		}
		for e := 0; e < sz.BlockEpochs; e++ {
			out.viewEpochs = append(out.viewEpochs, j.warmEpoch(ctx, true).Seconds())
		}
		trainer.Wait()
		gib := float64(moved()-bytes0) / (1 << 30)
		out.blockCPU = append(out.blockCPU, ratio(float64(processCPU()-cpu0)/1e6, gib))
		out.blockAlloc = append(out.blockAlloc, ratio(float64(heapAllocs()-alloc0)/(1<<20), gib))
		out.ck.checkRetired()
	}
	out.readTo = st.snap(j.tally)
	if !st.w.Overlap {
		for out.ck.steps < minCycles || (time.Now().Before(ckptUntil) && out.ck.steps < maxCycles) {
			out.ck.cycle(ctx)
			out.ck.checkRetired()
		}
	}
	st.waitIdle()
	out.ckptTo = st.snap(j.tally)
	from := out.readTo
	if st.w.Overlap {
		from = out.readFrom
	}
	out.pfsWritten = out.ckptTo.pfs.BytesWritten - from.pfs.BytesWritten
	out.acked = out.ckptTo.acked - from.acked
	out.cycles = out.ck.steps
	return out
}

// runWorkload is one invocation of the benchmark.
func runWorkload(ctx context.Context, rc runConfig) (runResult, error) {
	deadline := time.Now().Add(rc.Window)
	res := runResult{Workload: rc.W.Name, Seed: rc.Seed, Traced: rc.Traced, Metrics: make(map[string]metric)}
	t := &tally{}
	var memStart memStats
	if rc.Traced {
		memStart = readMemStats()
	}

	// Set up from nothing several times; each repetition ends with its
	// first three epochs. The last repetition's stack carries on into
	// the steady window. A traced run sets up twice: once bare, to
	// measure the same steady epochs without shims, once shimmed.
	reps := rc.Sz.Reps
	if rc.Traced {
		reps = 2
	}
	var setups, colds, saved []float64
	var st *stack
	var j *job
	var lastCold coldOut
	setUp := func(rep int, rec *recorder) error {
		var err error
		st, err = buildStack(ctx, filepath.Join(rc.Scratch, fmt.Sprintf("rep-%d", rep)), rc.W, rc.Sz, rec)
		if err != nil {
			if st != nil {
				st.close()
				st = nil
			}
			return fmt.Errorf("set-up %d: %w", rep, err)
		}
		j = newJob(st, rc.Seed, uint64(rep), t)
		lastCold = cold(ctx, j)
		setups = append(setups, st.setup.Seconds())
		colds = append(colds, lastCold.epoch.Seconds())
		saved = append(saved, lastCold.savedPct)
		return nil
	}
	var bare steadyOut
	for rep := 0; rep < reps; rep++ {
		last := rep == reps-1
		var rec *recorder
		if rc.Traced && last {
			rec = newRecorder()
		}
		if err := setUp(rep, rec); err != nil {
			return res, err
		}
		if last {
			break
		}
		if rc.Traced {
			until := time.Now().Add(rc.Window / 4)
			bare = steady(ctx, j, until, until, 0, 0)
			bare.ck.verify()
		}
		st.close()
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()

	// Reads get 70% of what is left of the window, checkpoint cycles the
	// rest, unless the two overlap. A traced run reads for a quarter of
	// the window, as its bare half did: every read is two spans. When a
	// stack has run its StackCycles before the window is over, an untraced
	// run checks its bytes, sets up again — one more sample of the set-up
	// metrics — and spends what is left in the same way.
	var so steadyOut
	minBlocks, minCycles := rc.Sz.MinBlocks, rc.Sz.MinCycles
	for {
		now := time.Now()
		readUntil := deadline
		if rc.Traced && !rc.W.Overlap {
			readUntil = now.Add(rc.Window / 4)
		} else if !rc.W.Overlap && deadline.After(now) {
			readUntil = now.Add(deadline.Sub(now) * 7 / 10)
		}
		so.add(steady(ctx, j, readUntil, deadline, minBlocks, minCycles))

		// Outside everything that is timed: are the bytes right?
		verifyDataset(ctx, j)
		so.ck.verify()

		if rc.Traced || time.Until(deadline) < rc.Window/10 {
			break
		}
		st.close()
		if err := setUp(reps, nil); err != nil {
			return res, err
		}
		reps++
		minBlocks, minCycles = 0, 0
	}

	e2e := map[string]float64{
		"setup_s":           median(setups),
		"cold_epoch_s":      median(colds),
		"warm_epoch_s":      quantile(so.copyEpochs, quietDecile),
		"warm_view_epoch_s": quantile(so.viewEpochs, quietDecile),
		"pfs_ops_saved_pct": median(saved),
		"alloc_mib_per_gib": median(so.blockAlloc),
		"ckpt_write_amp":    so.writeAmp(),
	}
	res.Samples = map[string]int{
		"setup_s": len(setups), "cold_epoch_s": len(colds), "pfs_ops_saved_pct": len(saved),
		"warm_epoch_s": len(so.copyEpochs), "warm_view_epoch_s": len(so.viewEpochs),
		"alloc_mib_per_gib": len(so.blockAlloc), "ckpt_write_amp": so.cycles,
	}
	if rc.Traced {
		layers, err := layerMetrics(ctx, rc, st, lastCold, so, bare, memStart)
		if err != nil {
			return res, err
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = metric{Value: layers[d.Name], Unit: d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metric{Value: e2e[d.Name], Unit: d.Unit}
		}
	}
	res.Ops, res.Failed = t.ops.Load(), t.failed.Load()
	return res, nil
}
