// Package replay re-drives a captured MONARCH access trace through a
// fresh simulated storage hierarchy, turning any capture into a
// reproducible benchmark.
//
// Faithful mode replays exactly what the capture recorded: every event
// charges the level that served it in the original run (reads on their
// serving tier, fetches as source-read + destination-write streams),
// and the per-tier statistics it aggregates are compared against the
// trailer the capture wrote — an unsampled, complete trace must
// round-trip exactly. Live mode instead rebuilds a real middleware
// stack (core.New over simstore tiers) from the trace header and
// re-issues the foreground reads at their recorded timestamps, so the
// replay re-decides placement — a what-if run over the captured
// workload rather than a re-enactment.
package replay

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"monarch/internal/core"
	"monarch/internal/pool"
	"monarch/internal/sim"
	"monarch/internal/simstore"
	"monarch/internal/storage"
	"monarch/internal/trace"
)

// Mode selects the replay strategy.
type Mode int

const (
	// Faithful re-enacts the captured events verbatim.
	Faithful Mode = iota
	// Live rebuilds a middleware stack and re-issues the reads.
	Live
)

// Options tunes a replay.
type Options struct {
	Mode Mode
	// Workers is the number of replay processes re-driving events
	// (default 16, the pipeline's reader count).
	Workers int
	// Seed seeds the simulation environment (default 1).
	Seed uint64
	// PlacementThreads sizes the live-mode placement pool (default 6,
	// or the trace meta's "placement_threads").
	PlacementThreads int
}

// Report is the replay's outcome.
type Report struct {
	Mode     string        `json:"mode"`
	Events   int64         `json:"events"`
	Duration time.Duration `json:"duration"` // virtual makespan

	ReadsServed     []int64 `json:"reads_served"` // per level
	BytesServed     []int64 `json:"bytes_served"`
	PartialHits     int64   `json:"partial_hits"`
	PartialHitBytes int64   `json:"partial_hit_bytes"`
	Fallbacks       int64   `json:"fallbacks"`
	Placements      int64   `json:"placements"`
	PlacedBytes     int64   `json:"placed_bytes"`
	ChunkPlacements int64   `json:"chunk_placements"`
	Skips           int64   `json:"skips"`
	Failures        int64   `json:"failures"`
	PFSOps          int64   `json:"pfs_ops"`

	// Mismatches lists counters that differ from the capture's trailer
	// (faithful mode only; empty means the trace round-tripped).
	Mismatches []string `json:"mismatches,omitempty"`
}

// specFor guesses a device model from a level name; replays only need
// plausible service times, the statistics do not depend on them.
func specFor(name string) simstore.DeviceSpec {
	switch {
	case strings.Contains(name, "ram"):
		return simstore.RAMSpec()
	case strings.Contains(name, "lustre") || strings.Contains(name, "pfs"):
		return simstore.LustreSpec()
	default:
		return simstore.SSDSpec()
	}
}

// Run replays t under opts.
func Run(t *trace.Trace, opts Options) (*Report, error) {
	if len(t.Header.Levels) == 0 {
		return nil, fmt.Errorf("replay: trace header declares no levels")
	}
	if !t.Complete() {
		return nil, fmt.Errorf("replay: incomplete trace (no trailer); nothing to verify against")
	}
	if opts.Workers <= 0 {
		opts.Workers = 16
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Mode == Live {
		return runLive(t, opts)
	}
	return runFaithful(t, opts)
}

// run is the device work one event stands for: bytes moved in n
// requests of piece bytes (the last one shorter), each read from src
// and then written to dst; a level of -1 is no device. One entry per
// event, however many requests it expands to.
type run struct {
	t        sim.Time
	src, dst int
	bytes    int64
	piece, n int64
}

// maxRequests bounds the requests one event may expand to: 4 TiB of
// 4 MiB copy chunks. A capture past it is not one a recorder wrote.
const maxRequests = 1 << 20

// runFaithful re-enacts the capture. Statistics are derived in one
// sequential pass (so ordering between concurrent replay workers can
// never skew them) — PFS ops by the trace's one pricer — then the
// device operations are dealt round-robin, in capture order, to
// Workers sim processes that honour the recorded timestamps.
func runFaithful(t *trace.Trace, opts Options) (*Report, error) {
	nlev := len(t.Header.Levels)
	source := t.Header.Source
	if source < 0 || source >= nlev {
		source = nlev - 1
	}
	rep := &Report{
		Mode:        "faithful",
		Events:      int64(len(t.Events)),
		ReadsServed: make([]int64, nlev),
		BytesServed: make([]int64, nlev),
	}
	pricer := trace.NewPricer(t.Header)

	var runs []run
	var bad error
	level := func(i int, ev trace.Event, requests int64) int {
		lvl := int(ev.Tier)
		if lvl >= 0 && lvl < nlev && requests <= maxRequests {
			return lvl
		}
		if bad == nil {
			bad = fmt.Errorf("replay: event %d (%s %s): tier %d of %d, %d request(s) — not a capture to re-enact",
				i, ev.Kind, ev.Class, lvl, nlev, requests)
		}
		return 0
	}
	for i, ev := range t.Events {
		cost := pricer.Price(ev)
		rep.PFSOps += cost.Foreground + cost.Background
		r := run{t: sim.Time(ev.T), src: -1, dst: -1, bytes: ev.Len, piece: ev.Len, n: 1}
		switch {
		case ev.Kind == trace.KindRead && ev.Class != trace.ClassError:
			r.src = level(i, ev, 1)
			rep.ReadsServed[r.src]++
			rep.BytesServed[r.src] += ev.Len
			switch ev.Class {
			case trace.ClassPartial:
				rep.PartialHits++
				rep.PartialHitBytes += ev.Len
			case trace.ClassFallback:
				rep.Fallbacks++
			}
		case ev.Kind == trace.KindChunkCopy:
			rep.ChunkPlacements++
			r.src, r.dst = source, level(i, ev, 1)
		case ev.Kind == trace.KindPlacement && ev.Class == trace.ClassFetch:
			rep.Placements++
			rep.PlacedBytes += ev.Len
			if cost.Background == 0 || ev.Len <= 0 {
				continue // it arrived as chunk copies, each charged above
			}
			// Whole-file fetch: stream the file from the source in
			// copy-chunk-sized requests.
			r.src, r.dst, r.n = source, level(i, ev, cost.Background), cost.Background
			if c := pricer.CopyChunk(); c > 0 {
				r.piece = c
			}
		case ev.Kind == trace.KindPlacement && ev.Class == trace.ClassReuse:
			rep.Placements++
			rep.PlacedBytes += ev.Len
			r.dst = level(i, ev, 1)
		case ev.Kind == trace.KindPlacement && ev.Class == trace.ClassSkip:
			rep.Skips++
			continue
		case ev.Kind == trace.KindPlacement && ev.Class == trace.ClassFail:
			rep.Failures++
			continue
		default:
			continue
		}
		runs = append(runs, r)
	}
	if bad != nil {
		return nil, bad
	}

	// Re-drive the operations through fresh devices on the sim clock:
	// worker w takes every Workers-th operation of the whole sequence.
	env := sim.NewEnv(opts.Seed)
	defer env.Close()
	devs := make([]*simstore.Device, nlev)
	for i, l := range t.Header.Levels {
		devs[i] = simstore.NewDevice(env, specFor(l.Name))
	}
	workers := int64(opts.Workers)
	for w := int64(0); w < workers; w++ {
		w := w
		env.Go(fmt.Sprintf("replay-%d", w), func(p *sim.Proc) {
			first := int64(0) // index of the run's first operation in the sequence
			for _, r := range runs {
				per := int64(1) // device operations a request
				if r.src >= 0 && r.dst >= 0 {
					per = 2
				}
				ops := per * r.n
				for k := ((w-first)%workers + workers) % workers; k < ops; k += workers {
					req, write := k/per, r.src < 0 || k%per == 1
					p.SleepUntil(r.t)
					b := min(r.piece, r.bytes-req*r.piece)
					switch {
					case b <= 0:
					case write:
						devs[r.dst].Write(p, b)
					default:
						devs[r.src].Read(p, b)
					}
				}
				first += ops
			}
		})
	}
	if err := env.Run(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	rep.Duration = env.Now().Duration()
	rep.Mismatches = compare(t, rep)
	return rep, nil
}

// compare checks the re-enacted statistics against the capture's
// trailer. A sampled capture thins plain read hits, so read/byte
// counters are only checked at sample 1.
func compare(t *trace.Trace, rep *Report) []string {
	var out []string
	check := func(key string, got int64) {
		want, ok := t.Summary[key]
		if !ok {
			return
		}
		if got != want {
			out = append(out, fmt.Sprintf("%s: capture %d, replay %d", key, want, got))
		}
	}
	if t.Header.Sample <= 1 && t.Stats["dropped"] == 0 {
		for i := range rep.ReadsServed {
			check(fmt.Sprintf("reads_tier_%d", i), rep.ReadsServed[i])
			check(fmt.Sprintf("bytes_tier_%d", i), rep.BytesServed[i])
		}
		check("partial_hits", rep.PartialHits)
		check("partial_hit_bytes", rep.PartialHitBytes)
		check("fallbacks", rep.Fallbacks)
		check("pfs_data_ops", rep.PFSOps)
	}
	check("placements", rep.Placements)
	check("placed_bytes", rep.PlacedBytes)
	check("chunk_placements", rep.ChunkPlacements)
	check("placement_skips", rep.Skips)
	check("placement_errors", rep.Failures)
	sort.Strings(out)
	return out
}

// runLive rebuilds a middleware stack from the header and re-issues
// the captured foreground reads at their recorded timestamps.
func runLive(t *trace.Trace, opts Options) (*Report, error) {
	nlev := len(t.Header.Levels)
	if nlev < 2 {
		return nil, fmt.Errorf("replay: live mode needs at least 2 levels (header has %d)", nlev)
	}
	threads := opts.PlacementThreads
	if threads <= 0 {
		threads = 6
		if s, ok := t.Header.Meta["placement_threads"]; ok {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				threads = v
			}
		}
	}

	env := sim.NewEnv(opts.Seed)
	defer env.Close()
	levels := make([]storage.Backend, nlev)
	var src *simstore.Store
	copyChunk := trace.NewPricer(t.Header).CopyChunk()
	for i, l := range t.Header.Levels {
		st := simstore.NewStore(simstore.NewDevice(env, specFor(l.Name)), l.Name, l.Capacity)
		if copyChunk > 0 {
			st.CopyChunk = copyChunk
		}
		levels[i] = st
		if i == nlev-1 {
			src = st
		}
	}
	for _, f := range t.Files {
		if f.Size >= 0 {
			src.AddFile(f.Name, f.Size)
		}
	}
	src.SetReadOnly(true)

	m, err := core.New(core.Config{
		Levels:        levels,
		Pool:          pool.NewSimPool(env, "replay-placer", threads),
		FullFileFetch: true,
		ChunkSize:     t.Header.ChunkSize,
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	// Only successful foreground reads are re-issued: errors and all
	// background activity are outcomes for the rebuilt stack to
	// re-decide.
	var reads []trace.Event
	for _, ev := range t.Events {
		if ev.Kind == trace.KindRead && ev.Class != trace.ClassError {
			reads = append(reads, ev)
		}
	}
	var replayErr error
	// The metadata build needs the simulated clock, so workers start
	// from inside the init proc once it completes.
	env.Go("replay-init", func(ip *sim.Proc) {
		if err := m.Init(ip.Context()); err != nil {
			replayErr = fmt.Errorf("replay: %w", err)
			return
		}
		for w := 0; w < opts.Workers; w++ {
			w := w
			env.Go(fmt.Sprintf("replay-%d", w), func(p *sim.Proc) {
				buf := make([]byte, 1<<20)
				for i := w; i < len(reads); i += opts.Workers {
					ev := reads[i]
					name := t.Name(ev.File)
					if name == "" || ev.Len <= 0 {
						continue
					}
					if int64(len(buf)) < ev.Len {
						buf = make([]byte, ev.Len)
					}
					p.SleepUntil(sim.Time(ev.T))
					if _, err := m.ReadAt(p.Context(), name, buf[:ev.Len], ev.Off); err != nil && replayErr == nil {
						replayErr = fmt.Errorf("replay: read %s@%d: %w", name, ev.Off, err)
					}
				}
			})
		}
	})
	if err := env.Run(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if replayErr != nil {
		return nil, replayErr
	}

	s := m.Stats()
	rep := &Report{
		Mode:            "live",
		Events:          int64(len(reads)),
		Duration:        env.Now().Duration(),
		ReadsServed:     append([]int64(nil), s.ReadsServed...),
		BytesServed:     append([]int64(nil), s.BytesServed...),
		PartialHits:     s.PartialHits,
		PartialHitBytes: s.PartialHitBytes,
		Fallbacks:       s.Fallbacks,
		Placements:      s.Placements,
		PlacedBytes:     s.PlacedBytes,
		ChunkPlacements: s.ChunkPlacements,
		Skips:           s.PlacementSkips,
		Failures:        s.PlacementErrors,
	}
	return rep, nil
}

// RenderText writes rep as a human-readable table, with the capture's
// trailer alongside for comparison.
func (rep *Report) RenderText(wr io.Writer, t *trace.Trace) {
	fmt.Fprintf(wr, "replay (%s): %d event(s), virtual makespan %s\n",
		rep.Mode, rep.Events, rep.Duration.Round(time.Millisecond))
	for i := range rep.ReadsServed {
		name := fmt.Sprintf("tier %d", i)
		if i < len(t.Header.Levels) {
			name = fmt.Sprintf("tier %d (%s)", i, t.Header.Levels[i].Name)
		}
		fmt.Fprintf(wr, "  %-20s reads %9d   bytes %13d\n", name, rep.ReadsServed[i], rep.BytesServed[i])
	}
	fmt.Fprintf(wr, "  partial hits %d (%d bytes), fallbacks %d\n",
		rep.PartialHits, rep.PartialHitBytes, rep.Fallbacks)
	fmt.Fprintf(wr, "  placements %d (%d bytes), chunk placements %d, skips %d, failures %d\n",
		rep.Placements, rep.PlacedBytes, rep.ChunkPlacements, rep.Skips, rep.Failures)
	if rep.Mode == "faithful" {
		fmt.Fprintf(wr, "  PFS data ops %d\n", rep.PFSOps)
		if len(rep.Mismatches) == 0 {
			fmt.Fprintf(wr, "  round-trip: replay statistics match the capture exactly\n")
		} else {
			fmt.Fprintf(wr, "  round-trip MISMATCH (%d counter(s)):\n", len(rep.Mismatches))
			for _, m := range rep.Mismatches {
				fmt.Fprintf(wr, "    %s\n", m)
			}
		}
	}
}
