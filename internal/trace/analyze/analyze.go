// Package analyze derives per-epoch I/O analytics from a captured
// MONARCH access trace: PFS operation counts and savings against a
// PFS-only baseline, per-file access heatmaps, tier-transition
// timelines and time-to-first-local-hit — the paper's figure-style
// evidence, computed from a real run's events instead of end-of-run
// aggregates.
package analyze

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"monarch/internal/trace"
)

// Options tunes the analysis.
type Options struct {
	// TopFiles bounds the heatmap rows rendered (default 10). The JSON
	// output always carries every file.
	TopFiles int
}

// Epoch is one epoch's derived I/O profile. BaselineOps counts every
// successful foreground read — what a vanilla PFS-only run would issue
// — and PFSOps what actually reached the PFS: source-served reads,
// fallbacks, plus the background fetch traffic (BackgroundOps)
// attributed to the epoch in which each placement resolved.
type Epoch struct {
	Epoch    int   `json:"epoch"`
	Reads    int64 `json:"reads"` // successful foreground reads
	Local    int64 `json:"local"`
	Partial  int64 `json:"partial"`
	PFS      int64 `json:"pfs"`
	Fallback int64 `json:"fallback"`
	// Peer counts reads served by a sibling node's cache over the peer
	// network — no PFS traffic. PeerMiss counts peer-routed reads the
	// owner had not cached: they were re-served from the PFS and count
	// toward PFSOps. Hedged counts peer-served reads that raced a
	// second replica against a slow primary — still zero PFS ops, and
	// included in Peer's byte/op totals, but priced separately (each
	// hedge is one extra wire request somewhere in the cluster).
	Peer     int64 `json:"peer,omitempty"`
	PeerMiss int64 `json:"peer_miss,omitempty"`
	Hedged   int64 `json:"hedged,omitempty"`
	// Writes counts write-through writes (each a foreground PFS op);
	// WriteBacks counts writes acked by tier 0 with the PFS flush
	// deferred (zero foreground PFS ops). Flushes counts the background
	// flushes draining write-back files to the PFS. A flush event is
	// priced as one background op (trace.Pricer), though the flusher
	// lands a claim's dirty ranges one write each: the exact count is the
	// run's storage.pfs_write_ops. Removes counts foreground removals
	// (one PFS metadata op each). The PFS-only baseline charges every
	// write and remove as a direct PFS op.
	Writes     int64 `json:"writes,omitempty"`
	WriteBacks int64 `json:"write_backs,omitempty"`
	Flushes    int64 `json:"flushes,omitempty"`
	Removes    int64 `json:"removes,omitempty"`
	Errors     int64 `json:"errors"`

	BytesLocal   int64 `json:"bytes_local"`
	BytesPeer    int64 `json:"bytes_peer,omitempty"`
	BytesPFS     int64 `json:"bytes_pfs"`
	BytesWritten int64 `json:"bytes_written,omitempty"`

	Fetches     int64 `json:"fetches"`
	Reuses      int64 `json:"reuses"`
	Skips       int64 `json:"skips"`
	Fails       int64 `json:"fails"`
	ChunkCopies int64 `json:"chunk_copies"`

	BackgroundOps int64   `json:"background_ops"`
	PFSOps        int64   `json:"pfs_ops"`
	BaselineOps   int64   `json:"baseline_ops"`
	Savings       float64 `json:"savings"` // 1 - PFSOps/BaselineOps

	Start int64 `json:"start_ns"` // relative to the trace's first event
	End   int64 `json:"end_ns"`
}

// idle reports whether the epoch has seen no read, write or placement
// activity yet (markers and state changes alone do not count).
func (e *Epoch) idle() bool {
	return e.Reads+e.Errors+e.Fetches+e.ChunkCopies+e.Writes+e.WriteBacks+e.Flushes+e.Removes == 0
}

// FileStats is one file's access profile across epochs.
type FileStats struct {
	Name          string  `json:"name"`
	Size          int64   `json:"size"`
	Reads         int64   `json:"reads"`
	Bytes         int64   `json:"bytes"`
	ReadsPerEpoch []int64 `json:"reads_per_epoch"`
	// Heat is the file's exponentially decayed access temperature as of
	// the trace's last epoch — HeatScore over ReadsPerEpoch with the
	// default one-epoch half-life. It is the offline form of the value
	// core's heat-driven eviction engine maintains online, so an
	// operator can read "which files would the policy keep" straight
	// off a capture.
	Heat float64 `json:"heat"`
}

// HeatScore folds a per-epoch read heatmap into a single decayed
// temperature: each epoch's reads add one heat unit apiece, and heat
// halves every halfLife epochs of silence (halfLife <= 0 means 1).
// This is the same decay core.HeatPolicy applies online via
// MarkEpoch/AdvanceEpoch; TestHeatMatchesAnalyzer locks the two
// together.
func HeatScore(readsPerEpoch []int64, halfLife float64) float64 {
	if halfLife <= 0 {
		halfLife = 1
	}
	decay := math.Exp2(-1 / halfLife)
	h := 0.0
	for _, reads := range readsPerEpoch {
		h = h*decay + float64(reads)
	}
	return h
}

// Transition is one tier-transition event on the timeline.
type Transition struct {
	T     int64  `json:"t_ns"` // relative to the trace's first event
	Kind  string `json:"kind"` // placed, failed, skipped, demoted, evicted, tier-down, tier-up
	File  string `json:"file,omitempty"`
	Tier  int    `json:"tier"`
	Bytes int64  `json:"bytes,omitempty"`
}

// Analysis is the full derived view of one trace.
type Analysis struct {
	Clock    string            `json:"clock"`
	Sample   int               `json:"sample"`
	Levels   []trace.Level     `json:"levels"`
	Meta     map[string]string `json:"meta,omitempty"`
	Complete bool              `json:"complete"`

	Events   int64 `json:"events"`
	Files    int   `json:"files"`
	Duration int64 `json:"duration_ns"`

	Epochs []Epoch `json:"epochs"`

	BaselineOps int64   `json:"baseline_ops"`
	PFSOps      int64   `json:"pfs_ops"`
	Savings     float64 `json:"savings"`
	// RecordedPFSOps is the PFS data-op count measured by the run
	// itself (summary key "pfs_data_ops"), 0 when the capture did not
	// record one. With an unsampled, complete trace the analyzer's
	// PFSOps must equal it — the accounting cross-check.
	RecordedPFSOps int64 `json:"recorded_pfs_ops,omitempty"`

	// TimeToFirstLocalHit is ns from the first event to the first read
	// served above the source level; -1 when no read ever hit.
	TimeToFirstLocalHit int64 `json:"time_to_first_local_hit_ns"`

	FileStats   []FileStats      `json:"file_stats"`
	Transitions []Transition     `json:"transitions"`
	Summary     map[string]int64 `json:"summary,omitempty"`
}

// Analyze derives the full analysis. Events are consumed in capture
// order; epoch boundaries come from the epoch markers monarch-bench
// records (a trace without markers is treated as one epoch). What an
// event cost the PFS is trace.Pricer's to say; the analyzer only books
// it to the epoch the event fell in.
func Analyze(t *trace.Trace, opts Options) *Analysis {
	if opts.TopFiles <= 0 {
		opts.TopFiles = 10
	}
	a := &Analysis{
		Clock:               t.Header.Clock,
		Sample:              t.Header.Sample,
		Levels:              t.Header.Levels,
		Meta:                t.Header.Meta,
		Complete:            t.Complete(),
		Events:              int64(len(t.Events)),
		Files:               len(t.Files),
		Summary:             t.Summary,
		TimeToFirstLocalHit: -1,
	}
	if t.Summary != nil {
		a.RecordedPFSOps = t.Summary["pfs_data_ops"]
	}
	pricer := trace.NewPricer(t.Header)

	var t0 int64
	if len(t.Events) > 0 {
		t0 = t.Events[0].T
		a.Duration = t.Events[len(t.Events)-1].T - t0
	}

	type fileAgg struct {
		reads, bytes []int64 // per epoch
	}
	files := make(map[uint32]*fileAgg)
	epochs := []*Epoch{{Epoch: 1}}
	cur := epochs[0]

	getFile := func(id uint32) *fileAgg {
		f := files[id]
		if f == nil {
			f = &fileAgg{}
			files[id] = f
		}
		return f
	}
	bump := func(s *[]int64, epoch int, v int64) {
		for len(*s) < epoch {
			*s = append(*s, 0)
		}
		(*s)[epoch-1] += v
	}

	for _, ev := range t.Events {
		rel := ev.T - t0
		if cur.idle() {
			cur.Start = rel
		}
		cur.End = rel
		cost := pricer.Price(ev)
		cur.BackgroundOps += cost.Background
		cur.PFSOps += cost.Foreground + cost.Background
		switch ev.Kind {
		case trace.KindRead:
			if ev.Class == trace.ClassError {
				cur.Errors++
				continue
			}
			cur.Reads++
			f := getFile(ev.File)
			bump(&f.reads, cur.Epoch, 1)
			bump(&f.bytes, cur.Epoch, ev.Len)
			switch ev.Class {
			case trace.ClassLocal:
				cur.Local++
				cur.BytesLocal += ev.Len
			case trace.ClassPartial:
				cur.Partial++
				cur.BytesLocal += ev.Len
			case trace.ClassPFS:
				cur.PFS++
				cur.BytesPFS += ev.Len
			case trace.ClassFallback:
				cur.Fallback++
				cur.BytesPFS += ev.Len
			case trace.ClassPeer:
				cur.Peer++
				cur.BytesPeer += ev.Len
			case trace.ClassPeerHedge:
				cur.Peer++
				cur.Hedged++
				cur.BytesPeer += ev.Len
			case trace.ClassPeerMiss:
				cur.PeerMiss++
				cur.BytesPFS += ev.Len
			}
			if (ev.Class == trace.ClassLocal || ev.Class == trace.ClassPartial) &&
				a.TimeToFirstLocalHit < 0 {
				a.TimeToFirstLocalHit = rel
			}
		case trace.KindChunkCopy:
			cur.ChunkCopies++
			getFile(ev.File) // a heatmap row, read or not
		case trace.KindPlacement:
			getFile(ev.File)
			switch ev.Class {
			case trace.ClassFetch:
				cur.Fetches++
			case trace.ClassReuse:
				cur.Reuses++
			case trace.ClassSkip:
				cur.Skips++
			case trace.ClassFail:
				cur.Fails++
			}
			a.Transitions = append(a.Transitions, Transition{
				T: rel, Kind: placementKind(ev.Class), File: t.Name(ev.File),
				Tier: int(ev.Tier), Bytes: ev.Len,
			})
		case trace.KindWrite:
			switch ev.Class {
			case trace.ClassError:
				cur.Errors++
			case trace.ClassWrite:
				cur.Writes++
				cur.BytesWritten += ev.Len
			case trace.ClassWriteBack:
				cur.WriteBacks++
				cur.BytesWritten += ev.Len
			case trace.ClassRemove:
				cur.Removes++
			}
		case trace.KindFlush:
			if ev.Class == trace.ClassError {
				cur.Errors++
				continue
			}
			cur.Flushes++
		case trace.KindEpoch:
			cur = &Epoch{Epoch: len(epochs) + 1, Start: rel, End: rel}
			epochs = append(epochs, cur)
		case trace.KindState:
			a.Transitions = append(a.Transitions, Transition{
				T: rel, Kind: ev.Class.String(), File: t.Name(ev.File),
				Tier: int(ev.Tier), Bytes: ev.Len,
			})
		}
	}
	// A final marker leaves an empty trailing epoch; drop it.
	if n := len(epochs); n > 1 && epochs[n-1].idle() {
		epochs = epochs[:n-1]
	}
	for _, e := range epochs {
		e.BaselineOps = e.Reads + e.Writes + e.WriteBacks + e.Removes
		if e.BaselineOps > 0 {
			e.Savings = 1 - float64(e.PFSOps)/float64(e.BaselineOps)
		}
		a.Epochs = append(a.Epochs, *e)
		a.PFSOps += e.PFSOps
		a.BaselineOps += e.BaselineOps
	}
	if a.BaselineOps > 0 {
		a.Savings = 1 - float64(a.PFSOps)/float64(a.BaselineOps)
	}

	nep := len(a.Epochs)
	for id, f := range files {
		fs := FileStats{Name: t.Name(id), Size: t.Size(id)}
		for len(f.reads) < nep {
			f.reads = append(f.reads, 0)
		}
		fs.ReadsPerEpoch = f.reads
		fs.Heat = HeatScore(f.reads, 1)
		for _, v := range f.reads {
			fs.Reads += v
		}
		for _, v := range f.bytes {
			fs.Bytes += v
		}
		a.FileStats = append(a.FileStats, fs)
	}
	sort.Slice(a.FileStats, func(i, j int) bool {
		if a.FileStats[i].Reads != a.FileStats[j].Reads {
			return a.FileStats[i].Reads > a.FileStats[j].Reads
		}
		return a.FileStats[i].Name < a.FileStats[j].Name
	})
	sort.SliceStable(a.Transitions, func(i, j int) bool { return a.Transitions[i].T < a.Transitions[j].T })
	return a
}

func placementKind(c trace.Class) string {
	switch c {
	case trace.ClassFetch, trace.ClassReuse:
		return "placed"
	case trace.ClassSkip:
		return "skipped"
	default:
		return "failed"
	}
}

// Render writes the human-readable report.
func (a *Analysis) Render(w io.Writer, opts Options) {
	if opts.TopFiles <= 0 {
		opts.TopFiles = 10
	}
	fmt.Fprintf(w, "trace: %s clock, %d epoch(s), %d file(s), %d event(s), span %s\n",
		a.Clock, len(a.Epochs), a.Files, a.Events, time.Duration(a.Duration).Round(time.Millisecond))
	if a.Sample > 1 {
		fmt.Fprintf(w, "NOTE: read hits sampled 1-in-%d; read counts are lower bounds\n", a.Sample)
	}
	if !a.Complete {
		fmt.Fprintf(w, "WARNING: no trailer — the capture did not close cleanly\n")
	}
	var peers, hedged, writes int64 // which columns and tables the run needs
	for _, e := range a.Epochs {
		peers += e.Peer + e.PeerMiss
		hedged += e.Hedged
		writes += e.Writes + e.WriteBacks + e.Flushes + e.Removes
	}
	fmt.Fprintf(w, "\nper-epoch PFS operations (baseline: every read goes to the PFS)\n")
	switch {
	case hedged > 0:
		fmt.Fprintf(w, "%-6s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s %8s\n",
			"epoch", "reads", "local", "partial", "peer", "hedged", "p-miss", "pfs", "fallback", "bg-ops", "pfs-ops", "baseline", "savings")
		for _, e := range a.Epochs {
			fmt.Fprintf(w, "%-6d %9d %9d %9d %9d %9d %9d %9d %9d %9d %9d %9d %7.1f%%\n",
				e.Epoch, e.Reads, e.Local, e.Partial, e.Peer, e.Hedged, e.PeerMiss, e.PFS, e.Fallback,
				e.BackgroundOps, e.PFSOps, e.BaselineOps, 100*e.Savings)
		}
	case peers > 0:
		fmt.Fprintf(w, "%-6s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s %8s\n",
			"epoch", "reads", "local", "partial", "peer", "p-miss", "pfs", "fallback", "bg-ops", "pfs-ops", "baseline", "savings")
		for _, e := range a.Epochs {
			fmt.Fprintf(w, "%-6d %9d %9d %9d %9d %9d %9d %9d %9d %9d %9d %7.1f%%\n",
				e.Epoch, e.Reads, e.Local, e.Partial, e.Peer, e.PeerMiss, e.PFS, e.Fallback,
				e.BackgroundOps, e.PFSOps, e.BaselineOps, 100*e.Savings)
		}
	default:
		fmt.Fprintf(w, "%-6s %9s %9s %9s %9s %9s %9s %9s %9s %8s\n",
			"epoch", "reads", "local", "partial", "pfs", "fallback", "bg-ops", "pfs-ops", "baseline", "savings")
		for _, e := range a.Epochs {
			fmt.Fprintf(w, "%-6d %9d %9d %9d %9d %9d %9d %9d %9d %7.1f%%\n",
				e.Epoch, e.Reads, e.Local, e.Partial, e.PFS, e.Fallback,
				e.BackgroundOps, e.PFSOps, e.BaselineOps, 100*e.Savings)
		}
	}
	if writes > 0 {
		fmt.Fprintf(w, "\nper-epoch write operations (baseline: every write goes straight to the PFS)\n")
		fmt.Fprintf(w, "%-6s %9s %9s %9s %9s %12s\n",
			"epoch", "through", "wr-back", "flushes", "removes", "bytes")
		for _, e := range a.Epochs {
			fmt.Fprintf(w, "%-6d %9d %9d %9d %9d %12d\n",
				e.Epoch, e.Writes, e.WriteBacks, e.Flushes, e.Removes, e.BytesWritten)
		}
	}
	fmt.Fprintf(w, "total: %d PFS ops vs %d baseline → %.1f%% saved\n",
		a.PFSOps, a.BaselineOps, 100*a.Savings)
	if hedged > 0 {
		fmt.Fprintf(w, "hedged reads: %d peer hit(s) raced a second replica (one extra wire request each, zero PFS ops)\n", hedged)
	}
	if a.RecordedPFSOps > 0 {
		if a.RecordedPFSOps == a.PFSOps {
			fmt.Fprintf(w, "cross-check: run recorded %d PFS data ops — accounting matches exactly\n", a.RecordedPFSOps)
		} else {
			fmt.Fprintf(w, "cross-check: run recorded %d PFS data ops, analyzer derived %d (Δ %+d)\n",
				a.RecordedPFSOps, a.PFSOps, a.PFSOps-a.RecordedPFSOps)
		}
	}
	if a.TimeToFirstLocalHit >= 0 {
		fmt.Fprintf(w, "time to first local hit: %s\n",
			time.Duration(a.TimeToFirstLocalHit).Round(time.Millisecond))
	} else {
		fmt.Fprintf(w, "time to first local hit: never\n")
	}

	counts := map[string]int{}
	var firstPlace, lastPlace int64 = -1, -1
	for _, tr := range a.Transitions {
		counts[tr.Kind]++
		if tr.Kind == "placed" {
			if firstPlace < 0 {
				firstPlace = tr.T
			}
			lastPlace = tr.T
		}
	}
	if len(a.Transitions) > 0 {
		var parts []string
		for _, k := range []string{"placed", "skipped", "failed", "demoted", "evicted", "tier-down", "tier-up"} {
			if counts[k] > 0 {
				parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
			}
		}
		fmt.Fprintf(w, "\ntier transitions: %s", strings.Join(parts, ", "))
		if firstPlace >= 0 {
			fmt.Fprintf(w, "; placements span %s – %s",
				time.Duration(firstPlace).Round(time.Millisecond),
				time.Duration(lastPlace).Round(time.Millisecond))
		}
		fmt.Fprintln(w)
	}

	if len(a.FileStats) > 0 {
		n := opts.TopFiles
		if n > len(a.FileStats) {
			n = len(a.FileStats)
		}
		fmt.Fprintf(w, "\nhottest files (reads per epoch; heat = decayed temperature, 1-epoch half-life)\n")
		for _, fs := range a.FileStats[:n] {
			cells := make([]string, len(fs.ReadsPerEpoch))
			for i, v := range fs.ReadsPerEpoch {
				cells[i] = strconv.FormatInt(v, 10)
			}
			fmt.Fprintf(w, "  %-40s %10d B  heat %6.2f  [%s]\n", fs.Name, fs.Size, fs.Heat, strings.Join(cells, " "))
		}
		if n < len(a.FileStats) {
			fmt.Fprintf(w, "  … %d more file(s)\n", len(a.FileStats)-n)
		}
	}
}
