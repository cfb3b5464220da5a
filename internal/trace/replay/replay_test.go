package replay

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"monarch/internal/core"
	"monarch/internal/pool"
	"monarch/internal/storage"
	"monarch/internal/trace"
	"monarch/internal/trace/analyze"
)

// consistent builds a trace whose trailer matches what a faithful
// replay must derive from its events, so the round-trip check passes.
func consistent() *trace.Trace {
	ev := func(t int64, k trace.Kind, c trace.Class, file uint32, tier int8, off, ln int64) trace.Event {
		return trace.Event{T: t, Kind: k, Class: c, File: file, Tier: tier, Off: off, Len: ln}
	}
	return &trace.Trace{
		Header: trace.Header{
			Version: trace.Version,
			Clock:   "virtual",
			Sample:  1,
			Source:  1,
			Levels:  []trace.Level{{Name: "ssd", Capacity: 1 << 30}, {Name: "lustre"}},
			Meta:    map[string]string{"copy_chunk": "100"},
		},
		Files: []trace.File{
			{ID: 1, Name: "a", Size: 250},
			{ID: 2, Name: "b", Size: 100},
		},
		Events: []trace.Event{
			ev(1000, trace.KindRead, trace.ClassPFS, 1, 1, 0, 250),
			ev(2000, trace.KindRead, trace.ClassPFS, 2, 1, 0, 100),
			ev(3000, trace.KindChunkCopy, trace.ClassNone, 1, 0, 0, 100),
			ev(4000, trace.KindChunkCopy, trace.ClassNone, 1, 0, 100, 100),
			ev(5000, trace.KindChunkCopy, trace.ClassNone, 1, 0, 200, 50),
			ev(6000, trace.KindPlacement, trace.ClassFetch, 1, 0, 0, 250),
			ev(7000, trace.KindPlacement, trace.ClassFetch, 2, 0, 0, 100),
			ev(8000, trace.KindEpoch, trace.ClassNone, 0, -1, 0, 1),
			ev(9000, trace.KindRead, trace.ClassLocal, 1, 0, 0, 250),
			ev(10000, trace.KindRead, trace.ClassPartial, 2, 0, 0, 100),
		},
		Summary: map[string]int64{
			"reads_tier_0": 2, "bytes_tier_0": 350,
			"reads_tier_1": 2, "bytes_tier_1": 350,
			"partial_hits": 1, "partial_hit_bytes": 100,
			"fallbacks":    0,
			"pfs_data_ops": 6, // 2 source reads + 3 chunks + 1 whole-file fetch
			"placements":   2, "placed_bytes": 350,
			"chunk_placements": 3, "placement_skips": 0, "placement_errors": 0,
		},
		Stats: map[string]int64{"seen": 10, "recorded": 10, "dropped": 0},
	}
}

func TestFaithfulRoundTrip(t *testing.T) {
	tr := consistent()
	rep, err := Run(tr, Options{Mode: Faithful})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("mismatches: %v", rep.Mismatches)
	}
	if rep.ReadsServed[0] != 2 || rep.ReadsServed[1] != 2 ||
		rep.BytesServed[0] != 350 || rep.BytesServed[1] != 350 {
		t.Fatalf("reads/bytes = %v / %v", rep.ReadsServed, rep.BytesServed)
	}
	if rep.PFSOps != 6 || rep.Placements != 2 || rep.ChunkPlacements != 3 || rep.PartialHits != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if a := analyze.Analyze(tr, analyze.Options{}); rep.PFSOps != a.PFSOps {
		t.Fatalf("replay priced %d PFS ops, the analyzer %d: there is one pricer", rep.PFSOps, a.PFSOps)
	}
	if rep.Duration <= 0 {
		t.Fatalf("virtual makespan = %v", rep.Duration)
	}

	var buf bytes.Buffer
	rep.RenderText(&buf, tr)
	if !strings.Contains(buf.String(), "match the capture exactly") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestFaithfulDetectsDivergence(t *testing.T) {
	tr := consistent()
	tr.Summary["pfs_data_ops"] = 99
	rep, err := Run(tr, Options{Mode: Faithful})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 1 || !strings.Contains(rep.Mismatches[0], "pfs_data_ops") {
		t.Fatalf("mismatches = %v", rep.Mismatches)
	}
	var buf bytes.Buffer
	rep.RenderText(&buf, tr)
	if !strings.Contains(buf.String(), "MISMATCH") {
		t.Fatalf("render does not surface the mismatch:\n%s", buf.String())
	}
}

func TestSampledTraceSkipsReadChecks(t *testing.T) {
	tr := consistent()
	// Pretend half the plain hits were thinned: read counters no longer
	// match, but the always-recorded placement stream still must.
	tr.Header.Sample = 2
	tr.Summary["reads_tier_0"] = 99999
	rep, err := Run(tr, Options{Mode: Faithful})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("sampled trace mismatches: %v", rep.Mismatches)
	}
}

func TestReplayRejectsIncompleteTrace(t *testing.T) {
	tr := consistent()
	tr.Summary = nil
	if _, err := Run(tr, Options{}); err == nil {
		t.Fatal("incomplete trace accepted")
	}
	if _, err := Run(&trace.Trace{}, Options{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestLiveReplayRebuildsStack(t *testing.T) {
	rep, err := Run(consistent(), Options{Mode: Live, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "live" {
		t.Fatalf("mode = %q", rep.Mode)
	}
	// All four foreground reads are re-issued; the rebuilt stack makes
	// its own placement decisions over them.
	var reads int64
	for _, v := range rep.ReadsServed {
		reads += v
	}
	if reads != 4 {
		t.Fatalf("reads served = %v", rep.ReadsServed)
	}
	if rep.Placements != 2 {
		t.Fatalf("placements = %d, want both files placed", rep.Placements)
	}
	var buf bytes.Buffer
	rep.RenderText(&buf, consistent())
	if !strings.Contains(buf.String(), "live") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

// TestFaithfulReplaysFetchThroughCapture captures a real stack whose
// every first miss is a fetch-through — quarter-file sequential reads of
// small files in whole-file mode — with the source's measured data ops
// in the trailer, and replays it faithfully: the one source-level read
// event a fetch-through records stands for its one whole-file source op,
// its placement is a reuse, and the reads served from the fetched bytes
// are tier-0 partial hits, so every counter, pfs_data_ops included,
// round-trips with no mismatch.
func TestFaithfulReplaysFetchThroughCapture(t *testing.T) {
	const nfiles = 5
	m, pfs, path := captureStack(t, nfiles, 0)
	st, ops := m.Stats(), pfs.Counts().DataOps()
	if st.FetchThroughs != nfiles || ops != nfiles {
		t.Fatalf("%d fetch-throughs, %d source data ops; want %d of each", st.FetchThroughs, ops, nfiles)
	}
	rep := replayCapture(t, m, path, ops)
	if rep.PFSOps != ops || rep.Placements != nfiles || rep.ReadsServed[1] != nfiles || rep.PartialHits != st.PartialHits {
		t.Fatalf("replay: %d PFS ops, %d placements, %d source reads, %d partial hits; the run measured %d, %d, %d, %d",
			rep.PFSOps, rep.Placements, rep.ReadsServed[1], rep.PartialHits, ops, st.Placements, st.ReadsServed[1], st.PartialHits)
	}
}

// TestFaithfulReplaysReadAheadCapture is its sibling over a tier with
// room for nothing: every file is unplaceable and streamed through
// read-aheads. The reads served from those buffers are partial hits on
// the source tier — source-level read events that stand for no source
// op — and every counter, pfs_data_ops included, still round-trips.
func TestFaithfulReplaysReadAheadCapture(t *testing.T) {
	const nfiles = 5
	m, pfs, path := captureStack(t, nfiles, 1)
	st, ops := m.Stats(), pfs.Counts().DataOps()
	if st.ReadAheads < nfiles || st.PlacementSkips != nfiles || st.PartialHits < 3*nfiles || ops >= st.ReadsServed[1] {
		t.Fatalf("%d read-aheads, %d skips, %d partial hits, %d source data ops for %d source-level reads; want the second epoch, at least, read ahead",
			st.ReadAheads, st.PlacementSkips, st.PartialHits, ops, st.ReadsServed[1])
	}
	rep := replayCapture(t, m, path, ops)
	if rep.PFSOps != ops || rep.Skips != nfiles || rep.ReadsServed[1] != st.ReadsServed[1] || rep.PartialHits != st.PartialHits {
		t.Fatalf("replay: %d PFS ops, %d skips, %d source reads, %d partial hits; the run measured %d, %d, %d, %d",
			rep.PFSOps, rep.Skips, rep.ReadsServed[1], rep.PartialHits, ops, st.PlacementSkips, st.ReadsServed[1], st.PartialHits)
	}
}

// captureStack captures two epochs of quarter-file sequential reads of
// nfiles small files through a real [ssd, counted pfs] stack in
// whole-file mode, tier 0 holding quota bytes (0: no limit).
func captureStack(t *testing.T, nfiles int, quota int64) (*core.Monarch, *storage.Counting, string) {
	t.Helper()
	const fileSize, window = 4096, 1024
	ctx := context.Background()
	raw := storage.NewMemFS("lustre", 0)
	for i := 0; i < nfiles; i++ {
		if err := raw.WriteFile(ctx, fmt.Sprintf("f%d", i), bytes.Repeat([]byte{byte(i + 1)}, fileSize)); err != nil {
			t.Fatal(err)
		}
	}
	raw.SetReadOnly(true)
	pfs := storage.NewCounting(raw)
	path := filepath.Join(t.TempDir(), "capture.bin")
	m, err := core.New(core.Config{
		Levels:        []storage.Backend{storage.NewMemFS("ssd", quota), pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		TracePath:     path,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, window)
	for epoch := 1; epoch <= 2; epoch++ {
		for i := 0; i < nfiles; i++ {
			for off := int64(0); off < fileSize; off += window {
				if _, err := m.ReadAt(ctx, fmt.Sprintf("f%d", i), buf, off); err != nil {
					t.Fatal(err)
				}
			}
		}
		for deadline := time.Now().Add(5 * time.Second); !m.Idle(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("placements did not quiesce")
			}
		}
		m.MarkEpoch(epoch)
	}
	return m, pfs, path
}

// replayCapture seals m's trace with the measured source ops in its
// trailer and replays it faithfully: no counter may diverge.
func replayCapture(t *testing.T, m *core.Monarch, path string, ops int64) *Report {
	t.Helper()
	m.Tracer().AddSummary(map[string]int64{"pfs_data_ops": ops})
	m.Close()
	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(tr, Options{Mode: Faithful})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("replay diverged from the capture: %v", rep.Mismatches)
	}
	if a := analyze.Analyze(tr, analyze.Options{}); rep.PFSOps != a.PFSOps || a.PFSOps != ops {
		t.Fatalf("replay priced %d PFS ops, the analyzer %d, the source counted %d", rep.PFSOps, a.PFSOps, ops)
	}
	return rep
}
