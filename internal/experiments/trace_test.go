package experiments

import (
	"path/filepath"
	"testing"

	"monarch/internal/trace"
	"monarch/internal/trace/analyze"
	"monarch/internal/trace/replay"
)

// TestTraceCaptureAnalyzeReplay is the round-trip acceptance test: a
// captured run's trace must (a) let the analyzer derive the exact PFS
// data-op count the run itself measured, (b) show per-epoch savings in
// the paper's band, and (c) replay faithfully — byte- and op-exact
// against the trailer.
func TestTraceCaptureAnalyzeReplay(t *testing.T) {
	p := QuickParams()
	path := filepath.Join(t.TempDir(), "capture.bin")
	r, err := CaptureTrace(p, path)
	if err != nil {
		t.Fatal(err)
	}

	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Complete() {
		t.Fatal("capture has no trailer")
	}
	if tr.Header.Clock != "virtual" {
		t.Fatalf("clock = %q, want virtual (sim time)", tr.Header.Clock)
	}
	if tr.Stats["dropped"] != 0 {
		t.Fatalf("capture dropped %d events", tr.Stats["dropped"])
	}

	a := analyze.Analyze(tr, analyze.Options{})
	if len(a.Epochs) != p.Epochs {
		t.Fatalf("analyzer found %d epochs, want %d", len(a.Epochs), p.Epochs)
	}

	// (a) Accounting cross-check: the analyzer's derived PFS op total
	// must equal the op count the run measured at the PFS itself.
	if a.RecordedPFSOps != r.TotalPFSOps() {
		t.Fatalf("trailer pfs_data_ops = %d, run measured %d", a.RecordedPFSOps, r.TotalPFSOps())
	}
	if a.PFSOps != a.RecordedPFSOps {
		t.Fatalf("analyzer derived %d PFS ops, run measured %d", a.PFSOps, a.RecordedPFSOps)
	}

	// (b) The paper's claim: 45–55% fewer PFS I/O operations than the
	// PFS-only baseline on the standard workload.
	if a.Savings < 0.45 || a.Savings > 0.55 {
		t.Fatalf("savings = %.1f%%, want the paper's 45–55%% band", 100*a.Savings)
	}
	// Steady-state epochs save more than the cold first epoch.
	if len(a.Epochs) >= 2 && a.Epochs[1].Savings <= a.Epochs[0].Savings {
		t.Fatalf("epoch 2 savings %.3f not above epoch 1 %.3f",
			a.Epochs[1].Savings, a.Epochs[0].Savings)
	}
	if a.TimeToFirstLocalHit < 0 {
		t.Fatal("no read ever hit a local tier")
	}

	// (c) Faithful replay reproduces the run's statistics exactly.
	rep, err := replay.Run(tr, replay.Options{Mode: replay.Faithful})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("replay diverged from capture: %v", rep.Mismatches)
	}
	if rep.PFSOps != a.PFSOps {
		t.Fatalf("replay PFS ops %d != analyzer %d", rep.PFSOps, a.PFSOps)
	}

	// Live replay re-decides placement over the same workload; its
	// placement volume must match the deterministic original.
	live, err := replay.Run(tr, replay.Options{Mode: replay.Live})
	if err != nil {
		t.Fatal(err)
	}
	if live.Placements != r.Monarch.Placements {
		t.Fatalf("live replay placed %d files, original %d", live.Placements, r.Monarch.Placements)
	}
}

// TestTraceCaptureDeterministic locks capture reproducibility: two
// identical runs must produce identical event streams. Latency buckets
// are the one field measured on the host's wall clock (middleware call
// overhead, not simulated service time), so they are masked.
func TestTraceCaptureDeterministic(t *testing.T) {
	p := QuickParams()
	read := func(name string) *trace.Trace {
		path := filepath.Join(t.TempDir(), name)
		if _, err := CaptureTrace(p, path); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := read("a.bin"), read("b.bin")
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		x, y := a.Events[i], b.Events[i]
		x.Lat, y.Lat = 0, 0
		if x != y {
			t.Fatalf("event %d differs: %+v vs %+v", i, x, y)
		}
	}
	for k, v := range a.Summary {
		if b.Summary[k] != v {
			t.Fatalf("summary %s differs: %d vs %d", k, v, b.Summary[k])
		}
	}
}

// TestTraceSampledCaptureKeepsStats verifies a sampled capture still
// carries exact run statistics in its trailer (only the event stream
// is thinned).
func TestTraceSampledCaptureKeepsStats(t *testing.T) {
	p := QuickParams()
	p.TraceSample = 8
	path := filepath.Join(t.TempDir(), "sampled.bin")
	if _, err := CaptureTrace(p, path); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats["sampled_out"] == 0 {
		t.Fatal("sampling thinned nothing")
	}

	full := filepath.Join(t.TempDir(), "full.bin")
	p.TraceSample = 1
	if _, err := CaptureTrace(p, full); err != nil {
		t.Fatal(err)
	}
	ftr, err := trace.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Sampling may not change what the run did — trailer statistics
	// must be identical to the unsampled capture's.
	for k, v := range ftr.Summary {
		if tr.Summary[k] != v {
			t.Fatalf("summary %s: sampled %d, full %d", k, tr.Summary[k], v)
		}
	}
	if int64(len(tr.Events)) >= int64(len(ftr.Events)) {
		t.Fatalf("sampled trace (%d events) not smaller than full (%d)", len(tr.Events), len(ftr.Events))
	}
	// A sampled trace still replays: read checks are skipped, the
	// always-recorded placement stream still verifies.
	rep, err := replay.Run(tr, replay.Options{Mode: replay.Faithful})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("sampled replay diverged: %v", rep.Mismatches)
	}
}

// TestCheckpointCaptureHasOnePrice: an ext-checkpoint capture carries
// what no read-only capture does — write-through writes, write-back
// acks, flushes — and faithful replay used to have no price for any of
// them while the analyzer had. There is one pricer now: both derive the
// same PFS op count from either mode's capture, writes included.
func TestCheckpointCaptureHasOnePrice(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range []string{"through", "back"} {
		res, err := runCheckpoint(mode == "back", dir)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadFile(filepath.Join(dir, "ckpt-"+mode+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := replay.Run(tr, replay.Options{Mode: replay.Faithful})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Mismatches) != 0 {
			t.Errorf("%s: replay diverged from the capture: %v", mode, rep.Mismatches)
		}
		writes, backs, flushes, _ := writeRows(res.analysis)
		if writes+backs != ckptEpochs*ckptShards || (mode == "back") != (flushes > 0) {
			t.Fatalf("%s: %d write-through, %d write-back, %d flush events; the capture is not the checkpoint run", mode, writes, backs, flushes)
		}
		if rep.PFSOps != res.analysis.PFSOps || rep.PFSOps < writes+flushes {
			t.Errorf("%s: replay priced %d PFS ops, the analyzer %d (%d writes through, %d flushes)",
				mode, rep.PFSOps, res.analysis.PFSOps, writes, flushes)
		}
	}
}
