package main

import (
	"context"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end at -quick sizes, bare and
// traced, so the harness cannot rot unnoticed: every named metric is
// there and finite, nothing failed, and each layer is busy in the
// workload built for it and idle in the one built to bypass it.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			rc := runConfig{W: w, Sz: quickSizes, Seed: 7, Scratch: t.TempDir()}
			bare, err := runWorkload(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			check(t, bare, endToEnd)
			for _, d := range endToEnd {
				if bare.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}

			rc.Traced, rc.Scratch = true, t.TempDir()
			rc.SpanOut = rc.Scratch + "/spans.csv.gz"
			traced, err := runWorkload(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			check(t, traced, perLayer)
			v := func(name string) float64 { return traced.Metrics[name].Value }
			if v("core.write_stalls") != 0 || v("core.placement_errors") != 0 || v("core.fallbacks") != 0 || v("peernet.errors") != 0 {
				t.Errorf("stalls %v placement errors %v fallbacks %v peer errors %v, want none",
					v("core.write_stalls"), v("core.placement_errors"), v("core.fallbacks"), v("peernet.errors"))
			}
			switch w.Name {
			case "fit_epochs":
				if v("peernet.reads") != 0 || v("storage.pfs_data_ops") != 0 || v("core.hit_ratio") != 1 {
					t.Errorf("warm epochs of a dataset that fits must stay on tier 0: peer reads %v, PFS data ops %v, hit ratio %v",
						v("peernet.reads"), v("storage.pfs_data_ops"), v("core.hit_ratio"))
				}
			case "partial_epochs":
				if v("core.hit_ratio") != 0.5 || v("core.placement_skips") != float64(quickSizes.Shards/2) {
					t.Errorf("half the working set fits: hit ratio %v, skips %v", v("core.hit_ratio"), v("core.placement_skips"))
				}
			case "peer_epochs":
				reads := v("peernet.reads") + v("storage.tier0_reads")
				if v("peernet.reads") < 0.4*reads || v("peernet.misses") != 0 || v("storage.pfs_data_ops") != 0 {
					t.Errorf("%v of %v warm reads crossed the wire (want >= 40%%), %v misses, %v PFS data ops",
						v("peernet.reads"), reads, v("peernet.misses"), v("storage.pfs_data_ops"))
				}
			case "ckpt_burst":
				if v("storage.pfs_write_ops") == 0 || v("core.flushes") == 0 {
					t.Errorf("checkpoints beside reads must reach the PFS: %v write ops, %v flushes", v("storage.pfs_write_ops"), v("core.flushes"))
				}
			}
		})
	}
}

func check(t *testing.T, res runResult, want []metricDef) {
	t.Helper()
	if res.Failed != 0 || res.Ops == 0 {
		t.Errorf("%d of %d operations failed", res.Failed, res.Ops)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s missing", d.Name)
		} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
			t.Errorf("metric %s = %v %q, want a finite number of %q", d.Name, m.Value, m.Unit, d.Unit)
		}
	}
}

// TestStackReplaced runs a window long enough for a journaling stack to
// reach its cycle limit several times over: the window carries on with
// fresh stacks, every one of them sets up and verifies, and each takes
// its directory with it when it closes.
func TestStackReplaced(t *testing.T) {
	w, _ := findWorkload("ckpt_burst")
	sz := quickSizes
	sz.StackCycles = 3 // enough for a checkpoint of each stack to be retired and checked
	rc := runConfig{W: w, Sz: sz, Seed: 7, Window: 3 * time.Second, Scratch: t.TempDir()}
	res, err := runWorkload(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	check(t, res, endToEnd)
	if res.Samples["setup_s"] < 2 || res.Samples["ckpt_write_amp"] <= sz.StackCycles {
		t.Errorf("%d set-ups and %d cycles in the window, want more than one stack's worth", res.Samples["setup_s"], res.Samples["ckpt_write_amp"])
	}
	if left, _ := os.ReadDir(rc.Scratch); len(left) != 0 {
		t.Errorf("%d stacks left on disk at the end, want none", len(left))
	}
}
