package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json is what the driver and later issues read; the program
// is what prints. This keeps the two lists, the units and the workload
// names in step, and holds the file to the driver's rules that are easy
// to break by hand.
func TestLedgerMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(ledger.Workloads), len(workloads))
	}
	for i, w := range ledger.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(ledger.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(ledger.EndToEnd), len(endToEnd))
	}
	setupBound, maxBound := 0.0, 0.0
	for i, m := range ledger.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end metric %d is %s [%s], the program prints %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s must have the largest bound: %v against %v", setupBound, maxBound)
	}
	if len(ledger.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(ledger.PerLayer), len(perLayer))
	}
	for i, m := range ledger.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer metric %d is %s [%s], the program prints %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	// 4 + 22 runs per workload, each a go-build check, the window, and
	// verification and teardown after it, inside the driver's 3420 s.
	if runs := 4 + 22*len(workloads); runs*(ledger.RunSeconds+5) > 3420-2*120 {
		t.Errorf("%d runs of %d s leave no room for two builds in 3420 s", runs, ledger.RunSeconds)
	}
}
