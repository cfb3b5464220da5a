package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// ledgerFile is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and the share of the baseline's median
// it may worsen by.
type ledgerFile struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the driver uses. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// readRuns loads an -out file and groups the untraced runs' metric
// values by workload and metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if r.Failed != 0 {
			return nil, fmt.Errorf("%s: %s seed %d has %d failed ops; a run that failed measures nothing", path, r.Workload, r.Seed, r.Failed)
		}
		if runs[r.Workload] == nil {
			runs[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			runs[r.Workload][name] = append(runs[r.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, how set b's
// median moved against set a's and against the metric's bound. A
// pairing is "unresolved" when either set's own quartile spread exceeds
// the bound: the sets cannot tell a change of that size from noise. It
// returns 1 when any resolved pairing got worse by more than its bound.
func compareFiles(w io.Writer, ledgerPath, aPath, bPath string) int {
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var ledger ledgerFile
	if err := json.Unmarshal(raw, &ledger); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", ledgerPath, err)
		return 2
	}
	var sets [2]map[string]map[string][]float64
	for i, path := range []string{aPath, bPath} {
		if sets[i], err = readRuns(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	return compareSets(w, ledger, sets[0], sets[1])
}

func compareSets(w io.Writer, ledger ledgerFile, a, b map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(w, "%-15s %-18s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "a median", "b median", "worse%", "a iqr%", "b iqr%", "bound%", "verdict")
	for _, wl := range workloads {
		for _, def := range ledger.EndToEnd {
			av, bv := a[wl.Name][def.Name], b[wl.Name][def.Name]
			if len(av) < 2 || len(bv) < 2 {
				fmt.Fprintf(w, "%-15s %-18s needs two runs on each side (have %d and %d)\n", wl.Name, def.Name, len(av), len(bv))
				code = max(code, 2)
				continue
			}
			a1, am, a3 := quartiles(av)
			b1, bm, b3 := quartiles(bv)
			worse := ratio(bm-am, am)
			if def.Better == "higher" {
				worse = -worse
			}
			aSpread, bSpread := ratio(a3-a1, am), ratio(b3-b1, bm)
			verdict := "ok"
			switch {
			case aSpread > def.Bound || bSpread > def.Bound:
				verdict = "unresolved"
			case worse > def.Bound:
				verdict = "REGRESSION"
				code = max(code, 1)
			}
			fmt.Fprintf(w, "%-15s %-18s %12.5g %12.5g %+8.2f %7.2f %7.2f %6.1f  %s\n",
				wl.Name, def.Name, am, bm, 100*worse, 100*aSpread, 100*bSpread, 100*def.Bound, verdict)
		}
	}
	return code
}
