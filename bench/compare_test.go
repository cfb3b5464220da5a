package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonsExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestCompareSets(t *testing.T) {
	ledger := ledgerFile{EndToEnd: []boundedMetric{
		{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "saved", Unit: "%", Better: "higher", Bound: 0.10},
	}}
	set := func(lat, saved []float64) map[string]map[string][]float64 {
		m := make(map[string]map[string][]float64)
		for _, w := range workloads {
			m[w.Name] = map[string][]float64{"lat": lat, "saved": saved}
		}
		return m
	}
	steady := []float64{100, 101, 99, 100, 102, 98}
	cases := []struct {
		name       string
		lat, saved []float64
		code       int
		verdict    string
	}{
		{"same", steady, steady, 0, "ok"},
		{"slower", []float64{120, 121, 119, 120, 122, 118}, steady, 1, "REGRESSION"},
		{"faster", []float64{80, 81, 79, 80, 82, 78}, steady, 0, "ok"},
		{"saves less", steady, []float64{80, 81, 79, 80, 82, 78}, 1, "REGRESSION"},
		{"too noisy to say", []float64{60, 180, 90, 150, 120, 100}, steady, 0, "unresolved"},
		{"one run", []float64{100}, steady, 2, "needs two runs"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := compareSets(&out, ledger, set(steady, steady), set(c.lat, c.saved)); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q verdict in\n%s", c.name, c.verdict, out.String())
		}
	}
}
