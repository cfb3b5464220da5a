package obs

import "math"

// Snapshot is a point-in-time, JSON-serialisable view of a registry.
// Order is deterministic: metric name, then label signature — so two
// snapshots of identical state marshal to identical bytes.
type Snapshot struct {
	Metrics []MetricPoint `json:"metrics"`
}

// MetricPoint is one series at snapshot time. Counters and gauges carry
// Value; histograms carry Histogram instead.
type MetricPoint struct {
	Name      string            `json:"name"`
	Type      string            `json:"type"`
	Help      string            `json:"help,omitempty"`
	Labels    map[string]string `json:"labels,omitempty"`
	Value     *float64          `json:"value,omitempty"`
	Histogram *HistogramPoint   `json:"histogram,omitempty"`
}

// HistogramPoint is a histogram's cumulative buckets plus sum/count.
// P50/P95/P99 are Prometheus-style estimates interpolated from the
// cumulative buckets at snapshot time (0 while the histogram is empty);
// they exist so JSON consumers get latency summaries without
// re-implementing the bucket walk.
type HistogramPoint struct {
	Buckets []BucketPoint `json:"buckets"`
	Sum     float64       `json:"sum"`
	Count   uint64        `json:"count"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
}

// Quantile estimates the q-quantile (q in [0,1]) from the cumulative
// buckets, interpolating linearly within the bucket that crosses the
// target rank — the same estimate Prometheus' histogram_quantile
// computes. Observations beyond the last finite bound clamp to that
// bound (an unbounded bucket has no interpolable width). Returns 0 for
// an empty histogram.
func (h *HistogramPoint) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	lastFinite := h.Buckets[len(h.Buckets)-1].LE
	prevLE, prevCount := 0.0, uint64(0)
	for _, b := range h.Buckets {
		if float64(b.Count) >= rank && b.Count > prevCount {
			frac := (rank - float64(prevCount)) / float64(b.Count-prevCount)
			return prevLE + (b.LE-prevLE)*frac
		}
		prevLE, prevCount = b.LE, b.Count
	}
	// Rank falls in the implicit +Inf bucket: clamp to the largest
	// finite bound.
	return lastFinite
}

// BucketPoint is one cumulative bucket: observations <= LE (the final
// bucket has LE = +Inf, marshalled as the string "+Inf" would not be
// valid JSON, so it is omitted and implied by Count).
type BucketPoint struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Snapshot captures every series.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var snap Snapshot
	for _, f := range r.sortedFamilies() {
		for _, s := range f.sortedSeries() {
			p := MetricPoint{Name: f.name, Type: f.typ.String(), Help: f.help}
			if len(s.labels) > 0 {
				p.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					p.Labels[l.Name] = l.Value
				}
			}
			if s.h != nil {
				counts, total := s.h.load(make([]uint64, 0, len(s.h.counts)))
				hp := &HistogramPoint{Sum: s.h.Sum(), Count: total}
				var cum uint64
				for i, b := range s.h.bounds {
					cum += counts[i]
					hp.Buckets = append(hp.Buckets, BucketPoint{LE: b, Count: cum})
				}
				hp.P50 = hp.Quantile(0.50)
				hp.P95 = hp.Quantile(0.95)
				hp.P99 = hp.Quantile(0.99)
				p.Histogram = hp
			} else {
				v := s.value()
				p.Value = &v
			}
			snap.Metrics = append(snap.Metrics, p)
		}
	}
	return snap
}

// Value finds a counter/gauge series by name and labels (order
// insensitive); ok is false when the series is absent or a histogram.
func (s Snapshot) Value(name string, labels ...Label) (v float64, ok bool) {
	for _, p := range s.Metrics {
		if p.Name != name || p.Value == nil || !labelsMatch(p.Labels, labels) {
			continue
		}
		return *p.Value, true
	}
	return 0, false
}

// Hist finds a histogram series by name and labels.
func (s Snapshot) Hist(name string, labels ...Label) (*HistogramPoint, bool) {
	for _, p := range s.Metrics {
		if p.Name != name || p.Histogram == nil || !labelsMatch(p.Labels, labels) {
			continue
		}
		return p.Histogram, true
	}
	return nil, false
}

func labelsMatch(have map[string]string, want []Label) bool {
	if len(have) != len(want) {
		return false
	}
	for _, l := range want {
		if have[l.Name] != l.Value {
			return false
		}
	}
	return true
}

// Int returns Value truncated to int64 (counters are exact up to 2^53).
func (s Snapshot) Int(name string, labels ...Label) (int64, bool) {
	v, ok := s.Value(name, labels...)
	if !ok || math.IsNaN(v) {
		return 0, ok
	}
	return int64(v), true
}
