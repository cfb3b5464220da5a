// Package obs is MONARCH's observability substrate: a lock-cheap
// metrics registry (counters, gauges, bounded histograms), typed trace
// spans for the hot read/placement paths, and two sinks — a
// Prometheus-text/JSON HTTP endpoint and a point-in-time snapshot.
//
// The paper evaluates MONARCH through externally observed I/O counters
// (ops submitted to Lustre, bytes per tier, training time); this
// package makes the same signals — plus the internals the paper cannot
// see, like breaker flips and chunk-copy progress — first-class, so
// every policy decision is explainable from a scrape.
//
// Design rules:
//
//   - handles, not lookups: instrumented code holds *Counter /
//     *Gauge / *Histogram pointers obtained once at wiring time; the
//     hot path is a single atomic op, never a map access or a lock;
//   - derived values are functions: queue depth, breaker state and hit
//     ratio are registered as CounterFunc/GaugeFunc closures evaluated
//     at collection time, so they can never drift from the source of
//     truth (this is also how core.Stats stays a read-only view);
//   - snapshots are "consistent enough": per-metric loads are atomic
//     but the snapshot as a whole is not a transaction, matching the
//     guarantees of storage.Counting.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value dimension of a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing metric. The zero value is
// unusable; obtain handles from Registry.Counter. All methods are
// nil-safe so optional instrumentation can stay unconditional.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is a programming error but is
// not checked on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a bounded-bucket distribution: observations land in the
// first bucket whose upper bound is >= the value, plus an implicit +Inf
// bucket. Buckets are fixed at registration, so Observe is a short
// linear scan, one atomic add and a sum update — no allocation, no
// lock. There is no separate total: a reader derives it from the same
// bucket loads it reports, so no reader sees a bucket above the total.
type Histogram struct {
	bounds []float64       // sorted upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// NewHistogram builds a standalone histogram with the given upper
// bounds (nil defaults to LatencyBuckets) — for components that need a
// distribution before (or without) a registry, like the peer client's
// always-on latency record behind hedged-read thresholds. Registering
// the same name via Registry.Histogram yields an independent series;
// standalone histograms are private to their owner.
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Quantile estimates the q-quantile (q in [0,1]) from the live bucket
// counts, interpolating linearly within the crossing bucket — the same
// estimate Snapshot's HistogramPoint.Quantile reports, computed
// without building a snapshot. Observations beyond the last finite
// bound clamp to it; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	var buf [16]uint64
	counts, total := h.load(buf[:0])
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	prevLE, cum := 0.0, uint64(0)
	for i, le := range h.bounds {
		prev := cum
		cum += counts[i]
		if float64(cum) >= rank && cum > prev {
			frac := (rank - float64(prev)) / float64(cum-prev)
			return prevLE + (le-prevLE)*frac
		}
		prevLE = le
	}
	return h.bounds[len(h.bounds)-1]
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// load appends every bucket's count, +Inf last, to dst, loading each
// once, and returns them with their total.
func (h *Histogram) load(dst []uint64) (counts []uint64, total uint64) {
	for i := range h.counts {
		c := h.counts[i].Load()
		dst = append(dst, c)
		total += c
	}
	return dst, total
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LatencyBuckets are the default histogram bounds for operation
// latencies in seconds: 1µs to 10s, one decade per bucket — wide
// enough to cover a memfs copy and a cold PFS fetch alike.
var LatencyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// series is one labelled instance of a metric family. Exactly one of
// the value fields is set.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
	cf     func() int64
	gf     func() float64
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	series map[string]*series // by label signature
}

// Registry holds metric families and hands out handles. Registration
// takes a lock; handle operations do not. Registering the same
// name+labels again returns the existing handle, so wiring code can be
// idempotent.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// signature builds the canonical label key for a series; labels are
// sorted by name so registration order never matters.
func signature(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte(0xff)
		b.WriteString(l.Value)
		b.WriteByte(0xfe)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ensure returns the family for name, creating it with help/typ on
// first use and panicking on a type conflict — a conflict is always a
// wiring bug, and failing fast beats exposing garbage.
func (r *Registry) ensure(name, help string, typ metricType) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (r *Registry) lookup(name, help string, typ metricType, labels []Label) (*family, []Label, *series) {
	labels = sortLabels(labels)
	for _, l := range labels {
		if !validName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l.Name, name))
		}
	}
	f := r.ensure(name, help, typ)
	return f, labels, f.series[signature(labels)]
}

// Counter registers (or finds) a counter series and returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ls, s := r.lookup(name, help, typeCounter, labels)
	if s != nil {
		if s.c == nil {
			panic(fmt.Sprintf("obs: metric %q is func-backed, cannot return a handle", name))
		}
		return s.c
	}
	s = &series{labels: ls, c: &Counter{}}
	f.series[signature(ls)] = s
	return s.c
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ls, s := r.lookup(name, help, typeGauge, labels)
	if s != nil {
		if s.g == nil {
			panic(fmt.Sprintf("obs: metric %q is func-backed, cannot return a handle", name))
		}
		return s.g
	}
	s = &series{labels: ls, g: &Gauge{}}
	f.series[signature(ls)] = s
	return s.g
}

// Histogram registers (or finds) a histogram series with the given
// upper bounds (nil defaults to LatencyBuckets) and returns its handle.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ls, s := r.lookup(name, help, typeHistogram, labels)
	if s != nil {
		return s.h
	}
	if buckets == nil {
		buckets = LatencyBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	s = &series{labels: ls, h: &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}}
	f.series[signature(ls)] = s
	return s.h
}

// CounterFunc registers a counter series whose value is read from fn at
// collection time — the mechanism that keeps derived views (e.g.
// storage.Counting totals) in lock-step with their source of truth.
// Registering a duplicate series panics.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ls, s := r.lookup(name, help, typeCounter, labels)
	if s != nil {
		panic(fmt.Sprintf("obs: duplicate registration of %q", name))
	}
	f.series[signature(ls)] = &series{labels: ls, cf: fn}
}

// GaugeFunc registers a gauge series whose value is read from fn at
// collection time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ls, s := r.lookup(name, help, typeGauge, labels)
	if s != nil {
		panic(fmt.Sprintf("obs: duplicate registration of %q", name))
	}
	f.series[signature(ls)] = &series{labels: ls, gf: fn}
}

// sortedFamilies returns families by name and each family's series by
// label signature — the deterministic order every sink emits.
func (r *Registry) sortedFamilies() []*family {
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedSeries() []*series {
	sigs := make([]string, 0, len(f.series))
	for sig := range f.series {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	out := make([]*series, 0, len(sigs))
	for _, sig := range sigs {
		out = append(out, f.series[sig])
	}
	return out
}

// value evaluates a counter/gauge series.
func (s *series) value() float64 {
	switch {
	case s.c != nil:
		return float64(s.c.Value())
	case s.cf != nil:
		return float64(s.cf())
	case s.g != nil:
		return s.g.Value()
	case s.gf != nil:
		return s.gf()
	default:
		return 0
	}
}
