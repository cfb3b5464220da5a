package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops", L("kind", "a"))
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same name+labels returns the same handle.
	if c2 := r.Counter("test_ops_total", "ops", L("kind", "a")); c2 != c {
		t.Fatal("re-registration did not return the existing handle")
	}
	// Different label value is a distinct series.
	if c3 := r.Counter("test_ops_total", "ops", L("kind", "b")); c3 == c {
		t.Fatal("distinct label value shared a handle")
	}

	g := r.Gauge("test_depth", "depth")
	g.Set(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %v, want 2", got)
	}

	// Nil handles are safe no-ops so optional wiring stays unconditional.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
}

func TestLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order produced distinct series")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("conflict_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("conflict_total", "")
}

func TestDuplicateFuncRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("f_total", "", func() int64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate CounterFunc did not panic")
		}
	}()
	r.CounterFunc("f_total", "", func() int64 { return 2 })
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-102.65) > 1e-9 {
		t.Fatalf("sum = %v, want 102.65", got)
	}
	hp, ok := r.Snapshot().Hist("lat_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Cumulative: <=0.1 holds 2 (0.05 and the boundary value 0.1),
	// <=1 holds 3, <=10 holds 4; +Inf (the count) holds all 5.
	want := []uint64{2, 3, 4}
	for i, b := range hp.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket le=%v count = %d, want %d", b.LE, b.Count, want[i])
		}
	}
}

func TestFuncMetricsEvaluateLive(t *testing.T) {
	r := NewRegistry()
	var n int64
	r.CounterFunc("live_total", "", func() int64 { return n })
	r.GaugeFunc("live_depth", "", func() float64 { return float64(n) * 2 })
	n = 7
	snap := r.Snapshot()
	if v, _ := snap.Value("live_total"); v != 7 {
		t.Fatalf("counterfunc = %v, want 7", v)
	}
	if v, _ := snap.Value("live_depth"); v != 14 {
		t.Fatalf("gaugefunc = %v, want 14", v)
	}
}

// TestConcurrentUpdates hammers one counter, one gauge and one
// histogram from parallel goroutines; run under -race (make race
// covers internal/obs) it doubles as the registry's data-race proof.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	g := r.Gauge("conc_gauge", "")
	h := r.Histogram("conc_hist", "", []float64{0.5})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64((seed + i) % 2)) // alternates 0 and 1
				// Concurrent snapshots must not race with updates.
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); got != total {
		t.Fatalf("gauge = %v, want %d", got, total)
	}
	if got := h.Count(); got != total {
		t.Fatalf("histogram count = %d, want %d", got, total)
	}
	if got := h.Sum(); got != total/2 {
		t.Fatalf("histogram sum = %v, want %d", got, total/2)
	}
}

// TestSnapshotHistogramMonotoneUnderObservers takes snapshots while
// observations land and requires each to be a valid cumulative
// histogram: buckets never decrease, and no finite bucket exceeds the
// total that the exposition prints as both +Inf and _count.
func TestSnapshotHistogramMonotoneUnderObservers(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("scrape_seconds", "", []float64{0.1, 1, 10})
	const observers, snapshots = 2, 20000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < observers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe([]float64{0.05, 0.5, 5, 50}[i%4])
			}
		}()
	}
	bad := 0
	for i := 0; i < snapshots; i++ {
		hp, ok := r.Snapshot().Hist("scrape_seconds")
		if !ok {
			t.Fatal("histogram missing from snapshot")
		}
		prev := uint64(0)
		for _, b := range hp.Buckets {
			if b.Count < prev {
				bad++
				t.Errorf("snapshot %d: bucket le=%v holds %d, below the previous bucket's %d", i, b.LE, b.Count, prev)
			}
			prev = b.Count
		}
		if prev > hp.Count {
			bad++
			t.Errorf("snapshot %d: last finite bucket %d above +Inf and _count %d", i, prev, hp.Count)
		}
		if bad > 5 {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentRegistration exercises the registration path itself
// under parallelism: all goroutines must converge on the same handle.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	handles := make([]*Counter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			handles[i] = r.Counter("shared_total", "", L("x", "y"))
			handles[i].Inc()
		}(w)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if handles[i] != handles[0] {
			t.Fatal("concurrent registration returned distinct handles")
		}
	}
	if got := handles[0].Value(); got != workers {
		t.Fatalf("counter = %d, want %d", got, workers)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b_total", "", L("t", "1")).Add(5)
		r.Counter("a_total", "").Add(1)
		r.Gauge("z_depth", "").Set(2)
		return r
	}
	j1, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(build().Snapshot())
	if string(j1) != string(j2) {
		t.Fatalf("snapshots of identical state differ:\n%s\n%s", j1, j2)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_ops_total", "handler ops", L("op", "read")).Add(3)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(body, `h_ops_total{op="read"} 3`) {
		t.Fatalf("/metrics missing sample:\n%s", body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ctype)
	}

	body, ctype = get("/metrics.json")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/metrics.json content-type = %q", ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if v, ok := snap.Value("h_ops_total", L("op", "read")); !ok || v != 3 {
		t.Fatalf("/metrics.json value = %v ok=%v, want 3", v, ok)
	}

	// The expvar-style map is gone with Registry.Vars: /metrics.json
	// carries the same values.
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/vars = %d, want 404", resp.StatusCode)
	}
}

func TestSpanString(t *testing.T) {
	s := Span{Kind: SpanRead, File: "f", Tier: 0, Bytes: 64, Duration: 0}
	if got := s.String(); !strings.Contains(got, "read f") || !strings.Contains(got, "tier=0") {
		t.Fatalf("span string = %q", got)
	}
	kinds := []SpanKind{SpanRead, SpanPlacementEnqueue, SpanPlacement, SpanChunkCopy, SpanTierProbe, SpanKind(99)}
	want := []string{"read", "placement-enqueue", "placement", "chunk-copy", "tier-probe", "unknown"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("SpanKind(%d) = %q, want %q", int(k), k, want[i])
		}
	}
}
