package obs

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerRejectsBadMethods(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_ops_total", "").Add(1)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	for _, path := range []string{"/metrics", "/metrics.json"} {
		resp, err := srv.Client().Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, http.StatusMethodNotAllowed)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Fatalf("POST %s Allow = %q, want GET advertised", path, allow)
		}
	}

	// HEAD stays allowed: load balancers probe with it.
	resp, err := srv.Client().Head(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD /metrics = %d, want 200", resp.StatusCode)
	}
}

func TestHandlerUnknownPath(t *testing.T) {
	srv := httptest.NewServer(NewRegistry().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nope = %d, want 404", resp.StatusCode)
	}
}

func TestHandlerPprof(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("/debug/pprof/ index does not list profiles:\n%s", body)
	}

	disabled := httptest.NewServer(r.HandlerWith(HandlerOpts{DisablePprof: true}))
	defer disabled.Close()
	resp, err = disabled.Client().Get(disabled.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ with DisablePprof = %d, want 404", resp.StatusCode)
	}
	// /metrics must survive the opt-out.
	resp, err = disabled.Client().Get(disabled.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics with DisablePprof = %d, want 200", resp.StatusCode)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	r := NewRegistry()
	state := "healthy"
	srv := httptest.NewServer(r.HandlerWith(HandlerOpts{Health: func() Health {
		return Health{
			Tiers:      []TierHealth{{Tier: 0, Name: "ssd", State: state}},
			Gossip:     map[string]string{"node1": "alive"},
			TraceDrops: 3,
		}
	}}))
	defer srv.Close()

	get := func() (int, Health) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("/healthz is not JSON: %v", err)
		}
		return resp.StatusCode, h
	}

	code, h := get()
	if code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy node: %d %q, want 200 ok", code, h.Status)
	}
	if len(h.Tiers) != 1 || h.Tiers[0].State != "healthy" || h.TraceDrops != 3 {
		t.Fatalf("health body = %+v", h)
	}
	if h.Gossip["node1"] != "alive" {
		t.Fatalf("gossip view lost: %+v", h.Gossip)
	}

	// A suspect tier degrades nothing: only Down turns the probe red.
	state = "suspect"
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("suspect tier: %d, want 200", code)
	}
	state = "down"
	code, h = get()
	if code != http.StatusServiceUnavailable || h.Status != "down" {
		t.Fatalf("down tier: %d %q, want 503 down", code, h.Status)
	}

	// Without a Health source the endpoint does not exist.
	bare := httptest.NewServer(NewRegistry().Handler())
	defer bare.Close()
	resp, err := bare.Client().Get(bare.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /healthz without a source = %d, want 404", resp.StatusCode)
	}
}

func TestHandlerRoutes(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_ops_total", "").Add(1)
	srv := httptest.NewServer(r.HandlerWith(HandlerOpts{Routes: map[string]http.Handler{
		"/debug/custom": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "custom")
		}),
	}}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/custom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "custom" {
		t.Fatalf("mounted route: %d %q", resp.StatusCode, body)
	}
	// The standard endpoints survive extra routes.
	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics with Routes = %d, want 200", resp.StatusCode)
	}
}

func TestServeOnClosedListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: NewRegistry().Handler()}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve on a closed listener returned nil error")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "", []float64{0.1, 1, 10})
	// 10 observations in [0, 0.1), 80 in [0.1, 1), 10 in [1, 10).
	for i := 0; i < 10; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 80; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	hp := histogramPoint(t, r, "q_seconds")
	// p50: rank 50 of 90 cumulative in the [0.1,1) bucket →
	// 0.1 + (50-10)/80 * 0.9 = 0.55.
	if got := hp.Quantile(0.50); math.Abs(got-0.55) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.55", got)
	}
	if hp.P50 != hp.Quantile(0.50) || hp.P95 != hp.Quantile(0.95) || hp.P99 != hp.Quantile(0.99) {
		t.Fatalf("snapshot quantile fields disagree with Quantile(): %+v", hp)
	}
	if hp.P95 <= hp.P50 || hp.P99 < hp.P95 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", hp.P50, hp.P95, hp.P99)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	empty := r.Histogram("e_seconds", "", []float64{1, 2})
	_ = empty
	hp := histogramPoint(t, r, "e_seconds")
	if got := hp.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", got)
	}

	r2 := NewRegistry()
	over := r2.Histogram("o_seconds", "", []float64{1})
	over.Observe(100) // lands in the +Inf bucket
	hp = histogramPoint(t, r2, "o_seconds")
	// Overflow clamps to the largest finite bound instead of +Inf.
	if got := hp.Quantile(0.99); got != 1 {
		t.Fatalf("overflow p99 = %v, want clamp to 1", got)
	}
	if got := hp.Quantile(-1); got != hp.Quantile(0) {
		t.Fatalf("q<0 = %v, want clamp to q=0 (%v)", got, hp.Quantile(0))
	}
}

func TestSnapshotJSONCarriesQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Histogram("j_seconds", "", []float64{1, 10}).Observe(0.5)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"p50"`, `"p95"`, `"p99"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("snapshot JSON missing %s:\n%s", key, data)
		}
	}
}

// histogramPoint extracts the single histogram series by name.
func histogramPoint(t *testing.T, r *Registry, name string) *HistogramPoint {
	t.Helper()
	for _, p := range r.Snapshot().Metrics {
		if p.Name == name && p.Histogram != nil {
			return p.Histogram
		}
	}
	t.Fatalf("histogram %q not in snapshot", name)
	return nil
}
