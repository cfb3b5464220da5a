package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// HandlerOpts tunes the HTTP handler returned by HandlerWith.
type HandlerOpts struct {
	// DisablePprof drops the net/http/pprof handlers from the mux. By
	// default they are served under /debug/pprof/ so a live instance can
	// be profiled through the same port that exports its metrics.
	DisablePprof bool
	// Health, when set, serves GET /healthz: the JSON summary it
	// returns, with status 200 while Healthy() and 503 once any tier's
	// breaker is down. Evaluated per request, so probes see live
	// breaker state.
	Health func() Health
	// Routes mounts extra handlers on the mux by pattern — the hook the
	// cluster aggregator uses for /metrics/cluster and /cluster.json,
	// and monarch-serve for /debug/gossip. Patterns must not collide
	// with the built-in ones.
	Routes map[string]http.Handler
}

// TierHealth is one tier's circuit-breaker state in a health summary.
type TierHealth struct {
	Tier  int    `json:"tier"`
	Name  string `json:"name"`
	State string `json:"state"` // "healthy", "suspect" or "down"
}

// Health is the summary served by /healthz: enough to answer "is this
// node degraded, and why" in one probe — breaker states, the node's
// own gossip view, and whether the trace ring has been dropping.
type Health struct {
	// Status is "ok" or "down"; filled by the handler from Healthy().
	Status string `json:"status"`
	// Tiers lists every breaker-guarded tier and its state.
	Tiers []TierHealth `json:"tiers,omitempty"`
	// Gossip is this node's membership view (peer → state). Empty when
	// the node runs no gossip.
	Gossip map[string]string `json:"gossip,omitempty"`
	// TraceDrops counts trace events lost to a full ring buffer.
	TraceDrops int64 `json:"trace_drops"`
}

// Healthy reports whether the node should answer probes with 200: it
// is false only when a tier's breaker is open (state "down") — suspect
// tiers and trace drops degrade the summary without failing it.
func (h Health) Healthy() bool {
	for _, t := range h.Tiers {
		if t.State == "down" {
			return false
		}
	}
	return true
}

// Handler serves the registry over HTTP:
//
//	GET /metrics       Prometheus text exposition (scrape target)
//	GET /metrics.json  JSON snapshot (consumed by monarch-inspect)
//	GET /debug/pprof/  runtime profiles (net/http/pprof)
//
// Non-GET requests get 405; the handler evaluates func-backed metrics
// at request time, so a scrape always reflects live queue depth and
// breaker state. Use HandlerWith to opt out of the pprof endpoints.
func (r *Registry) Handler() http.Handler { return r.HandlerWith(HandlerOpts{}) }

// HandlerWith is Handler with explicit options.
func (r *Registry) HandlerWith(opts HandlerOpts) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	}))
	mux.HandleFunc("/metrics.json", getOnly(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	}))
	if opts.Health != nil {
		mux.HandleFunc("/healthz", getOnly(func(w http.ResponseWriter, _ *http.Request) {
			h := opts.Health()
			h.Status = "ok"
			w.Header().Set("Content-Type", "application/json")
			if !h.Healthy() {
				h.Status = "down"
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(h)
		}))
	}
	for pattern, h := range opts.Routes {
		mux.Handle(pattern, h)
	}
	if !opts.DisablePprof {
		// The default pprof handlers hang off http.DefaultServeMux; wire
		// them into this mux explicitly so instances never leak profiles
		// onto servers that share the process.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// getOnly rejects non-GET/HEAD methods with 405: every endpoint here is
// a read-only view, and a POST reaching it is a misconfigured scraper.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, req)
	}
}
