// Command monarch-serve exposes a node's tier-0 cache directory to
// sibling nodes over the peernet wire protocol, so their MONARCH
// instances can slot this node's cache into their hierarchies as a
// peer tier.
//
// Usage:
//
//	monarch-serve -root /mnt/ssd/monarch              # serve a cache dir
//	monarch-serve -root DIR -addr :9077 -quota 64GiB-ish-bytes
//	monarch-serve -root DIR -write                    # accept remote writes
//	monarch-serve -root DIR -metrics :9078            # capacity gauges + pprof
//	monarch-serve -root DIR -self node0 \
//	    -peers node1=host1:9077,node2=host2:9077     # gossip membership
//	monarch-serve -root DIR -quota 64000000000 \
//	    -pfs /lustre/datasets -jobs jobA=0.5,jobB=0.3 # multi-tenant cache
//	monarch-serve -root DIR -quota N -pfs /lustre/ds \
//	    -jobs jobA=0.5 -write -journal DIR/wal.mj    # writable tenant cache
//
// The server is read-only by default: peers may READ/STAT/LIST/PING but
// never mutate this node's cache (placement stays a local decision).
//
// With -jobs the daemon becomes a multi-tenant MONARCH node: -root is
// managed as the SSD cache tier over the read-only -pfs dataset
// directory, served through a full middleware instance with the
// heat-driven eviction engine on. Every file's first path segment names
// its job ("jobA/shard-0003" belongs to jobA); -jobs declares each
// job's guaranteed share of the -quota (shares in [0,1], sum <= 1),
// with unused capacity borrowable by any job until its owner reclaims
// it. Reads arriving over the wire heat files, drive placement and
// eviction, and move per-job fairness counters
// (monarch_job_read_ops_total, monarch_job_tier_used_bytes, ...)
// exported on -metrics. -epoch-every sets the wall-clock stand-in for
// the training loop's epoch marks, which drive heat decay. Tenant mode
// requires a finite -quota (shares of an unlimited tier are
// meaningless).
//
// Tenant mode with -write routes remote WRITE/REMOVE through the
// middleware's write path instead of the raw cache directory: a WRITE
// becomes Create+WriteAt on the managed namespace and a REMOVE tears
// the file down everywhere it lives. With -journal PATH the checkpoint
// namespace runs write-back — the ack lands once tier 0 and the
// kill-safe WAL hold the bytes, and a background flusher retires them
// to the PFS; without -journal writes are write-through (the PFS has
// the bytes before the ack). Dataset files stay read-only either way.
//
// With -self and -peers the node — in either mode — joins the gossip
// membership: it heartbeats every sibling over the same wire protocol
// (views ride PING frames), answers inbound heartbeats with its own
// view, answers STATS frames under its ring ID, logs liveness
// transitions, and exposes per-peer state gauges and the fleet routes
// (/metrics/cluster, /cluster.json) on -metrics. -replicas records the
// replica-set width R the cluster's rings run with (consumers derive
// ownership from OwnersOf(name, R); every node must agree on R).
//
// The daemon carries no drills: the peer network's end-to-end checks —
// sibling hits, fleet totals against per-node sums, kill and rejoin
// under replication, request-ID stitching, no goroutine left behind —
// live in the ext-peernet experiment (go run ./cmd/monarch-bench -exp
// ext-peernet), the write path's SIGKILL-and-replay drill in go test.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"monarch"

	"monarch/internal/obs"
	"monarch/internal/obs/cluster"
	"monarch/internal/peernet"
	"monarch/internal/storage"
)

func main() {
	var cfg serveConfig
	flag.StringVar(&cfg.addr, "addr", ":9077", "listen address for the peer wire protocol")
	flag.StringVar(&cfg.root, "root", "", "cache directory to serve")
	flag.Int64Var(&cfg.quota, "quota", 0, "capacity the store reports, in bytes (0 = unlimited)")
	flag.BoolVar(&cfg.write, "write", false, "accept remote WRITE/REMOVE (default read-only)")
	flag.StringVar(&cfg.journal, "journal", "", "WAL path: write-back acks that survive a kill -9 (tenant mode with -write)")
	flag.StringVar(&cfg.metrics, "metrics", "", "optional address serving /metrics for this store")

	flag.StringVar(&cfg.self, "self", "", "this node's ring ID (enables gossip membership with -peers)")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated sibling servers, id=host:port each")
	flag.IntVar(&cfg.replicas, "replicas", 1, "replica-set width R the cluster's ownership rings use")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", 250*time.Millisecond, "gossip heartbeat interval")
	flag.DurationVar(&cfg.suspectAfter, "suspect-after", time.Second, "silence before a peer turns Suspect")
	flag.DurationVar(&cfg.deadAfter, "dead-after", 3*time.Second, "silence before a peer turns Dead")

	flag.StringVar(&cfg.pfs, "pfs", "", "read-only dataset directory (enables multi-tenant mode with -jobs)")
	flag.StringVar(&cfg.jobs, "jobs", "", "per-job quota shares, job=share each (e.g. jobA=0.5,jobB=0.3)")
	flag.DurationVar(&cfg.epochEvery, "epoch-every", time.Minute, "wall-clock epoch length driving heat decay in tenant mode (0 = never decay)")
	flag.Parse()

	if cfg.root == "" {
		fmt.Fprintln(os.Stderr, "monarch-serve: -root is required")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "monarch-serve:", err)
		os.Exit(1)
	}
}

type serveConfig struct {
	addr, root              string
	quota                   int64
	write                   bool
	journal                 string
	metrics                 string
	self, peers             string
	replicas                int
	heartbeat               time.Duration
	suspectAfter, deadAfter time.Duration
	pfs, jobs               string
	epochEvery              time.Duration
}

// validate rejects flag combinations before any resource is touched,
// so misconfigurations fail fast with one clear message.
func (cfg serveConfig) validate() error {
	if cfg.replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1, got %d", cfg.replicas)
	}
	if (cfg.self == "") != (cfg.peers == "") {
		return fmt.Errorf("-self and -peers must be set together")
	}
	if cfg.jobs != "" {
		if cfg.pfs == "" {
			return fmt.Errorf("-jobs needs -pfs: the tenant cache is placed from a dataset directory")
		}
		if cfg.quota <= 0 {
			return fmt.Errorf("conflicting -quota: -jobs declares shares of the cache tier, so -quota must be a positive byte count (got %d)", cfg.quota)
		}
		if _, err := parseJobs(cfg.jobs); err != nil {
			return err
		}
	} else if cfg.pfs != "" {
		return fmt.Errorf("-pfs needs -jobs: declare at least one tenant share")
	}
	if cfg.journal != "" {
		if !cfg.write {
			return fmt.Errorf("-journal needs -write: the WAL guards write-back acks")
		}
		if cfg.jobs == "" {
			return fmt.Errorf("-journal needs -jobs: plain mode writes land on the served directory directly; only the middleware's write path journals")
		}
	}
	return nil
}

// parseJobs decodes the -jobs flag: comma-separated job=share, each
// share a fraction of the cache tier in [0,1]. Range, duplicate and
// sum-of-shares validation happens in core when the middleware is
// assembled; this only parses.
func parseJobs(spec string) ([]monarch.TenantConfig, error) {
	var tenants []monarch.TenantConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		job, val, ok := strings.Cut(part, "=")
		if !ok || job == "" || val == "" {
			return nil, fmt.Errorf("bad -jobs entry %q (want job=share)", part)
		}
		share, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -jobs share %q: %v", part, err)
		}
		tenants = append(tenants, monarch.TenantConfig{Job: job, Share: share})
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("-jobs is empty (want job=share,...)")
	}
	return tenants, nil
}

// parsePeers decodes the -peers flag: comma-separated id=host:port.
func parsePeers(spec string) (ids []string, addrs map[string]string, err error) {
	addrs = map[string]string{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, nil, fmt.Errorf("bad -peers entry %q (want id=host:port)", part)
		}
		if _, dup := addrs[id]; dup {
			return nil, nil, fmt.Errorf("duplicate peer id %q in -peers", id)
		}
		ids = append(ids, id)
		addrs[id] = addr
	}
	return ids, addrs, nil
}

// gossipView is a membership view as the peer -> state object /healthz
// and /debug/gossip serve; empty without gossip.
func gossipView(mem *peernet.Membership) map[string]string {
	view := map[string]string{}
	for _, g := range mem.Gossip() {
		view[g.Node] = g.State
	}
	return view
}

// gossipHandler serves /debug/gossip: this node's live membership view
// as a JSON object of peer -> state. Without gossip it reports so
// instead of 404ing, so operators can tell "not enabled" from "wrong
// port".
func gossipHandler(mem *peernet.Membership) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if mem == nil {
			fmt.Fprintln(w, `{"gossip":"disabled"}`)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"self": mem.Self(), "peers": gossipView(mem)})
	})
}

// mode is everything that differs between the two daemons: what is
// served and how it describes itself. The node around it — gossip,
// STATS, the wire and metrics listeners, shutdown — is serve's, once.
type mode struct {
	backend storage.Backend
	reg     *obs.Registry                         // answers STATS frames whether or not -metrics serves it
	health  func() obs.Health                     // the gossip view is layered on by serve
	jobs    func() map[string]peernet.JobCounters // the per-job ledger; nil in plain mode
	banner  string                                // "monarch-serve: <banner> on <addr>"
	close   func()
}

// serve runs the daemon — cfg's mode inside the one node assembly —
// until ctx is done; then it closes connections and drains.
func serve(ctx context.Context, cfg serveConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	open := plainMode
	if cfg.jobs != "" {
		open = tenantMode
	}
	md, err := open(ctx, cfg)
	if err != nil {
		return err
	}
	defer md.close()
	md.reg.GaugeFunc("monarch_serve_replicas",
		"Replica-set width R the cluster's ownership rings run with.",
		func() float64 { return float64(cfg.replicas) })

	// Gossip membership: requires both -self and -peers. The gossip
	// clients double as fleet-stats sources: the aggregator polls every
	// sibling's STATS frame per scrape and serves the merged view from
	// this node.
	var mem *peernet.Membership
	var sources []cluster.Source
	node := "monarch-serve"
	if cfg.self != "" {
		node = cfg.self
		ids, addrs, err := parsePeers(cfg.peers)
		if err != nil {
			return err
		}
		mem, err = peernet.NewMembership(peernet.MembershipConfig{
			Self:         cfg.self,
			Peers:        ids,
			SuspectAfter: cfg.suspectAfter,
			DeadAfter:    cfg.deadAfter,
			OnChange: func(peer string, from, to peernet.PeerState) {
				fmt.Printf("monarch-serve: peer %s %s -> %s\n", peer, from, to)
			},
		})
		if err != nil {
			return err
		}
		mem.Instrument(md.reg)
		clients := map[string]*peernet.Client{}
		for _, id := range ids {
			c, err := peernet.NewClient(peernet.ClientConfig{
				Name: "peer:" + id,
				Dial: peernet.TCPDialer(addrs[id], cfg.heartbeat),
			})
			if err != nil {
				return err
			}
			defer c.Close()
			clients[id] = c
			sources = append(sources, cluster.Source{Node: id, Client: c})
		}
		hb, err := peernet.NewHeartbeater(mem, clients, cfg.heartbeat)
		if err != nil {
			return err
		}
		hb.Start()
		defer hb.Stop()
	}
	stats := func() (peernet.NodeStats, error) {
		ns := peernet.NodeStats{Node: node, Metrics: md.reg.Snapshot(), Gossip: mem.Gossip()}
		if md.jobs != nil {
			ns.Jobs = md.jobs()
		}
		return ns, nil
	}

	srv, err := peernet.NewServer(peernet.ServerConfig{
		Backend:    md.backend,
		AllowWrite: cfg.write,
		Membership: mem,
		Stats:      stats,
		Logf:       func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("monarch-serve: %s on %s\n", md.banner, ln.Addr())
	if mem != nil {
		fmt.Printf("monarch-serve: gossip as %s with %d peers, R=%d, heartbeat %v (suspect %v, dead %v)\n",
			cfg.self, len(sources), cfg.replicas, cfg.heartbeat, cfg.suspectAfter, cfg.deadAfter)
	}
	if cfg.metrics != "" {
		routes := map[string]http.Handler{}
		if mem != nil {
			routes = cluster.New(cluster.Config{Self: stats, Sources: sources}).Routes()
		}
		routes["/debug/gossip"] = gossipHandler(mem)
		mln, err := net.Listen("tcp", cfg.metrics)
		if err != nil {
			ln.Close()
			return err
		}
		fmt.Printf("monarch-serve: metrics on http://%s/metrics\n", mln.Addr())
		hs := &http.Server{Handler: md.reg.HandlerWith(obs.HandlerOpts{
			Health: func() obs.Health {
				h := md.health()
				h.Gossip = gossipView(mem)
				return h
			},
			Routes: routes,
		})}
		go func() { _ = hs.Serve(mln) }()
		defer hs.Close()
	}
	defer context.AfterFunc(ctx, func() {
		fmt.Println("monarch-serve: shutting down")
		srv.Close()
	})()
	return srv.Serve(ln)
}

// plainMode serves the raw tier-0 cache directory.
func plainMode(_ context.Context, cfg serveConfig) (*mode, error) {
	store, err := storage.NewOSFS("tier0", cfg.root, cfg.quota)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, time.Now())
	reg.GaugeFunc("monarch_serve_capacity_bytes",
		"Capacity the served store reports (0 = unlimited).",
		func() float64 { return float64(store.Capacity()) })
	reg.GaugeFunc("monarch_serve_used_bytes",
		"Bytes currently held by the served store.",
		func() float64 { return float64(store.Used()) })
	access := "read-only"
	if cfg.write {
		access = "read-write"
	}
	return &mode{
		backend: store,
		reg:     reg,
		health:  func() obs.Health { return obs.Health{} },
		banner:  fmt.Sprintf("serving %s (%s)", cfg.root, access),
		close:   func() {},
	}, nil
}

// tenantMode serves a MONARCH instance managing -root as the cache tier
// over the read-only -pfs dataset, heat-driven eviction on, -jobs shares
// enforced. A wall-clock ticker stands in for the training loop's
// MarkEpoch calls to drive heat decay.
func tenantMode(ctx context.Context, cfg serveConfig) (*mode, error) {
	tenants, err := parseJobs(cfg.jobs)
	if err != nil {
		return nil, err
	}
	tier0, err := storage.NewOSFS("ssd", cfg.root, cfg.quota)
	if err != nil {
		return nil, fmt.Errorf("-root: %w", err)
	}
	pfs, err := storage.NewOSFS("pfs", cfg.pfs, 0)
	if err != nil {
		return nil, fmt.Errorf("-pfs: %w", err)
	}
	mcfg := monarch.Config{
		Levels:        []monarch.Backend{tier0, pfs},
		Pool:          monarch.NewPool(4),
		FullFileFetch: true,
		Eviction:      monarch.NewHeatPolicy(),
		JobOf:         monarch.JobFromPath,
		Tenants:       tenants,
	}
	access := "read-only"
	if cfg.write {
		// Remote WRITE/REMOVE flow through the write path. With a WAL
		// the whole namespace acks write-back (tier 0 + journal, async
		// flush); without one, write-through keeps acks durable on the
		// PFS at full PFS latency.
		mcfg.Write = monarch.WriteConfig{Enabled: true, JournalPath: cfg.journal}
		access = "read-write (write-through)"
		if cfg.journal != "" {
			mcfg.Write.Durability = func(string) monarch.Durability { return monarch.WriteBack }
			access = "read-write (write-back, WAL " + cfg.journal + ")"
		}
	}
	m, err := monarch.New(mcfg)
	if err != nil {
		return nil, err
	}
	if err := m.Init(ctx); err != nil {
		m.Close()
		return nil, fmt.Errorf("building namespace from %s: %w", cfg.pfs, err)
	}
	stop := make(chan struct{})
	var ticking sync.WaitGroup
	if cfg.epochEvery > 0 {
		ticking.Add(1)
		go func() {
			defer ticking.Done()
			tick := time.NewTicker(cfg.epochEvery)
			defer tick.Stop()
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				case <-tick.C:
					m.MarkEpoch(n)
				}
			}
		}()
	}
	banner := fmt.Sprintf("multi-tenant cache %s (quota %d, %s) over %s, %d files, guaranteed shares",
		cfg.root, cfg.quota, access, cfg.pfs, m.NumFiles())
	for _, tc := range tenants {
		banner += fmt.Sprintf(" %s=%.0f%%", tc.Job, tc.Share*100)
	}
	return &mode{
		backend: &monarchBackend{m: m, tier0: tier0, writable: cfg.write},
		// The middleware registry already carries the per-job fairness
		// series (monarch_job_read_ops_total, monarch_job_tier_used_bytes,
		// monarch_job_tier_quota_bytes, ...); serve it as-is.
		reg:    m.Registry(),
		health: m.Healthz,
		jobs: func() map[string]peernet.JobCounters {
			jobs := map[string]peernet.JobCounters{}
			for job, js := range m.Stats().Jobs {
				jobs[job] = peernet.JobCounters(js) // field for field; the wire type adds the JSON names
			}
			return jobs
		},
		banner: banner,
		close: func() {
			close(stop)
			ticking.Wait()
			m.Close()
		},
	}, nil
}
