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
//	monarch-serve -crashsmoke                         # write-back crash/recovery smoke
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
// crash-safe WAL hold the bytes, and a background flusher retires them
// to the PFS; without -journal writes are write-through (the PFS has
// the bytes before the ack). Dataset files stay read-only either way.
//
// -crashsmoke is the write-path drill behind `make crash-smoke`: the
// parent re-execs itself as a child that bursts journaled write-back
// chunks into a scratch stack and prints an ACK line per landed write;
// the parent SIGKILLs it mid-burst, reopens the same directories (WAL
// replay), and verifies every acked byte back byte-for-byte.
//
// With -self and -peers the node joins the gossip membership: it
// heartbeats every sibling over the same wire protocol (views ride
// PING frames), answers inbound heartbeats with its own view, logs
// liveness transitions, and exposes per-peer state gauges on -metrics.
// -replicas records the replica-set width R the cluster's rings run
// with (consumers derive ownership from OwnersOf(name, R); every node
// must agree on R).
//
// The peer network's own end-to-end checks — sibling hits, fleet totals
// against per-node sums, kill and rejoin under replication, request-ID
// stitching, no goroutine left behind — live in the ext-peernet
// experiment (go run ./cmd/monarch-bench -exp ext-peernet).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"monarch"

	"monarch/internal/obs"
	"monarch/internal/obs/cluster"
	"monarch/internal/peernet"
	"monarch/internal/storage"
)

func main() {
	var (
		addr     = flag.String("addr", ":9077", "listen address for the peer wire protocol")
		root     = flag.String("root", "", "cache directory to serve")
		quota    = flag.Int64("quota", 0, "capacity the store reports, in bytes (0 = unlimited)")
		write    = flag.Bool("write", false, "accept remote WRITE/REMOVE (default read-only)")
		journal  = flag.String("journal", "", "crash-safe WAL path for write-back acks (tenant mode with -write)")
		metrics  = flag.String("metrics", "", "optional address serving /metrics for this store")
		crash    = flag.Bool("crashsmoke", false, "run the write-back crash/recovery smoke test and exit")
		crashDir = flag.String("crashsmoke-child", "", "internal: run as the crash-smoke burst child in this directory")

		self     = flag.String("self", "", "this node's ring ID (enables gossip membership with -peers)")
		peers    = flag.String("peers", "", "comma-separated sibling servers, id=host:port each")
		replicas = flag.Int("replicas", 1, "replica-set width R the cluster's ownership rings use")
		hbEvery  = flag.Duration("heartbeat", 250*time.Millisecond, "gossip heartbeat interval")
		suspect  = flag.Duration("suspect-after", time.Second, "silence before a peer turns Suspect")
		dead     = flag.Duration("dead-after", 3*time.Second, "silence before a peer turns Dead")

		pfs     = flag.String("pfs", "", "read-only dataset directory (enables multi-tenant mode with -jobs)")
		jobs    = flag.String("jobs", "", "per-job quota shares, job=share each (e.g. jobA=0.5,jobB=0.3)")
		epochEv = flag.Duration("epoch-every", time.Minute, "wall-clock epoch length driving heat decay in tenant mode (0 = never decay)")
	)
	flag.Parse()

	if *crashDir != "" {
		os.Exit(runCrashChild(*crashDir))
	}
	if *crash {
		os.Exit(runCrashSmoke())
	}
	if *root == "" {
		fmt.Fprintln(os.Stderr, "monarch-serve: -root is required")
		os.Exit(2)
	}
	cfg := serveConfig{
		addr: *addr, root: *root, quota: *quota, write: *write, journal: *journal, metrics: *metrics,
		self: *self, peers: *peers, replicas: *replicas,
		heartbeat: *hbEvery, suspectAfter: *suspect, deadAfter: *dead,
		pfs: *pfs, jobs: *jobs, epochEvery: *epochEv,
	}
	if err := serve(cfg); err != nil {
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

// gossipEntries renders a membership view as STATS-frame gossip
// entries, sorted by node for deterministic output. Nil membership
// (no -self/-peers) yields nil.
func gossipEntries(mem *peernet.Membership) []peernet.GossipEntry {
	if mem == nil {
		return nil
	}
	snap := mem.Snapshot()
	entries := make([]peernet.GossipEntry, 0, len(snap))
	for peer, st := range snap {
		entries = append(entries, peernet.GossipEntry{Node: peer, State: st.String()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Node < entries[j].Node })
	return entries
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
		view := map[string]string{}
		for peer, st := range mem.Snapshot() {
			view[peer] = st.String()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"self": mem.Self(), "peers": view})
	})
}

func serve(cfg serveConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.jobs != "" {
		return serveTenants(cfg)
	}
	store, err := storage.NewOSFS("tier0", cfg.root, cfg.quota)
	if err != nil {
		return err
	}

	// Gossip membership: requires both -self and -peers.
	var mem *peernet.Membership
	var hb *peernet.Heartbeater
	var peerIDs []string
	clients := map[string]*peernet.Client{}
	if cfg.self != "" {
		ids, addrs, err := parsePeers(cfg.peers)
		if err != nil {
			return err
		}
		peerIDs = ids
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
		}
		hb, err = peernet.NewHeartbeater(mem, clients, cfg.heartbeat)
		if err != nil {
			return err
		}
	}

	// The registry exists whether or not -metrics serves it: the STATS
	// frame answers with its snapshot either way, so a fleet aggregator
	// on any sibling can poll this node.
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg, time.Now())
	reg.GaugeFunc("monarch_serve_capacity_bytes",
		"Capacity the served store reports (0 = unlimited).",
		func() float64 { return float64(store.Capacity()) })
	reg.GaugeFunc("monarch_serve_used_bytes",
		"Bytes currently held by the served store.",
		func() float64 { return float64(store.Used()) })
	reg.GaugeFunc("monarch_serve_replicas",
		"Replica-set width R the cluster's ownership rings run with.",
		func() float64 { return float64(cfg.replicas) })
	if mem != nil {
		mem.Instrument(reg)
	}
	nodeName := cfg.self
	if nodeName == "" {
		nodeName = "monarch-serve"
	}
	statsFn := func() (peernet.NodeStats, error) {
		ns := peernet.NodeStats{Node: nodeName, Metrics: reg.Snapshot()}
		ns.Gossip = gossipEntries(mem)
		return ns, nil
	}

	n := node{
		backend: store,
		mem:     mem,
		reg:     reg,
		stats:   statsFn,
		health: func() obs.Health {
			h := obs.Health{}
			if mem != nil {
				h.Gossip = map[string]string{}
				for peer, st := range mem.Snapshot() {
					h.Gossip[peer] = st.String()
				}
			}
			return h
		},
		banner: func(addr net.Addr) {
			mode := "read-only"
			if cfg.write {
				mode = "read-write"
			}
			fmt.Printf("monarch-serve: serving %s (%s) on %s\n", cfg.root, mode, addr)
			if mem != nil {
				fmt.Printf("monarch-serve: gossip as %s with %d peers, R=%d, heartbeat %v (suspect %v, dead %v)\n",
					cfg.self, len(mem.Snapshot()), cfg.replicas, cfg.heartbeat, cfg.suspectAfter, cfg.deadAfter)
			}
		},
	}
	if mem != nil {
		hb.Start()
		defer hb.Stop()
		if cfg.metrics != "" {
			// The gossip clients double as fleet-stats sources: the
			// aggregator polls every sibling's STATS frame per scrape and
			// serves the merged view from this node.
			var sources []cluster.Source
			for _, id := range peerIDs {
				sources = append(sources, cluster.Source{Node: id, Client: clients[id]})
			}
			n.routes = cluster.New(cluster.Config{Self: statsFn, Sources: sources}).Routes()
		}
	}
	return cfg.run(n)
}

// node is what a mode assembles for the serve loop both modes share.
type node struct {
	backend storage.Backend
	mem     *peernet.Membership // nil without gossip
	reg     *obs.Registry       // answers STATS frames whether or not -metrics serves it
	stats   func() (peernet.NodeStats, error)
	health  func() obs.Health
	routes  map[string]http.Handler // on the metrics mux, beside /debug/gossip
	banner  func(addr net.Addr)     // printed once the wire listener is up
}

// run serves n over the peer wire protocol, and its registry on
// -metrics, until SIGINT/SIGTERM; then it closes connections and
// drains.
func (cfg serveConfig) run(n node) error {
	srv, err := peernet.NewServer(peernet.ServerConfig{
		Backend:    n.backend,
		AllowWrite: cfg.write,
		Membership: n.mem,
		Stats:      n.stats,
		Logf:       func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	n.banner(ln.Addr())
	if cfg.metrics != "" {
		routes := map[string]http.Handler{"/debug/gossip": gossipHandler(n.mem)}
		for pattern, h := range n.routes {
			routes[pattern] = h
		}
		mln, err := net.Listen("tcp", cfg.metrics)
		if err != nil {
			return err
		}
		fmt.Printf("monarch-serve: metrics on http://%s/metrics\n", mln.Addr())
		handler := n.reg.HandlerWith(obs.HandlerOpts{Health: n.health, Routes: routes})
		go func() { _ = http.Serve(mln, handler) }()
	}
	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-done
		fmt.Println("monarch-serve: shutting down")
		srv.Close()
	}()
	return srv.Serve(ln)
}

// monarchBackend adapts a middleware instance to the storage.Backend
// surface the peernet server speaks, so remote reads flow through the
// full MONARCH read path — heating files, triggering placements and
// evictions, moving per-job counters — instead of hitting the cache
// directory raw. With writable set (-write), remote WRITE/REMOVE flow
// through the write path the same way: a WRITE is Create+WriteAt on
// the managed namespace (acked per the configured durability), a
// REMOVE tears the file down everywhere. Dataset files remain
// read-only in every mode.
type monarchBackend struct {
	m        *monarch.Monarch
	tier0    monarch.Backend
	writable bool
}

func (b *monarchBackend) Name() string { return "tenant" }
func (b *monarchBackend) List(ctx context.Context) ([]storage.FileInfo, error) {
	return b.m.Files(), nil
}
func (b *monarchBackend) Stat(ctx context.Context, name string) (storage.FileInfo, error) {
	return b.m.Stat(name)
}
func (b *monarchBackend) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	return b.m.ReadAt(ctx, name, p, off)
}
func (b *monarchBackend) ReadFile(ctx context.Context, name string) ([]byte, error) {
	return b.m.ReadFull(ctx, name)
}
func (b *monarchBackend) WriteFile(ctx context.Context, name string, data []byte) error {
	if !b.writable {
		return storage.ErrReadOnly
	}
	// Whole-file PUT semantics, like every other backend: a WRITE of an
	// existing writable file replaces it. Dataset files fail the inner
	// Remove with ErrNotWritable, surfaced as read-only on the wire.
	err := b.m.Create(ctx, name, int64(len(data)))
	if errors.Is(err, storage.ErrExist) {
		if rerr := b.m.Remove(ctx, name); rerr != nil {
			return writeErr(rerr)
		}
		err = b.m.Create(ctx, name, int64(len(data)))
	}
	if err != nil {
		return writeErr(err)
	}
	if len(data) == 0 {
		return nil
	}
	_, err = b.m.WriteAt(ctx, name, data, 0)
	return writeErr(err)
}
func (b *monarchBackend) Remove(ctx context.Context, name string) error {
	if !b.writable {
		return storage.ErrReadOnly
	}
	err := b.m.Remove(ctx, name)
	if errors.Is(err, monarch.ErrNotWritable) {
		// Distinguish "no such file" (ErrNotExist on the wire) from
		// "that's the dataset" (read-only on the wire).
		if _, serr := b.m.Stat(name); serr != nil {
			return fmt.Errorf("%w: %s", storage.ErrNotExist, name)
		}
	}
	return writeErr(err)
}

// writeErr maps the middleware's write sentinels onto the storage
// sentinels the wire protocol can carry: a dataset file is read-only
// from a peer's point of view, not an internal error.
func writeErr(err error) error {
	if errors.Is(err, monarch.ErrNotWritable) {
		return fmt.Errorf("%w: %v", storage.ErrReadOnly, err)
	}
	return err
}
func (b *monarchBackend) Capacity() int64 { return b.tier0.Capacity() }
func (b *monarchBackend) Used() int64     { return b.tier0.Used() }

// serveTenants runs the multi-tenant daemon: a MONARCH instance
// managing -root as the cache tier over the read-only -pfs dataset,
// heat-driven eviction on, -jobs shares enforced, served over the
// peernet wire protocol. A wall-clock ticker stands in for the
// training loop's MarkEpoch calls to drive heat decay.
func serveTenants(cfg serveConfig) error {
	tenants, err := parseJobs(cfg.jobs)
	if err != nil {
		return err
	}
	tier0, err := storage.NewOSFS("ssd", cfg.root, cfg.quota)
	if err != nil {
		return fmt.Errorf("-root: %w", err)
	}
	pfs, err := storage.NewOSFS("pfs", cfg.pfs, 0)
	if err != nil {
		return fmt.Errorf("-pfs: %w", err)
	}
	mcfg := monarch.Config{
		Levels:        []monarch.Backend{tier0, pfs},
		Pool:          monarch.NewPool(4),
		FullFileFetch: true,
		Eviction:      monarch.NewHeatPolicy(monarch.HeatConfig{}),
		JobOf:         monarch.JobFromPath,
		Tenants:       tenants,
	}
	if cfg.write {
		// Remote WRITE/REMOVE flow through the write path. With a WAL
		// the whole namespace acks write-back (tier 0 + journal, async
		// flush); without one, write-through keeps acks durable on the
		// PFS at full PFS latency.
		mcfg.Write = monarch.WriteConfig{Enabled: true, JournalPath: cfg.journal}
		if cfg.journal != "" {
			mcfg.Write.Durability = func(string) monarch.Durability { return monarch.WriteBack }
		}
	}
	m, err := monarch.New(mcfg)
	if err != nil {
		return err
	}
	defer m.Close()
	if err := m.Init(context.Background()); err != nil {
		return fmt.Errorf("building namespace from %s: %w", cfg.pfs, err)
	}

	if cfg.epochEvery > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
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
	return cfg.run(node{
		backend: &monarchBackend{m: m, tier0: tier0, writable: cfg.write},
		// The middleware registry already carries the per-job fairness
		// series (monarch_job_read_ops_total, monarch_job_tier_used_bytes,
		// monarch_job_tier_quota_bytes, ...); serve it as-is.
		reg:    m.Registry(),
		health: m.Healthz,
		stats: func() (peernet.NodeStats, error) {
			ns := peernet.NodeStats{Node: "monarch-serve", Metrics: m.Registry().Snapshot()}
			if jobs := m.Stats().Jobs; len(jobs) > 0 {
				ns.Jobs = make(map[string]peernet.JobCounters, len(jobs))
				for job, js := range jobs {
					ns.Jobs[job] = peernet.JobCounters{
						ReadsServed: js.ReadsServed,
						BytesServed: js.BytesServed,
						Hits:        js.Hits,
						Evictions:   js.Evictions,
					}
				}
			}
			return ns, nil
		},
		banner: func(addr net.Addr) {
			mode := "read-only"
			if cfg.write {
				mode = "read-write (write-through)"
				if cfg.journal != "" {
					mode = "read-write (write-back, WAL " + cfg.journal + ")"
				}
			}
			fmt.Printf("monarch-serve: multi-tenant cache %s (quota %d, %s) over %s on %s, %d files\n",
				cfg.root, cfg.quota, mode, cfg.pfs, addr, m.NumFiles())
			for _, tc := range tenants {
				fmt.Printf("monarch-serve:   tenant %s guaranteed %.0f%% of the cache tier\n", tc.Job, tc.Share*100)
			}
		},
	})
}

// Crash-smoke geometry, shared by the parent and the re-exec'd child.
const (
	crashFiles     = 4
	crashFileSize  = 256 << 10
	crashChunk     = 4 << 10
	crashKillAfter = 64 // ACKed chunks the parent waits for before SIGKILL
)

func crashName(i int) string { return fmt.Sprintf("ckpt/shard-%d", i) }

// crashPattern is the byte filling chunk k of file i. It depends on
// the position alone, so overwrites are idempotent and the parent can
// verify any acked chunk without knowing how far past its last-read
// ACK the child got before the kill landed.
func crashPattern(i int, k int64) byte { return byte((i*53+int(k)*17)%251 + 1) }

// slowFlushFS delays the flusher's landing ops — WriteAt for dirty
// ranges, WriteFile for a whole-file claim — so a SIGKILLed burst
// reliably dies with acked-but-unflushed bytes, forcing the reopen to
// actually replay the WAL instead of finding an already-clean PFS.
type slowFlushFS struct {
	monarch.Backend
	delay time.Duration
}

func (s *slowFlushFS) WriteFile(ctx context.Context, name string, data []byte) error {
	time.Sleep(s.delay)
	return s.Backend.WriteFile(ctx, name, data)
}

// Allocate forwards undelayed: it lands no bytes.
func (s *slowFlushFS) Allocate(ctx context.Context, name string, size int64) error {
	rw, ok := s.Backend.(monarch.RangeWriter)
	if !ok {
		return errors.ErrUnsupported
	}
	return rw.Allocate(ctx, name, size)
}

func (s *slowFlushFS) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	rw, ok := s.Backend.(monarch.RangeWriter)
	if !ok {
		return 0, errors.ErrUnsupported
	}
	time.Sleep(s.delay)
	return rw.WriteAt(ctx, name, p, off)
}

// crashStack opens the middleware over the smoke directory's scratch
// tier-0/PFS pair with journaled write-back on. The child slows the
// flusher; the verifying parent does not.
func crashStack(dir string, slow bool) (*monarch.Monarch, error) {
	tier0, err := monarch.NewOSFS("ssd", filepath.Join(dir, "tier0"), 0)
	if err != nil {
		return nil, err
	}
	var pfs monarch.Backend
	pfs, err = monarch.NewOSFS("lustre", filepath.Join(dir, "pfs"), 0)
	if err != nil {
		return nil, err
	}
	if slow {
		pfs = &slowFlushFS{Backend: pfs, delay: 50 * time.Millisecond}
	}
	m, err := monarch.New(monarch.Config{
		Levels:        []monarch.Backend{tier0, pfs},
		Pool:          monarch.NewPool(2),
		FullFileFetch: true,
		Write: monarch.WriteConfig{
			Enabled:      true,
			Durability:   func(string) monarch.Durability { return monarch.WriteBack },
			JournalPath:  filepath.Join(dir, "wal.mj"),
			FlushWorkers: 1,
		},
	})
	if err != nil {
		return nil, err
	}
	if err := m.Init(context.Background()); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// runCrashChild is the burst half of -crashsmoke: journaled write-back
// chunks as fast as they ack, one "ACK seq file off len" line per
// landed write. It runs until the parent kills it.
func runCrashChild(dir string) int {
	ctx := context.Background()
	m, err := crashStack(dir, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashsmoke child:", err)
		return 1
	}
	for i := 0; i < crashFiles; i++ {
		if err := m.Create(ctx, crashName(i), crashFileSize); err != nil {
			fmt.Fprintln(os.Stderr, "crashsmoke child:", err)
			return 1
		}
	}
	buf := make([]byte, crashChunk)
	for seq := 0; ; seq++ {
		i := seq % crashFiles
		off := (int64(seq/crashFiles) * crashChunk) % crashFileSize
		p := crashPattern(i, off/crashChunk)
		for j := range buf {
			buf[j] = p
		}
		if _, err := m.WriteAt(ctx, crashName(i), buf, off); err != nil {
			fmt.Fprintln(os.Stderr, "crashsmoke child:", err)
			return 1
		}
		// One unbuffered line per acked write: once the parent has read
		// it, the bytes are covered by the durability contract.
		fmt.Printf("ACK %d %s %d %d\n", seq, crashName(i), off, len(buf))
	}
}

// runCrashSmoke drives the write-back burst → SIGKILL → reopen →
// verify drill end to end over real directories and a real process
// kill: every write the child acked before dying must read back
// byte-identical after WAL replay.
func runCrashSmoke() int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "monarch-serve crashsmoke: FAIL: "+format+"\n", args...)
		return 1
	}
	dir, err := os.MkdirTemp("", "monarch-crashsmoke-")
	if err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(dir)
	for _, sub := range []string{"tier0", "pfs"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return fail("%v", err)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail("%v", err)
	}
	child := exec.Command(exe, "-crashsmoke-child", dir)
	child.Stderr = os.Stderr
	out, err := child.StdoutPipe()
	if err != nil {
		return fail("%v", err)
	}
	if err := child.Start(); err != nil {
		return fail("starting child: %v", err)
	}
	type ack struct {
		file string
		off  int64
	}
	var acks []ack
	sc := bufio.NewScanner(out)
	for len(acks) < crashKillAfter && sc.Scan() {
		var seq, size int
		var name string
		var off int64
		if _, err := fmt.Sscanf(sc.Text(), "ACK %d %s %d %d", &seq, &name, &off, &size); err != nil {
			continue
		}
		acks = append(acks, ack{file: name, off: off})
	}
	if len(acks) < crashKillAfter {
		_ = child.Process.Kill()
		_ = child.Wait()
		return fail("child produced %d/%d ACKs before exiting", len(acks), crashKillAfter)
	}
	// kill -9 mid-burst: no shutdown hook runs, the journal is all
	// that stands between the acked bytes and the void.
	if err := child.Process.Kill(); err != nil {
		return fail("killing child: %v", err)
	}
	_ = child.Wait()
	fmt.Printf("monarch-serve crashsmoke: killed the burst after %d acked chunks (%d KiB)\n",
		len(acks), len(acks)*crashChunk/1024)

	m, err := crashStack(dir, false)
	if err != nil {
		return fail("reopen: %v", err)
	}
	defer m.Close()
	st := m.Stats()
	if st.RecoveredFiles == 0 {
		return fail("reopen recovered nothing — the burst flushed everything before the kill, no WAL replay was exercised")
	}
	ctx := context.Background()
	buf := make([]byte, crashChunk)
	for _, a := range acks {
		var i int
		if _, err := fmt.Sscanf(a.file, "ckpt/shard-%d", &i); err != nil {
			return fail("unparseable ACK file %q", a.file)
		}
		if _, err := m.ReadAt(ctx, a.file, buf, a.off); err != nil {
			return fail("reading back %s@%d: %v", a.file, a.off, err)
		}
		want := crashPattern(i, a.off/crashChunk)
		for j, b := range buf {
			if b != want {
				return fail("acked byte lost: %s@%d[%d] = %#x, want %#x",
					a.file, a.off, j, b, want)
			}
		}
	}
	fmt.Printf("monarch-serve crashsmoke: recovered %d file(s) from the WAL, all %d acked chunks byte-identical\n",
		st.RecoveredFiles, len(acks))
	fmt.Println("monarch-serve crashsmoke: OK")
	return 0
}
