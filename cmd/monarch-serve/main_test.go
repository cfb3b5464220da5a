package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"monarch"
	"monarch/internal/obs"
	"monarch/internal/obs/cluster"
	"monarch/internal/peernet"
	"monarch/internal/storage"
)

// tmpDirs builds a valid cache root and a dataset dir with one file per
// job, so startup tests fail on exactly the path under test.
func tmpDirs(t *testing.T) (root, pfs string) {
	t.Helper()
	root = t.TempDir()
	pfs = t.TempDir()
	for _, name := range []string{"jobA/f0", "jobB/f0"} {
		p := filepath.Join(pfs, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, make([]byte, 64), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root, pfs
}

func TestParseJobs(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    int
		wantErr string
	}{
		{spec: "jobA=0.5,jobB=0.3", want: 2},
		{spec: " jobA=0.5 , jobB=0.3 ", want: 2},
		{spec: "jobA=0.5,", want: 1},
		{spec: "", wantErr: "empty"},
		{spec: "jobA", wantErr: "want job=share"},
		{spec: "=0.5", wantErr: "want job=share"},
		{spec: "jobA=", wantErr: "want job=share"},
		{spec: "jobA=half", wantErr: "bad -jobs share"},
	} {
		tenants, err := parseJobs(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseJobs(%q) err = %v, want containing %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseJobs(%q): %v", tc.spec, err)
			continue
		}
		if len(tenants) != tc.want {
			t.Errorf("parseJobs(%q) = %d tenants, want %d", tc.spec, len(tenants), tc.want)
		}
	}
}

// TestServeConfigValidate covers the flag-conflict matrix: every
// misconfiguration must be rejected up front with a message naming the
// offending flag, before any directory or socket is touched.
func TestServeConfigValidate(t *testing.T) {
	base := serveConfig{addr: ":0", root: "/r", quota: 1 << 20, replicas: 1}
	for _, tc := range []struct {
		name    string
		mutate  func(*serveConfig)
		wantErr string
	}{
		{"ok plain", func(c *serveConfig) {}, ""},
		{"ok tenant", func(c *serveConfig) { c.jobs = "a=0.5"; c.pfs = "/d" }, ""},
		{"bad replicas", func(c *serveConfig) { c.replicas = 0 }, "-replicas"},
		{"self without peers", func(c *serveConfig) { c.self = "n0" }, "-self and -peers"},
		{"peers without self", func(c *serveConfig) { c.peers = "n1=h:1" }, "-self and -peers"},
		{"jobs without pfs", func(c *serveConfig) { c.jobs = "a=0.5" }, "-jobs needs -pfs"},
		{"pfs without jobs", func(c *serveConfig) { c.pfs = "/d" }, "-pfs needs -jobs"},
		{"jobs with unlimited quota", func(c *serveConfig) { c.jobs = "a=0.5"; c.pfs = "/d"; c.quota = 0 }, "conflicting -quota"},
		{"jobs with gossip", func(c *serveConfig) { c.jobs = "a=0.5"; c.pfs = "/d"; c.self = "n0"; c.peers = "n1=h:1" }, ""},
		{"jobs with write", func(c *serveConfig) { c.jobs = "a=0.5"; c.pfs = "/d"; c.write = true }, ""},
		{"jobs with write and journal", func(c *serveConfig) {
			c.jobs = "a=0.5"
			c.pfs = "/d"
			c.write = true
			c.journal = "/j/wal.mj"
		}, ""},
		{"journal without write", func(c *serveConfig) { c.jobs = "a=0.5"; c.pfs = "/d"; c.journal = "/j/wal.mj" }, "-journal needs -write"},
		{"journal in plain mode", func(c *serveConfig) { c.write = true; c.journal = "/j/wal.mj" }, "-journal needs -jobs"},
		{"jobs bad spec", func(c *serveConfig) { c.jobs = "a=x"; c.pfs = "/d" }, "bad -jobs share"},
	} {
		cfg := base
		tc.mutate(&cfg)
		err := cfg.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestServeStartupFailures drives serve() itself through the startup
// failure paths: each run must return an error (never hang, never
// partially start) when a directory is missing or an address cannot be
// bound. A timeout guards against a misconfiguration that blocks in
// the serve loop instead of failing.
func TestServeStartupFailures(t *testing.T) {
	root, pfs := tmpDirs(t)
	file := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  serveConfig
	}{
		{"bad addr", serveConfig{addr: "localhost:notaport", root: root, replicas: 1}},
		{"missing root", serveConfig{addr: ":0", root: filepath.Join(root, "no/such/dir"), replicas: 1}},
		{"root is a file", serveConfig{addr: ":0", root: file, replicas: 1}},
		{"tenant bad addr", serveConfig{addr: "localhost:notaport", root: root, quota: 1 << 20,
			replicas: 1, pfs: pfs, jobs: "jobA=0.5,jobB=0.3"}},
		{"tenant missing pfs dir", serveConfig{addr: ":0", root: root, quota: 1 << 20,
			replicas: 1, pfs: filepath.Join(pfs, "nope"), jobs: "jobA=0.5"}},
		{"tenant share out of range", serveConfig{addr: ":0", root: root, quota: 1 << 20,
			replicas: 1, pfs: pfs, jobs: "jobA=1.5"}},
		{"tenant shares oversubscribed", serveConfig{addr: ":0", root: root, quota: 1 << 20,
			replicas: 1, pfs: pfs, jobs: "jobA=0.7,jobB=0.7"}},
		{"tenant duplicate job", serveConfig{addr: ":0", root: root, quota: 1 << 20,
			replicas: 1, pfs: pfs, jobs: "jobA=0.3,jobA=0.3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errc := make(chan error, 1)
			go func() { errc <- serve(context.Background(), tc.cfg) }()
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("serve() succeeded on a broken configuration")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("serve() hung instead of failing startup")
			}
		})
	}
}

// freeAddrs reserves n distinct loopback addresses and releases them for
// the daemons under test to bind: two nodes that name each other in
// -peers need their addresses before either is up.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// settledGoroutines waits up to timeout for the goroutine count to come
// down to limit — connection teardown is asynchronous — and returns the
// last count it saw.
func settledGoroutines(limit int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= limit || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeBothModes starts two real daemons — n0 plain, n1 a tenant
// node — that gossip with each other, and holds both to the one node
// contract: READ round-trips, the STATS frame is answered under -self
// with a gossip view (and the job ledger, where there are jobs),
// /debug/gossip and /healthz carry the view, the fleet routes merge the
// two nodes under their own names, and cancelling the context returns
// serve with no goroutine left behind.
func TestServeBothModes(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	tenantRoot, pfs := tmpDirs(t)
	plainRoot := t.TempDir()
	if err := os.WriteFile(filepath.Join(plainRoot, "shard"), []byte("cached bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	addrs := freeAddrs(t, 4)
	nodes := []struct {
		cfg  serveConfig
		file string
		want []byte
		job  string // a job the READ must move the ledger of; "" on a node without tenants
	}{
		{cfg: serveConfig{addr: addrs[0], metrics: addrs[2], root: plainRoot,
			self: "n0", peers: "n1=" + addrs[1]}, file: "shard", want: []byte("cached bytes")},
		{cfg: serveConfig{addr: addrs[1], metrics: addrs[3], root: tenantRoot, quota: 1 << 20,
			pfs: pfs, jobs: "jobA=0.5,jobB=0.3", epochEvery: 20 * time.Millisecond,
			self: "n1", peers: "n0=" + addrs[0]}, file: "jobA/f0", want: make([]byte, 64), job: "jobA"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, len(nodes))
	for _, n := range nodes {
		cfg := n.cfg
		cfg.replicas, cfg.heartbeat, cfg.suspectAfter, cfg.deadAfter = 1, 20*time.Millisecond, time.Second, 3*time.Second
		go func() { errc <- serve(ctx, cfg) }()
	}
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	get := func(addr, path string) string {
		t.Helper()
		resp, err := hc.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", addr, path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s%s: %s: %s", addr, path, resp.Status, body)
		}
		return string(body)
	}

	for i, n := range nodes {
		other := nodes[1-i].cfg.self
		c, err := peernet.NewClient(peernet.ClientConfig{Dial: peernet.TCPDialer(n.cfg.addr, time.Second)})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// The daemon is up once its wire listener answers.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if err = c.Ping(ctx); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never came up: %v", n.cfg.self, err)
			}
		}
		buf := make([]byte, len(n.want))
		if got, err := c.ReadAt(ctx, n.file, buf, 0); err != nil || !bytes.Equal(buf[:got], n.want) {
			t.Errorf("%s: READ %s = %q, %v", n.cfg.self, n.file, buf[:got], err)
		}
		ns, err := c.Stats(ctx)
		if err != nil {
			t.Fatalf("%s: STATS: %v", n.cfg.self, err)
		}
		if ns.Node != n.cfg.self {
			t.Errorf("STATS answered as %q, want -self %q", ns.Node, n.cfg.self)
		}
		if len(ns.Gossip) != 1 || ns.Gossip[0].Node != other {
			t.Errorf("%s: STATS gossip view %+v, want one opinion, of %s", n.cfg.self, ns.Gossip, other)
		}
		if n.job == "" && len(ns.Jobs) != 0 || n.job != "" && ns.Jobs[n.job].ReadsServed == 0 {
			t.Errorf("%s: STATS job ledger %+v after a read of %s", n.cfg.self, ns.Jobs, n.file)
		}
		if len(ns.Metrics.Metrics) == 0 {
			t.Errorf("%s: STATS carries an empty registry", n.cfg.self)
		}

		if body := get(n.cfg.metrics, "/debug/gossip"); strings.Contains(body, "disabled") ||
			!strings.Contains(body, `"self": "`+n.cfg.self+`"`) || !strings.Contains(body, `"`+other+`": `) {
			t.Errorf("%s: /debug/gossip = %s", n.cfg.self, body)
		}
		var h obs.Health
		if err := json.Unmarshal([]byte(get(n.cfg.metrics, "/healthz")), &h); err != nil || h.Status != "ok" || h.Gossip[other] == "" {
			t.Errorf("%s: /healthz = %+v (err=%v), want ok with an opinion of %s", n.cfg.self, h, err, other)
		}
		if n.job != "" && len(h.Tiers) == 0 {
			t.Errorf("%s: /healthz lost the middleware's tiers: %+v", n.cfg.self, h)
		}
	}
	// The fleet routes, asked of either node once both are up, merge the
	// two under their own names — not both under "monarch-serve".
	for _, n := range nodes {
		var snap cluster.Snapshot
		if err := json.Unmarshal([]byte(get(n.cfg.metrics, "/cluster.json")), &snap); err != nil {
			t.Fatalf("%s: /cluster.json: %v", n.cfg.self, err)
		}
		if len(snap.Nodes) != 2 || snap.Nodes[0].Node != "n0" || snap.Nodes[1].Node != "n1" || snap.Jobs["jobA"].ReadsServed == 0 {
			t.Errorf("%s: fleet view has nodes %+v (unreachable %v), jobs %+v; want n0 and n1 and jobA's read",
				n.cfg.self, snap.Nodes, snap.Unreachable, snap.Jobs)
		}
	}

	cancel()
	for range nodes {
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("serve returned %v after its context ended", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("serve did not return after its context ended")
		}
	}
	hc.CloseIdleConnections()
	if n := settledGoroutines(goroutinesBefore, 5*time.Second); n > goroutinesBefore {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the daemons, %d after they returned:\n%s", goroutinesBefore, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestMonarchBackendWrite covers the writable tenant adapter: remote
// WRITE is whole-file PUT through Create+WriteAt (including replace),
// REMOVE distinguishes ghosts from dataset files, and the read-only
// adapter rejects every mutation — the exact semantics the peernet
// server relays onto the wire.
func TestMonarchBackendWrite(t *testing.T) {
	ctx := context.Background()
	pfs := monarch.NewMemFS("lustre", 0)
	if err := pfs.WriteFile(ctx, "jobA/f0", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	tier0 := monarch.NewMemFS("ssd", 1<<20)
	m, err := monarch.New(monarch.Config{
		Levels:        []monarch.Backend{tier0, pfs},
		Pool:          monarch.NewPool(2),
		FullFileFetch: true,
		Write: monarch.WriteConfig{
			Enabled:    true,
			Durability: func(string) monarch.Durability { return monarch.WriteBack },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	b := &monarchBackend{m: m, tier0: tier0, writable: true}

	if err := b.WriteFile(ctx, "ckpt/s0", []byte("checkpoint v1")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := b.ReadFile(ctx, "ckpt/s0")
	if err != nil || !bytes.Equal(got, []byte("checkpoint v1")) {
		t.Fatalf("readback: %q err=%v", got, err)
	}
	// Whole-file PUT replaces, including a size change.
	if err := b.WriteFile(ctx, "ckpt/s0", []byte("v2")); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if got, _ = b.ReadFile(ctx, "ckpt/s0"); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("after replace: %q", got)
	}
	// Dataset files are read-only in every mode.
	if err := b.WriteFile(ctx, "jobA/f0", []byte("clobber")); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("dataset write: %v, want ErrReadOnly", err)
	}
	if err := b.Remove(ctx, "jobA/f0"); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("dataset remove: %v, want ErrReadOnly", err)
	}
	// Ghosts surface as ErrNotExist, not read-only.
	if err := b.Remove(ctx, "ckpt/ghost"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("ghost remove: %v, want ErrNotExist", err)
	}
	if err := b.Remove(ctx, "ckpt/s0"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := b.ReadFile(ctx, "ckpt/s0"); err == nil {
		t.Fatal("removed file still readable")
	}

	ro := &monarchBackend{m: m, tier0: tier0}
	if err := ro.WriteFile(ctx, "ckpt/s1", []byte("x")); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("read-only write: %v, want ErrReadOnly", err)
	}
	if err := ro.Remove(ctx, "ckpt/s1"); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("read-only remove: %v, want ErrReadOnly", err)
	}
}
