package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"monarch/internal/core"
	"monarch/internal/dataset"
	"monarch/internal/obs"
	"monarch/internal/peernet"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// node is one compute node of the real stack: a Monarch over an OSFS
// tier 0 and the shared PFS, with a peer tier between them when the
// workload has two nodes.
type node struct {
	name  string
	m     *core.Monarch
	tier0 *storage.OSFS
	owns  func(shard string) bool

	srv     *peernet.Server
	served  sync.WaitGroup // the Serve goroutine
	tier    *peernet.Tier
	clients []*peernet.Client

	journalPath string
	initTime    time.Duration
	hook        *hookLog // Config.Trace, traced runs only
}

// stack is everything one repetition builds: the dataset on the PFS
// directory, the throttle in front of it, and the node or nodes.
type stack struct {
	dir      string
	w        workload
	sz       sizes
	manifest *dataset.Manifest
	pfsDir   *storage.OSFS
	pfs      *throttle
	nodes    []*node
	setup    time.Duration
	// journalCopy is the write journal as it was between a burst's last
	// ack and its flush; a traced run replays it after the window.
	journalCopy string

	// Traced runs only. The byte and socket counters are per layer, not
	// per node: with two nodes both tier-0 shims count into tier0IO.
	rec           *recorder
	tier0IO       *ioBytes
	sock, srvSock *sockStats
}

// hookLog is the benchmark's Config.Trace hook: it keeps the spans the
// per-layer metrics need and drops the rest. Hooks run on the
// instrumented path, so this only appends under a mutex.
type hookLog struct {
	base time.Time

	mu            sync.Mutex
	placements    []float64 // enqueue-to-landed, ns
	flushes       []float64 // per-file background flush, ns
	flushedBytes  int64
	firstLocalHit time.Duration // since base; 0 until a tier-0 read is served
}

func (h *hookLog) hook(s obs.Span) {
	switch s.Kind {
	case obs.SpanPlacement:
		if s.Err == nil {
			h.mu.Lock()
			h.placements = append(h.placements, float64(s.Duration))
			h.mu.Unlock()
		}
	case obs.SpanFlush:
		if s.Err == nil {
			h.mu.Lock()
			h.flushes = append(h.flushes, float64(s.Duration))
			h.flushedBytes += s.Bytes
			h.mu.Unlock()
		}
	case obs.SpanRead:
		if s.Tier == 0 && s.Err == nil {
			h.mu.Lock()
			if h.firstLocalHit == 0 {
				h.firstLocalHit = time.Since(h.base)
			}
			h.mu.Unlock()
		}
	}
}

// datasetSpec is the TFRecord dataset: equal shards, equal records.
// dataset.Payload keys record bytes by record index alone, so the seed
// cannot change them; it drives every order and choice the loader makes
// and the checkpoint bytes instead.
func datasetSpec(sz sizes) dataset.Spec {
	return dataset.Spec{
		Name:       "train",
		NumImages:  sz.Shards * sz.RecordsPer,
		TotalBytes: sz.datasetBytes(),
		NumShards:  sz.Shards,
	}
}

// buildStack sets one repetition up under dir, from nothing to the
// point where the first read can be issued, and times it. rec != nil
// installs the timing shims and the trace hook.
func buildStack(ctx context.Context, dir string, w workload, sz sizes, rec *recorder) (*stack, error) {
	start := time.Now()
	st := &stack{dir: dir, w: w, sz: sz, rec: rec}
	pfsPath := filepath.Join(dir, "pfs")
	if err := os.MkdirAll(pfsPath, 0o755); err != nil {
		return nil, err
	}
	var err error
	if st.pfsDir, err = storage.NewOSFS("pfs", pfsPath, 0); err != nil {
		return nil, err
	}
	if st.manifest, err = dataset.Materialize(ctx, st.pfsDir, datasetSpec(sz)); err != nil {
		return nil, err
	}
	st.pfs = newThrottle(st.pfsDir, thePFS)
	var pfs storage.Backend = st.pfs
	if rec != nil {
		st.tier0IO, st.sock, st.srvSock = &ioBytes{}, &sockStats{}, &sockStats{}
		pfs = shimBackend(pfs, rec, "storage.pfs", &ioBytes{}) // the emulator counts its own bytes
	}

	// Frontera-style host names, and not nodeA/nodeB: the ring hashes
	// with plain FNV-1a, which gives nodeA none of the 16 shards. These
	// two split them 7/9.
	names := []string{"c191-001", "c191-002"}[:w.Nodes]
	var ring *peernet.Ring
	if w.Nodes > 1 {
		if ring, err = peernet.NewRing(names, 0); err != nil {
			return nil, err
		}
	}
	// Every node's tier 0 and server first: a node's clients dial its
	// siblings' listeners.
	addrs := make([]string, len(names))
	for i, nodeName := range names {
		n := &node{name: nodeName, owns: func(string) bool { return true }}
		st.nodes = append(st.nodes, n)
		t0 := filepath.Join(dir, nodeName+"-tier0")
		if err := os.MkdirAll(t0, 0o755); err != nil {
			return st, err
		}
		if n.tier0, err = storage.NewOSFS(nodeName+"-ssd", t0, sz.datasetBytes()*w.QuotaNum/w.QuotaDen); err != nil {
			return st, err
		}
		if ring == nil {
			continue
		}
		n.owns = func(shard string) bool { return ring.Owner(shard) == nodeName }
		var served storage.Backend = n.tier0
		if rec != nil {
			served = shimBackend(served, rec, "peernet.server_backend", &ioBytes{})
		}
		if n.srv, err = peernet.NewServer(peernet.ServerConfig{Backend: served}); err != nil {
			return st, err
		}
		var ln net.Listener
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return st, err
		}
		addrs[i] = ln.Addr().String()
		if rec != nil {
			ln = &listenerShim{Listener: ln, rec: rec, stats: st.srvSock}
		}
		n.served.Add(1)
		go func() {
			defer n.served.Done()
			_ = n.srv.Serve(ln) // returns nil once the server is closed
		}()
	}

	for i, n := range st.nodes {
		var tier0 storage.Backend = n.tier0
		if rec != nil {
			tier0 = shimBackend(tier0, rec, "storage.tier0", st.tier0IO)
		}
		levels := []storage.Backend{tier0, pfs}
		cfg := core.Config{FullFileFetch: true}
		if ring != nil {
			clients := make(map[string]*peernet.Client)
			for j, sib := range names {
				if j == i {
					continue
				}
				dial := peernet.TCPDialer(addrs[j], time.Second)
				if rec != nil {
					dial = shimDialer(dial, rec, st.sock)
				}
				c, err := peernet.NewClient(peernet.ClientConfig{Name: "peer:" + sib, Dial: dial})
				if err != nil {
					return st, err
				}
				clients[sib] = c
				n.clients = append(n.clients, c)
			}
			if n.tier, err = peernet.NewTier("peers", n.name, ring, clients); err != nil {
				return st, err
			}
			var peers storage.Backend = n.tier
			if rec != nil {
				peers = shimBackend(peers, rec, "peernet.tier", &ioBytes{})
			}
			levels = []storage.Backend{tier0, peers, pfs}
			cfg.Peer = core.PeerConfig{Tier: 1, Owns: n.owns}
		}
		cfg.Levels = levels
		var exec pool.Executor = pool.NewGoPool(sz.PoolWorkers)
		if rec != nil {
			exec = &poolShim{inner: exec, rec: rec}
			n.hook = &hookLog{}
			cfg.Trace = n.hook.hook
		}
		cfg.Pool = exec
		if i == 0 {
			// Rank 0 writes the checkpoints.
			cfg.Write = core.WriteConfig{
				Enabled:     true,
				Durability:  func(string) core.Durability { return w.Durability },
				JournalSync: w.JournalSync,
			}
			if w.Journal {
				n.journalPath = filepath.Join(dir, n.name+"-journal", "wal")
				cfg.Write.JournalPath = n.journalPath
			}
		}
		if n.m, err = core.New(cfg); err != nil {
			exec.Close()
			return st, err
		}
		initStart := time.Now()
		if err := n.m.Init(ctx); err != nil {
			return st, fmt.Errorf("init %s: %w", n.name, err)
		}
		n.initTime = time.Since(initStart)
	}
	st.setup = time.Since(start)
	return st, nil
}

// shards returns the dataset's files.
func (st *stack) shards() []dataset.Shard { return st.manifest.Shards }

// waitIdle blocks until no placement is queued or running and no
// write-back byte is waiting for its flush, on every node.
func (st *stack) waitIdle() {
	for _, n := range st.nodes {
		for !n.m.Idle() || n.m.DirtyBytes() > 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// close tears the stack down and deletes its directory. It is safe on
// a partially built stack.
func (st *stack) close() {
	for _, n := range st.nodes {
		if n.m != nil {
			n.m.Close()
		}
	}
	for _, n := range st.nodes {
		if n.tier != nil {
			n.tier.Close()
		}
		for _, c := range n.clients {
			c.Close()
		}
	}
	for _, n := range st.nodes {
		if n.srv != nil {
			n.srv.Close()
			n.served.Wait()
		}
		if n.tier0 != nil {
			n.tier0.CloseIdle()
		}
	}
	if st.pfsDir != nil {
		st.pfsDir.CloseIdle()
	}
	os.RemoveAll(st.dir)
}
