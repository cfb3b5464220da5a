package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"monarch/internal/obs"
	"monarch/internal/peernet"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// heldRead holds every ReadAt of one file for a while: a replica
// congested on that file alone.
type heldRead struct {
	storage.Backend
	name  string
	delay time.Duration
}

func (h heldRead) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if name == h.name {
		time.Sleep(h.delay)
	}
	return h.Backend.ReadAt(ctx, name, p, off)
}

// TestHedgeLoserOutlivesRead: a hedged peer read returns on its
// primary's answer while the backup replica is still serving it, and
// the reads behind it derive their contexts as usual. The loser's serve
// span must carry the hedged read's request ID, every read must deliver
// its own file's bytes, and the race detector must stay silent: a
// context the loser may still walk is never handed to a later read.
// Both ends run in this process over in-memory pipes.
func TestHedgeLoserOutlivesRead(t *testing.T) {
	const (
		primaryDelay = 50 * time.Millisecond  // far past the 1ms hedge floor
		backupDelay  = 200 * time.Millisecond // the loser, still at work after the read
	)
	ctx := context.Background()
	ring, err := peernet.NewRing([]string{"node0", "node1", "node2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Files whose two replicas both live on the siblings: names[0] is
	// the one the hedge races over.
	var names []string
	for i := 0; len(names) < 9; i++ {
		name := fmt.Sprintf("data/shard-%04d", i)
		if owners := ring.OwnersOf(name, 2); owners[0] != "node0" && owners[1] != "node0" {
			names = append(names, name)
		}
	}
	slow, owners := names[0], ring.OwnersOf(names[0], 2)
	content := func(i int) []byte {
		b := make([]byte, 4096)
		for j := range b {
			b[j] = byte(j*7 + i*31 + j>>8)
		}
		return b
	}

	pfsRaw := storage.NewMemFS("lustre", 0)
	stores := map[string]*storage.MemFS{"node1": storage.NewMemFS("node1", 0), "node2": storage.NewMemFS("node2", 0)}
	for i, name := range names {
		for _, b := range []*storage.MemFS{pfsRaw, stores["node1"], stores["node2"]} {
			if err := b.WriteFile(ctx, name, content(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pfsRaw.SetReadOnly(true)

	loserServes := make(chan obs.Span, 16)
	clients := map[string]*peernet.Client{}
	for node, delay := range map[string]time.Duration{owners[0]: primaryDelay, owners[1]: backupDelay} {
		cfg := peernet.ServerConfig{Backend: heldRead{Backend: stores[node], name: slow, delay: delay}}
		if node == owners[1] {
			cfg.Trace = func(s obs.Span) {
				if s.Kind == obs.SpanPeerServe && s.File == slow {
					loserServes <- s
				}
			}
		}
		srv, err := peernet.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := peernet.NewClient(peernet.ClientConfig{
			Name: "peer:" + node, Dial: peernet.PipeDialer(srv),
			Retries: 1, Backoff: time.Millisecond, Timeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[node] = c
	}
	tier, err := peernet.NewTierWithConfig(peernet.TierConfig{
		Self: "node0", Ring: ring, Clients: clients, Replicas: 2,
		Hedge: peernet.HedgeConfig{Enabled: true, MinSamples: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One fast round trip arms the primary's adaptive threshold.
	if err := clients[owners[0]].Ping(ctx); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var reads []obs.Span
	gp := pool.NewGoPool(2)
	m, err := New(Config{
		Levels: []storage.Backend{storage.NewMemFS("ssd", 0), tier, storage.NewCounting(pfsRaw)},
		Pool:   gp,
		Peer:   PeerConfig{Tier: 1, Owns: func(name string) bool { return ring.Owner(name) == "node0" }},
		Trace: func(s obs.Span) {
			if s.Kind == obs.SpanRead {
				mu.Lock()
				reads = append(reads, s)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	buf := make([]byte, 4096)
	start := time.Now()
	if n, err := m.ReadAt(ctx, slow, buf, 0); err != nil || !bytes.Equal(buf[:n], content(0)) {
		t.Fatalf("hedged read: n=%d err=%v", n, err)
	}
	if d := time.Since(start); d >= backupDelay {
		t.Fatalf("the hedged read took %v: it waited for the backup", d)
	}
	mu.Lock()
	first := reads[0]
	mu.Unlock()
	if first.Flags&obs.FlagHedged == 0 || first.Req == 0 {
		t.Fatalf("first read span %v: want a hedged peer read with a request ID", first)
	}

	// The loser is still serving: these reads run beside it.
	for i := 0; i < 128; i++ {
		k := 1 + i%(len(names)-1)
		if n, err := m.ReadAt(ctx, names[k], buf, 0); err != nil || !bytes.Equal(buf[:n], content(k)) {
			t.Fatalf("read %d of %s: n=%d err=%v, or the wrong bytes", i, names[k], n, err)
		}
	}
	select {
	case s := <-loserServes:
		if s.Req != first.Req {
			t.Fatalf("the loser served request %016x, want the hedged read's %016x", s.Req, first.Req)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the backup replica never served the hedged read")
	}
	if st := m.Stats(); st.PeerHits != 129 || st.PeerHedges < 1 {
		t.Fatalf("peer hits %d, hedges %d: want 129 and at least 1", st.PeerHits, st.PeerHedges)
	}
}
