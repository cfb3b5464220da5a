package peernet_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"monarch/internal/obs"
	"monarch/internal/peernet"
	"monarch/internal/storage"
)

// tierFixture builds a ring of n nodes, one MemFS + server per node,
// and returns node 0's Tier plus every node's store. Servers for nodes
// listed in dead are closed immediately.
func tierFixture(t *testing.T, n int, dead ...int) (*peernet.Tier, *peernet.Ring, []*storage.MemFS) {
	t.Helper()
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	ring, err := peernet.NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*storage.MemFS, n)
	clients := make(map[string]*peernet.Client)
	for i := 1; i < n; i++ {
		stores[i] = storage.NewMemFS(nodes[i], 0)
		srv, err := peernet.NewServer(peernet.ServerConfig{Backend: stores[i]})
		if err != nil {
			t.Fatal(err)
		}
		closed := false
		for _, d := range dead {
			if d == i {
				srv.Close()
				closed = true
			}
		}
		if !closed {
			t.Cleanup(func() { srv.Close() })
		}
		c, err := peernet.NewClient(peernet.ClientConfig{
			Name:    "peer:" + nodes[i],
			Dial:    peernet.PipeDialer(srv),
			Retries: 1,
			Backoff: time.Millisecond,
			Timeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[nodes[i]] = c
	}
	stores[0] = storage.NewMemFS(nodes[0], 0)
	tier, err := peernet.NewTier("peers", nodes[0], ring, clients)
	if err != nil {
		t.Fatal(err)
	}
	return tier, ring, stores
}

func TestTierRoutesToOwner(t *testing.T) {
	ctx := context.Background()
	tier, ring, stores := tierFixture(t, 4)
	nodes := ring.Nodes()
	idx := map[string]int{}
	for i, n := range nodes {
		idx[n] = i
	}

	// Seed every node's store with a file it owns, plus note one file
	// owned by node0 itself.
	var selfOwned string
	perOwner := map[string]string{}
	for i := 0; len(perOwner) < 3 || selfOwned == ""; i++ {
		name := fmt.Sprintf("data/shard-%04d.rec", i)
		owner := ring.Owner(name)
		if owner == "node0" {
			if selfOwned == "" {
				selfOwned = name
			}
			continue
		}
		if _, ok := perOwner[owner]; ok {
			continue
		}
		perOwner[owner] = name
		if err := stores[idx[owner]].WriteFile(ctx, name, []byte("from "+owner)); err != nil {
			t.Fatal(err)
		}
	}

	for owner, name := range perOwner {
		data, err := tier.ReadFile(ctx, name)
		if err != nil || string(data) != "from "+owner {
			t.Fatalf("read %s from %s: %q err=%v", name, owner, data, err)
		}
		fi, err := tier.Stat(ctx, name)
		if err != nil || fi.Size != int64(len("from "+owner)) {
			t.Fatalf("stat %s: %+v err=%v", name, fi, err)
		}
	}

	// Files this node owns are not the peer network's to serve.
	if _, err := tier.ReadFile(ctx, selfOwned); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("self-owned read: %v, want ErrNotExist", err)
	}
}

func TestTierMissIsNotExist(t *testing.T) {
	ctx := context.Background()
	tier, ring, _ := tierFixture(t, 2)
	// Find a name node1 owns but never cached.
	for i := 0; ; i++ {
		name := fmt.Sprintf("uncached-%d", i)
		if ring.Owner(name) == "node1" {
			if _, err := tier.ReadFile(ctx, name); !errors.Is(err, storage.ErrNotExist) {
				t.Fatalf("peer miss: %v, want ErrNotExist", err)
			}
			return
		}
	}
}

func TestTierIsReadOnlyAndFull(t *testing.T) {
	ctx := context.Background()
	tier, _, _ := tierFixture(t, 2)
	if err := tier.WriteFile(ctx, "f", []byte("x")); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("write: %v", err)
	}
	if err := tier.Remove(ctx, "f"); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("remove: %v", err)
	}
	// Zero free space is what keeps the placement handler from ever
	// choosing the peer tier as a destination.
	if free := storage.Free(tier); free != 0 {
		t.Fatalf("free = %d, want 0", free)
	}
}

func TestTierPingRequiresAllPeers(t *testing.T) {
	ctx := context.Background()
	t.Run("AllAlive", func(t *testing.T) {
		tier, _, _ := tierFixture(t, 3)
		if err := tier.Ping(ctx); err != nil {
			t.Fatalf("ping with live peers: %v", err)
		}
	})
	t.Run("OneDead", func(t *testing.T) {
		tier, _, _ := tierFixture(t, 3, 2)
		if err := tier.Ping(ctx); err == nil {
			t.Fatal("ping with a dead peer succeeded")
		}
	})
}

func TestTierList(t *testing.T) {
	ctx := context.Background()
	tier, _, stores := tierFixture(t, 3)
	if err := stores[1].WriteFile(ctx, "bb", make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if err := stores[2].WriteFile(ctx, "aa", make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	infos, err := tier.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "aa" || infos[1].Name != "bb" {
		t.Fatalf("merged list = %+v", infos)
	}
}

func TestTierValidatesMembership(t *testing.T) {
	ring, _ := peernet.NewRing([]string{"a", "b"}, 0)
	if _, err := peernet.NewTier("p", "a", ring, nil); err == nil {
		t.Fatal("tier without client for ring member accepted")
	}
	if _, err := peernet.NewTier("p", "zz", ring, nil); err == nil {
		t.Fatal("tier for non-member node accepted")
	}
}

func TestTierRejectsTooManyReplicas(t *testing.T) {
	ring, _ := peernet.NewRing([]string{"a"}, 0)
	if _, err := peernet.NewTierWithConfig(peernet.TierConfig{
		Self: "a", Ring: ring, Replicas: 2,
	}); err == nil {
		t.Fatal("replica width beyond the member count accepted")
	}
}

// replicaCluster builds n nodes with live servers (index 0 is self: no
// server) and hands back everything a replica test needs to kill and
// seed specific nodes.
type replicaCluster struct {
	ring    *peernet.Ring
	stores  []*storage.MemFS
	servers []*peernet.Server
	clients map[string]*peernet.Client
	idx     map[string]int
}

func newReplicaCluster(t *testing.T, n int, wrap func(i int, b storage.Backend) storage.Backend) *replicaCluster {
	t.Helper()
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	ring, err := peernet.NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc := &replicaCluster{
		ring:    ring,
		stores:  make([]*storage.MemFS, n),
		servers: make([]*peernet.Server, n),
		clients: map[string]*peernet.Client{},
		idx:     map[string]int{},
	}
	for i, node := range nodes {
		rc.idx[node] = i
		rc.stores[i] = storage.NewMemFS(node, 0)
		if i == 0 {
			continue
		}
		backend := storage.Backend(rc.stores[i])
		if wrap != nil {
			backend = wrap(i, backend)
		}
		srv, err := peernet.NewServer(peernet.ServerConfig{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		rc.servers[i] = srv
		c, err := peernet.NewClient(peernet.ClientConfig{
			Name:    "peer:" + node,
			Dial:    peernet.PipeDialer(srv),
			Retries: 1,
			Backoff: time.Millisecond,
			Timeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		rc.clients[node] = c
	}
	return rc
}

// foreignName finds a name whose whole replica set avoids node 0, so
// every replica is reachable only over the wire.
func (rc *replicaCluster) foreignName(t *testing.T, replicas int) (string, []string) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("data/shard-%04d.rec", i)
		owners := rc.ring.OwnersOf(name, replicas)
		foreign := true
		for _, o := range owners {
			if o == "node0" {
				foreign = false
			}
		}
		if foreign {
			return name, owners
		}
	}
	t.Fatal("no fully foreign replica set found")
	return "", nil
}

// TestTierReplicaFailover is the robustness core: with R=2 and both
// replicas holding the file, killing the primary's server must not
// surface an error — the read comes back from the second replica.
func TestTierReplicaFailover(t *testing.T) {
	ctx := context.Background()
	rc := newReplicaCluster(t, 4, nil)
	tier, err := peernet.NewTierWithConfig(peernet.TierConfig{
		Self: "node0", Ring: rc.ring, Clients: rc.clients, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	name, owners := rc.foreignName(t, 2)
	for _, o := range owners {
		if err := rc.stores[rc.idx[o]].WriteFile(ctx, name, []byte("replicated")); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy primary serves as before.
	if data, err := tier.ReadFile(ctx, name); err != nil || string(data) != "replicated" {
		t.Fatalf("pre-kill read: %q err=%v", data, err)
	}

	rc.servers[rc.idx[owners[0]]].Close()
	data, err := tier.ReadFile(ctx, name)
	if err != nil || string(data) != "replicated" {
		t.Fatalf("post-kill read: %q err=%v — dead primary must fail over to the replica", data, err)
	}
	if _, err := tier.Stat(ctx, name); err != nil {
		t.Fatalf("post-kill stat: %v", err)
	}
}

// TestTierReplicaMissBeatsTransportError pins the error reduction: if
// any reachable replica definitively lacks the file, the tier reports a
// clean miss (ErrNotExist → peer-miss re-read from the source), not the
// dead primary's transport error (→ fallback + breaker pressure).
func TestTierReplicaMissBeatsTransportError(t *testing.T) {
	ctx := context.Background()
	rc := newReplicaCluster(t, 4, nil)
	tier, err := peernet.NewTierWithConfig(peernet.TierConfig{
		Self: "node0", Ring: rc.ring, Clients: rc.clients, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	name, owners := rc.foreignName(t, 2)
	// Neither replica holds the file, and the primary is dead.
	rc.servers[rc.idx[owners[0]]].Close()
	if _, err := tier.ReadFile(ctx, name); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("miss through a dead primary: %v, want ErrNotExist", err)
	}
}

// TestTierAllReplicasDeadIsAnError: when no replica answers and none
// reported a miss, the transport failure must propagate (this is what
// feeds the breaker when a whole replica set is gone).
func TestTierAllReplicasDeadIsAnError(t *testing.T) {
	ctx := context.Background()
	rc := newReplicaCluster(t, 4, nil)
	tier, err := peernet.NewTierWithConfig(peernet.TierConfig{
		Self: "node0", Ring: rc.ring, Clients: rc.clients, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	name, owners := rc.foreignName(t, 2)
	for _, o := range owners {
		rc.servers[rc.idx[o]].Close()
	}
	_, err = tier.ReadFile(ctx, name)
	if err == nil || errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("read with whole replica set dead: %v, want a transport error", err)
	}
}

// slowServe delays every served ReadAt — a congested peer, not a dead
// one.
type slowServe struct {
	storage.Backend
	delay time.Duration
}

func (s slowServe) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	time.Sleep(s.delay)
	return s.Backend.ReadAt(ctx, name, p, off)
}

// TestTierHedgedRead races a 200ms-slow primary against a fast second
// replica: the backup must win, the caller's buffer must carry the
// backup's bytes, and the hedge counters and the read annotation must
// record it.
func TestTierHedgedRead(t *testing.T) {
	ctx := context.Background()
	var slowIdx int
	rc := newReplicaCluster(t, 3, nil)
	name, owners := rc.foreignName(t, 2)
	slowIdx = rc.idx[owners[0]]

	// Rebuild with the primary's serving path delayed.
	rc = newReplicaCluster(t, 3, func(i int, b storage.Backend) storage.Backend {
		if i == slowIdx {
			return slowServe{Backend: b, delay: 200 * time.Millisecond}
		}
		return b
	})
	for _, o := range owners {
		if err := rc.stores[rc.idx[o]].WriteFile(ctx, name, []byte("hedged bytes")); err != nil {
			t.Fatal(err)
		}
	}
	tier, err := peernet.NewTierWithConfig(peernet.TierConfig{
		Self: "node0", Ring: rc.ring, Clients: rc.clients, Replicas: 2,
		Hedge: peernet.HedgeConfig{Enabled: true, MinSamples: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One fast round trip seeds the primary's latency histogram past
	// MinSamples, so the adaptive threshold (floored at 1ms) arms.
	if err := rc.clients[owners[0]].Ping(ctx); err != nil {
		t.Fatal(err)
	}

	rctx, ann := obs.WithReadAnnotation(ctx, 0)
	buf := make([]byte, len("hedged bytes"))
	start := time.Now()
	n, err := tier.ReadAt(rctx, name, buf, 0)
	if err != nil || string(buf[:n]) != "hedged bytes" {
		t.Fatalf("hedged read: %q err=%v", buf[:n], err)
	}
	if d := time.Since(start); d >= 200*time.Millisecond {
		t.Fatalf("hedged read took %v — the backup never raced", d)
	}
	if tier.Hedges() != 1 || tier.HedgeWins() != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", tier.Hedges(), tier.HedgeWins())
	}
	if ann.Flags()&obs.FlagHedged == 0 {
		t.Fatal("read annotation missing FlagHedged")
	}
}

// TestTierMembershipSkipsDeadReplica: with a view that already calls
// the primary Dead, the tier must not even dial it — the replica is
// first in try-order.
func TestTierMembershipSkipsDeadReplica(t *testing.T) {
	ctx := context.Background()
	rc := newReplicaCluster(t, 4, nil)
	name, owners := rc.foreignName(t, 2)

	clk := time.Now()
	elapsed := time.Duration(0)
	mem, err := peernet.NewMembership(peernet.MembershipConfig{
		Self:         "node0",
		Peers:        []string{"node1", "node2", "node3"},
		SuspectAfter: 50 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
		Clock:        func() time.Time { return clk.Add(elapsed) },
	})
	if err != nil {
		t.Fatal(err)
	}
	tier, err := peernet.NewTierWithConfig(peernet.TierConfig{
		Self: "node0", Ring: rc.ring, Clients: rc.clients, Replicas: 2,
		Membership: mem,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Only the second replica holds the file. Everyone goes silent,
	// then every peer but the primary is observed alive: the primary is
	// Dead in the view, its server is gone, and yet the read must be
	// served without burning a dial on it.
	if err := rc.stores[rc.idx[owners[1]]].WriteFile(ctx, name, []byte("from replica")); err != nil {
		t.Fatal(err)
	}
	rc.servers[rc.idx[owners[0]]].Close()
	elapsed = 200 * time.Millisecond
	for _, p := range []string{"node1", "node2", "node3"} {
		if p != owners[0] {
			mem.ObserveAlive(p)
		}
	}
	dials := rc.clients[owners[0]].TransportErrors()
	data, err := tier.ReadFile(ctx, name)
	if err != nil || string(data) != "from replica" {
		t.Fatalf("read around dead primary: %q err=%v", data, err)
	}
	if got := rc.clients[owners[0]].TransportErrors(); got != dials {
		t.Fatalf("tier dialed the Dead primary (%d new transport errors)", got-dials)
	}
}
