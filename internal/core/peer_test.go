package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"monarch/internal/pool"
	"monarch/internal/storage"
	"monarch/internal/trace"
)

// peerFixture builds a 3-level hierarchy [ssd, peer, pfs] where the
// middle level stands in for a peernet.Tier: a read-only MemFS holding
// whatever "sibling caches" were seeded into it. Owns reports files NOT
// prefixed "remote/" as locally owned.
type peerFixture struct {
	ssd  *storage.MemFS
	peer *storage.Faulty
	pfs  *storage.Counting
	m    *Monarch
}

func newPeerFixture(t *testing.T, cfgEdit func(*Config)) *peerFixture {
	t.Helper()
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	for _, name := range []string{"local/a", "local/b", "remote/c", "remote/d"} {
		content := bytes.Repeat([]byte(name[len(name)-1:]), 64)
		if err := pfsRaw.WriteFile(ctx, name, content); err != nil {
			t.Fatal(err)
		}
	}
	pfsRaw.SetReadOnly(true)
	pfs := storage.NewCounting(pfsRaw)

	peerRaw := storage.NewMemFS("peers", 0)
	// The owner of remote/c has cached it; remote/d's owner has not.
	if err := peerRaw.WriteFile(ctx, "remote/c", bytes.Repeat([]byte("c"), 64)); err != nil {
		t.Fatal(err)
	}
	peerRaw.SetReadOnly(true)
	peer := storage.NewFaulty(peerRaw)

	ssd := storage.NewMemFS("ssd", 0)
	gp := pool.NewGoPool(2)
	cfg := Config{
		Levels:        []storage.Backend{ssd, peer, pfs},
		Pool:          gp,
		FullFileFetch: true,
		Peer: PeerConfig{
			Tier: 1,
			Owns: func(name string) bool { return !strings.HasPrefix(name, "remote/") },
		},
	}
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return &peerFixture{ssd: ssd, peer: peer, pfs: pfs, m: m}
}

func (f *peerFixture) read(t *testing.T, name string) []byte {
	t.Helper()
	data, err := f.m.ReadFull(context.Background(), name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

func TestPeerConfigValidation(t *testing.T) {
	mem := storage.NewMemFS("a", 0)
	gp := pool.NewGoPool(1)
	defer gp.Close()
	owns := func(string) bool { return true }
	levels := []storage.Backend{mem, mem, mem}
	cases := []struct {
		name string
		peer PeerConfig
	}{
		{"tier is top level via negative", PeerConfig{Tier: -1, Owns: owns}},
		{"tier is the source", PeerConfig{Tier: 2, Owns: owns}},
		{"tier out of range", PeerConfig{Tier: 5, Owns: owns}},
		{"missing Owns", PeerConfig{Tier: 1}},
	}
	for _, c := range cases {
		if _, err := New(Config{Levels: levels, Pool: gp, Peer: c.peer}); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := New(Config{Levels: levels, Pool: gp, Peer: PeerConfig{Tier: 1, Owns: owns}}); err != nil {
		t.Errorf("valid peer config rejected: %v", err)
	}
}

// TestPeerHitServesFromOwnerCache: a non-owned file the owner has
// cached is served by the peer tier, counted as a peer hit, and never
// placed locally. With peer routing on, the trace trailer carries the
// peer counters too.
func TestPeerHitServesFromOwnerCache(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "peer.bin")
	f := newPeerFixture(t, func(c *Config) { c.TracePath = tracePath })
	data := f.read(t, "remote/c")
	if !bytes.Equal(data, bytes.Repeat([]byte("c"), 64)) {
		t.Fatalf("peer read returned %q", data)
	}
	s := f.m.Stats()
	if s.PeerHits != 1 || s.PeerHitBytes != 64 || s.PeerMisses != 0 {
		t.Fatalf("stats = hits %d bytes %d misses %d", s.PeerHits, s.PeerHitBytes, s.PeerMisses)
	}
	if s.ReadsServed[1] != 1 {
		t.Fatalf("peer tier served %d reads, want 1", s.ReadsServed[1])
	}
	if ops := f.pfs.Counts().DataOps(); ops != 0 {
		t.Fatalf("peer hit cost %d PFS data ops", ops)
	}
	// Non-owned files must never be cached locally.
	waitFixtureIdle(t, f.m)
	if lvl, _ := f.m.LevelOf("remote/c"); lvl != 2 {
		t.Fatalf("remote/c placed at level %d", lvl)
	}
	if _, err := f.ssd.Stat(context.Background(), "remote/c"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("non-owned file landed on local ssd: %v", err)
	}
	f.m.Close()
	tr, err := trace.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{"peer_hits": 1, "peer_hit_bytes": 64, "peer_misses": 0, "peer_hedges": 0} {
		if got, ok := tr.Summary[key]; !ok || got != want {
			t.Errorf("trailer %s = %d (present=%v), want %d", key, got, ok, want)
		}
	}
}

// TestPeerMissFallsThroughCleanly: the owner not having cached the file
// yet is protocol behaviour — the source serves the read and nothing
// feeds the fallback counter or the breaker.
func TestPeerMissFallsThroughCleanly(t *testing.T) {
	f := newPeerFixture(t, nil)
	data := f.read(t, "remote/d")
	if !bytes.Equal(data, bytes.Repeat([]byte("d"), 64)) {
		t.Fatalf("miss read returned %q", data)
	}
	s := f.m.Stats()
	if s.PeerMisses != 1 || s.PeerHits != 0 {
		t.Fatalf("stats = misses %d hits %d", s.PeerMisses, s.PeerHits)
	}
	if s.Fallbacks != 0 {
		t.Fatalf("clean miss counted as fallback (%d)", s.Fallbacks)
	}
	if f.m.TierState(1) != TierHealthy {
		t.Fatalf("clean miss fed the breaker: %v", f.m.TierState(1))
	}
	if s.ReadsServed[2] != 1 {
		t.Fatalf("source served %d reads, want 1", s.ReadsServed[2])
	}
}

// TestPeerFailureFallsBackAndTripsBreaker: transport-level peer errors
// take the fallback path, count under stage="peer", and demote the peer
// tier so later reads go straight to the source.
func TestPeerFailureFallsBackAndTripsBreaker(t *testing.T) {
	f := newPeerFixture(t, func(cfg *Config) {
		cfg.Health.ReadErrorThreshold = 2
	})
	f.peer.Break()
	// Each read still succeeds (PFS fallback); two failures trip the
	// breaker.
	for i := 0; i < 2; i++ {
		f.read(t, "remote/c")
	}
	s := f.m.Stats()
	if s.Fallbacks != 2 || s.PeerHits != 0 || s.PeerMisses != 0 {
		t.Fatalf("stats = fallbacks %d hits %d misses %d", s.Fallbacks, s.PeerHits, s.PeerMisses)
	}
	if f.m.TierState(1) != TierDown {
		t.Fatalf("peer tier state = %v, want down", f.m.TierState(1))
	}
	if got := errorsAt(f.m, "peer"); got != 2 {
		t.Fatalf(`monarch_errors_total{stage="peer"} = %v, want 2`, got)
	}
	// With the breaker open, reads skip the peer tier entirely: no new
	// fallbacks, served straight from the source.
	f.read(t, "remote/c")
	if s = f.m.Stats(); s.Fallbacks != 2 {
		t.Fatalf("read against open breaker attempted the peer tier (fallbacks %d)", s.Fallbacks)
	}
}

// TestPeerOwnedFilesStillPlaceLocally: peer routing must not disturb
// the owned-file path — first read places the file on the local tier.
func TestPeerOwnedFilesStillPlaceLocally(t *testing.T) {
	f := newPeerFixture(t, nil)
	f.read(t, "local/a")
	waitFixtureIdle(t, f.m)
	if lvl, _ := f.m.LevelOf("local/a"); lvl != 0 {
		t.Fatalf("owned file at level %d, want 0", lvl)
	}
	s := f.m.Stats()
	if s.PeerHits != 0 || s.PeerMisses != 0 {
		t.Fatalf("owned read touched the peer path: %+v", s)
	}
	// Second read is a local hit.
	f.read(t, "local/a")
	if s = f.m.Stats(); s.ReadsServed[0] != 1 {
		t.Fatalf("local tier served %d reads, want 1", s.ReadsServed[0])
	}
}

// TestPeerPreStageOnlyOwned: pre-training staging copies owned files
// only; non-owned files stay on the source.
func TestPeerPreStageOnlyOwned(t *testing.T) {
	f := newPeerFixture(t, func(cfg *Config) {
		cfg.Staging = StagePreTraining
	})
	waitFixtureIdle(t, f.m)
	for name, want := range map[string]int{"local/a": 0, "local/b": 0, "remote/c": 2, "remote/d": 2} {
		if lvl, err := f.m.LevelOf(name); err != nil || lvl != want {
			t.Errorf("%s at level %d (err %v), want %d", name, lvl, err, want)
		}
	}
}

// TestPeerTierNeverPlacementDestination: when the local tier is too
// small, the placer must skip the peer tier (it is a read-only view of
// sibling caches, not storage) and record a skip — not attempt a write.
func TestPeerTierNeverPlacementDestination(t *testing.T) {
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	if err := pfsRaw.WriteFile(ctx, "big", bytes.Repeat([]byte("x"), 32)); err != nil {
		t.Fatal(err)
	}
	pfsRaw.SetReadOnly(true)
	// Unlimited-quota MemFS: without the explicit peer-tier guard the
	// placer would see plenty of free space and try to write into it.
	peerRaw := storage.NewMemFS("peers", 0)
	gp := pool.NewGoPool(1)
	m, err := New(Config{
		Levels:        []storage.Backend{storage.NewMemFS("ssd", 4), peerRaw, storage.NewCounting(pfsRaw)},
		Pool:          gp,
		FullFileFetch: true,
		Peer:          PeerConfig{Tier: 1, Owns: func(string) bool { return true }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if _, err := m.ReadAt(ctx, "big", make([]byte, 32), 0); err != nil {
		t.Fatal(err)
	}
	waitFixtureIdle(t, m)
	if _, err := peerRaw.Stat(ctx, "big"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("placement reached the peer tier: %v", err)
	}
	s := m.Stats()
	if s.PlacementSkips != 1 || s.PlacementErrors != 0 {
		t.Fatalf("skips %d errors %d, want 1/0", s.PlacementSkips, s.PlacementErrors)
	}
}

func waitFixtureIdle(t *testing.T, m *Monarch) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !m.Idle() {
		if time.Now().After(deadline) {
			t.Fatal("placements did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
}
