package peernet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"monarch/internal/obs"
)

// PeerState is one node's liveness as seen from the local node.
type PeerState int32

const (
	// PeerAlive: heard from (directly or via gossip) within SuspectAfter.
	PeerAlive PeerState = iota
	// PeerSuspect: silent past SuspectAfter but not yet DeadAfter. The
	// tier deprioritises suspect replicas but still tries them last.
	PeerSuspect
	// PeerDead: silent past DeadAfter. The tier skips dead replicas
	// entirely; a successful heartbeat resurrects the peer to Alive.
	PeerDead
)

// String names the state.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	default:
		return "unknown"
	}
}

// HeartbeatEntry is one peer's age in a gossiped view: how long ago
// the reporting node last had evidence of the peer being reachable.
type HeartbeatEntry struct {
	Node string
	Age  time.Duration
}

// MembershipConfig configures a node's liveness view.
type MembershipConfig struct {
	// Self is this node's ring ID; it is always Alive in its own view.
	Self string
	// Peers are the other ring members tracked by the view.
	Peers []string
	// SuspectAfter is the silence that demotes Alive to Suspect
	// (default 1s).
	SuspectAfter time.Duration
	// DeadAfter is the silence that demotes to Dead (default 3s; must
	// exceed SuspectAfter).
	DeadAfter time.Duration
	// OnChange, when set, observes every state transition. Called
	// without the view lock held, from whichever goroutine noticed the
	// transition (a heartbeat loop or a Tick caller); keep it fast.
	OnChange func(peer string, from, to PeerState)
	// Clock injects time for tests; nil uses time.Now.
	Clock func() time.Time
}

// Membership is a node's view of which peers are reachable. Evidence
// comes from two directions: a successful outbound request to a peer
// (direct — "I can reach it"), and gossiped ages relayed by other
// nodes (indirect — "someone reached it age ago"). Reachability, not
// process-aliveness, is the tracked property: a peer whose serving
// socket is gone is dead for the tier's purposes even if its own
// outbound traffic still flows.
//
// States are derived locally from silence against the configured
// timeouts; the wire carries only ages, so nodes never need agreeing
// clocks and a partitioned node's stale opinion of a third party
// cannot poison the view by more than its own silence already does.
type Membership struct {
	cfg MembershipConfig

	mu    sync.Mutex
	peers map[string]*peerHealth
}

type peerHealth struct {
	lastSeen time.Time
	state    PeerState
}

// NewMembership validates cfg and builds a view with every peer
// optimistically Alive (as-of now), so a cluster booting in any order
// does not start demoted.
func NewMembership(cfg MembershipConfig) (*Membership, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("peernet: membership needs a self ID")
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = time.Second
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 3 * cfg.SuspectAfter
	}
	if cfg.DeadAfter <= cfg.SuspectAfter {
		return nil, fmt.Errorf("peernet: DeadAfter (%v) must exceed SuspectAfter (%v)",
			cfg.DeadAfter, cfg.SuspectAfter)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	m := &Membership{cfg: cfg, peers: make(map[string]*peerHealth, len(cfg.Peers))}
	now := cfg.Clock()
	for _, p := range cfg.Peers {
		if p == "" || p == cfg.Self {
			return nil, fmt.Errorf("peernet: bad membership peer %q", p)
		}
		if m.peers[p] != nil {
			return nil, fmt.Errorf("peernet: duplicate membership peer %q", p)
		}
		m.peers[p] = &peerHealth{lastSeen: now, state: PeerAlive}
	}
	return m, nil
}

// Self returns this node's ID.
func (m *Membership) Self() string { return m.cfg.Self }

// ObserveAlive records direct evidence that peer is reachable now.
func (m *Membership) ObserveAlive(peer string) {
	m.observe(peer, 0)
}

// observe rebases "reachable age ago" onto the local clock and
// refreshes the peer, resurrecting it if the new evidence is fresh
// enough. Unknown peers are ignored: membership is ring-scoped.
func (m *Membership) observe(peer string, age time.Duration) {
	m.mu.Lock()
	h, ok := m.peers[peer]
	if !ok {
		m.mu.Unlock()
		return
	}
	seen := m.cfg.Clock().Add(-age)
	if seen.After(h.lastSeen) {
		h.lastSeen = seen
	}
	from, to := h.state, m.stateFor(m.cfg.Clock().Sub(h.lastSeen))
	h.state = to
	m.mu.Unlock()
	m.notify(peer, from, to)
}

// Merge folds a gossiped view into the local one. Entries about self
// are ignored (a node is its own best witness).
func (m *Membership) Merge(entries []HeartbeatEntry) {
	for _, e := range entries {
		if e.Node == m.cfg.Self {
			continue
		}
		m.observe(e.Node, e.Age)
	}
}

// Tick re-derives every peer's state from the current clock, firing
// OnChange for transitions. Heartbeat loops call it once per interval;
// tests call it after advancing a fake clock.
func (m *Membership) Tick() {
	type change struct {
		peer     string
		from, to PeerState
	}
	var changes []change
	m.mu.Lock()
	now := m.cfg.Clock()
	for peer, h := range m.peers {
		to := m.stateFor(now.Sub(h.lastSeen))
		if to != h.state {
			changes = append(changes, change{peer, h.state, to})
			h.state = to
		}
	}
	m.mu.Unlock()
	for _, c := range changes {
		m.notify(c.peer, c.from, c.to)
	}
}

// stateFor maps silence onto a state. Callers hold m.mu.
func (m *Membership) stateFor(silence time.Duration) PeerState {
	switch {
	case silence >= m.cfg.DeadAfter:
		return PeerDead
	case silence >= m.cfg.SuspectAfter:
		return PeerSuspect
	default:
		return PeerAlive
	}
}

func (m *Membership) notify(peer string, from, to PeerState) {
	if from != to && m.cfg.OnChange != nil {
		m.cfg.OnChange(peer, from, to)
	}
}

// State returns the current view of one peer; self is always Alive and
// unknown peers report Dead (never route to a non-member).
func (m *Membership) State(peer string) PeerState {
	if peer == m.cfg.Self {
		return PeerAlive
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.peers[peer]
	if !ok {
		return PeerDead
	}
	return m.stateFor(m.cfg.Clock().Sub(h.lastSeen))
}

// Snapshot returns the whole view (self excluded), re-derived from the
// clock at call time.
func (m *Membership) Snapshot() map[string]PeerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Clock()
	out := make(map[string]PeerState, len(m.peers))
	for peer, h := range m.peers {
		out[peer] = m.stateFor(now.Sub(h.lastSeen))
	}
	return out
}

// Gossip renders the view as STATS-frame entries, sorted by node so
// output is deterministic. A nil view (a node that runs no gossip) has
// none.
func (m *Membership) Gossip() []GossipEntry {
	if m == nil {
		return nil
	}
	snap := m.Snapshot()
	entries := make([]GossipEntry, 0, len(snap))
	for peer, st := range snap {
		entries = append(entries, GossipEntry{Node: peer, State: st.String()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Node < entries[j].Node })
	return entries
}

// LiveCount reports how many peers are not Dead.
func (m *Membership) LiveCount() int {
	n := 0
	for _, s := range m.Snapshot() {
		if s != PeerDead {
			n++
		}
	}
	return n
}

// View exports the local view as gossipable ages: every tracked peer
// at its silence. The receiving side merges what is fresher than its
// own evidence and drops the rest. Self is deliberately absent: a node
// must never vouch for its own reachability (its outbound traffic
// still flowing proves nothing about its serving socket — the exact
// failure a kill leaves behind). Peers learn a node is alive only by
// reaching it, directly or through a third party's direct evidence.
func (m *Membership) View() []HeartbeatEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Clock()
	entries := make([]HeartbeatEntry, 0, len(m.peers))
	for peer, h := range m.peers {
		age := now.Sub(h.lastSeen)
		if age < 0 {
			age = 0
		}
		entries = append(entries, HeartbeatEntry{Node: peer, Age: age})
	}
	return entries
}

// Instrument implements obs.Instrumentable: a per-peer state gauge
// (0 alive, 1 suspect, 2 dead) driven straight off the view.
func (m *Membership) Instrument(r *obs.Registry, labels ...obs.Label) {
	m.mu.Lock()
	peers := make([]string, 0, len(m.peers))
	for p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	for _, peer := range peers {
		peer := peer
		r.GaugeFunc("monarch_peer_membership_state",
			"Liveness of a ring member as seen locally: 0 alive, 1 suspect, 2 dead.",
			func() float64 { return float64(m.State(peer)) },
			append(append([]obs.Label(nil), labels...), obs.L("peer", peer))...)
	}
}

// Heartbeater drives the gossip exchange: every Interval it pings each
// peer with the local view piggybacked, merges the responses, and
// ticks the view so silence decays into Suspect/Dead. One goroutine
// per peer per round, so a single unreachable peer (blocked in a dial
// timeout) cannot stall detection of the others.
type Heartbeater struct {
	mem      *Membership
	clients  map[string]*Client
	interval time.Duration

	mu      sync.Mutex
	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// NewHeartbeater builds (but does not start) a heartbeat loop over the
// given per-peer clients (the same clients the Tier reads through —
// heartbeats ride the existing connections and wire protocol).
func NewHeartbeater(mem *Membership, clients map[string]*Client, interval time.Duration) (*Heartbeater, error) {
	if mem == nil {
		return nil, fmt.Errorf("peernet: heartbeater needs a membership view")
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	for peer := range mem.peers {
		if clients[peer] == nil {
			return nil, fmt.Errorf("peernet: heartbeater missing a client for peer %q", peer)
		}
	}
	return &Heartbeater{mem: mem, clients: clients, interval: interval}, nil
}

// Start launches the loop; idempotent until Stop.
func (h *Heartbeater) Start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stop != nil || h.stopped {
		return
	}
	h.stop = make(chan struct{})
	h.wg.Add(1)
	go h.loop(h.stop)
}

// Stop halts the loop and waits for in-flight rounds to finish.
func (h *Heartbeater) Stop() {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return
	}
	h.stopped = true
	if h.stop != nil {
		close(h.stop)
	}
	h.mu.Unlock()
	h.wg.Wait()
}

func (h *Heartbeater) loop(stop chan struct{}) {
	defer h.wg.Done()
	ticker := time.NewTicker(h.interval)
	defer ticker.Stop()
	h.round(stop)
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			h.round(stop)
		}
	}
}

// round pings every tracked peer once, concurrently, then ticks.
func (h *Heartbeater) round(stop chan struct{}) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	view := h.mem.View()
	var wg sync.WaitGroup
	for peer, c := range h.clients {
		if _, tracked := h.mem.peers[peer]; !tracked {
			continue
		}
		wg.Add(1)
		go func(peer string, c *Client) {
			defer wg.Done()
			resp, err := c.Heartbeat(ctx, h.mem.Self(), view)
			if err != nil {
				return // silence accrues; Tick demotes
			}
			h.mem.ObserveAlive(peer)
			h.mem.Merge(resp)
		}(peer, c)
	}
	wg.Wait()
	h.mem.Tick()
}
