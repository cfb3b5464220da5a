package peernet

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for membership tests.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time          { return f.now }
func (f *fakeClock) Advance(d time.Duration) { f.now = f.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1000, 0)} }
func (f *fakeClock) config(self string, peers ...string) MembershipConfig {
	return MembershipConfig{
		Self:         self,
		Peers:        peers,
		SuspectAfter: time.Second,
		DeadAfter:    3 * time.Second,
		Clock:        f.Now,
	}
}

func TestMembershipStateTransitions(t *testing.T) {
	clk := newFakeClock()
	var transitions []string
	cfg := clk.config("a", "b")
	cfg.OnChange = func(peer string, from, to PeerState) {
		transitions = append(transitions, peer+":"+from.String()+">"+to.String())
	}
	m, err := NewMembership(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if got := m.State("b"); got != PeerAlive {
		t.Fatalf("initial state = %v, want alive", got)
	}
	clk.Advance(1500 * time.Millisecond)
	if got := m.State("b"); got != PeerSuspect {
		t.Fatalf("after 1.5s silence = %v, want suspect", got)
	}
	clk.Advance(2 * time.Second) // 3.5s total
	if got := m.State("b"); got != PeerDead {
		t.Fatalf("after 3.5s silence = %v, want dead", got)
	}
	m.Tick()
	m.ObserveAlive("b")
	if got := m.State("b"); got != PeerAlive {
		t.Fatalf("after resurrection = %v, want alive", got)
	}
	want := []string{"b:alive>dead", "b:dead>alive"}
	if !reflect.DeepEqual(transitions, want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}

	// Self is always alive; unknown peers are never routable.
	if m.State("a") != PeerAlive {
		t.Fatal("self not alive")
	}
	if m.State("stranger") != PeerDead {
		t.Fatal("unknown peer not dead")
	}
}

func TestMembershipMergeKeepsFreshestEvidence(t *testing.T) {
	clk := newFakeClock()
	m, err := NewMembership(clk.config("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(4 * time.Second) // everyone silent past DeadAfter
	if m.State("b") != PeerDead || m.State("c") != PeerDead {
		t.Fatal("peers not dead after silence")
	}

	// Gossip: someone reached b half a second ago — fresh enough to
	// resurrect. The stale entry about c (reached 10s ago) is older
	// than local evidence and must not move anything.
	m.Merge([]HeartbeatEntry{
		{Node: "b", Age: 500 * time.Millisecond},
		{Node: "c", Age: 10 * time.Second},
		{Node: "a", Age: time.Hour}, // self: ignored outright
	})
	if got := m.State("b"); got != PeerAlive {
		t.Fatalf("b after fresh gossip = %v, want alive", got)
	}
	if got := m.State("c"); got != PeerDead {
		t.Fatalf("c after stale gossip = %v, want dead", got)
	}
	if got := m.LiveCount(); got != 1 {
		t.Fatalf("live count = %d, want 1", got)
	}
}

// TestMembershipViewNeverVouchesForSelf pins the anti-entropy rule that
// keeps a half-dead node from keeping itself alive: a node whose
// serving socket is gone can still send heartbeats, so if views carried
// a self entry at age zero, every receiver would merge it and the
// cluster would never converge on Dead.
func TestMembershipViewNeverVouchesForSelf(t *testing.T) {
	clk := newFakeClock()
	m, err := NewMembership(clk.config("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	m.ObserveAlive("b")
	view := m.View()
	var nodes []string
	for _, e := range view {
		if e.Node == "a" {
			t.Fatalf("view carries a self entry: %+v", view)
		}
		nodes = append(nodes, e.Node)
	}
	sort.Strings(nodes)
	if !reflect.DeepEqual(nodes, []string{"b", "c"}) {
		t.Fatalf("view nodes = %v", nodes)
	}
	for _, e := range view {
		switch e.Node {
		case "b":
			if e.Age != 0 {
				t.Fatalf("b's age = %v, want 0", e.Age)
			}
		case "c":
			if e.Age != 2*time.Second {
				t.Fatalf("c's age = %v, want 2s", e.Age)
			}
		}
	}
}

func TestMembershipValidation(t *testing.T) {
	if _, err := NewMembership(MembershipConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := NewMembership(MembershipConfig{Self: "a", Peers: []string{"a"}}); err == nil {
		t.Fatal("self as peer accepted")
	}
	if _, err := NewMembership(MembershipConfig{Self: "a", Peers: []string{"b", "b"}}); err == nil {
		t.Fatal("duplicate peer accepted")
	}
	if _, err := NewMembership(MembershipConfig{
		Self: "a", Peers: []string{"b"},
		SuspectAfter: time.Second, DeadAfter: time.Second,
	}); err == nil {
		t.Fatal("DeadAfter <= SuspectAfter accepted")
	}
}

func TestHeartbeatCodecRoundtrip(t *testing.T) {
	entries := []HeartbeatEntry{
		{Node: "node1", Age: 0},
		{Node: "node2", Age: 1500 * time.Millisecond},
		{Node: "a-much-longer-node-name", Age: time.Hour},
	}
	payload := appendHeartbeat(nil, "sender", entries)
	sender, got, err := parseHeartbeat(payload)
	if err != nil {
		t.Fatal(err)
	}
	if sender != "sender" || !reflect.DeepEqual(got, entries) {
		t.Fatalf("roundtrip: sender=%q entries=%+v", sender, got)
	}

	// Empty view roundtrips too (a lone node still heartbeats).
	payload = appendHeartbeat(nil, "solo", nil)
	sender, got, err = parseHeartbeat(payload)
	if err != nil || sender != "solo" || len(got) != 0 {
		t.Fatalf("empty view: sender=%q entries=%v err=%v", sender, got, err)
	}
}

func TestHeartbeatCodecRejectsMalformed(t *testing.T) {
	good := appendHeartbeat(nil, "s", []HeartbeatEntry{{Node: "n", Age: time.Second}})
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0xff),
		"count overrun":  {0, 1, 's', 0xff, 0xff, 0xff, 0xff},
	}
	for name, payload := range cases {
		if _, _, err := parseHeartbeat(payload); err == nil {
			t.Errorf("%s: malformed heartbeat accepted", name)
		}
	}
}

// TestMembershipGossip: the one rendering of a view every consumer
// shares — STATS, /healthz, /debug/gossip — is sorted by node, carries
// each peer's state at call time, leaves self out, and is nil-safe, so a
// node without gossip renders no opinions instead of needing a guard.
func TestMembershipGossip(t *testing.T) {
	if got := (*Membership)(nil).Gossip(); got != nil {
		t.Fatalf("nil view rendered %+v", got)
	}
	clk := newFakeClock()
	m, err := NewMembership(clk.config("b", "c", "a"))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(1500 * time.Millisecond)
	m.ObserveAlive("c")
	want := []GossipEntry{{Node: "a", State: "suspect"}, {Node: "c", State: "alive"}}
	if got := m.Gossip(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Gossip() = %+v, want %+v", got, want)
	}
}
