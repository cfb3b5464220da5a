package peernet

import (
	"fmt"
	"slices"
	"sort"
)

// Ring is a consistent-hash ownership ring: every file name maps to
// exactly one node, all nodes agree on the mapping with no
// coordination, and adding or removing a node only moves ~1/N of the
// namespace. Each node projects `replicas` virtual points onto the
// ring so ownership stays balanced even with few nodes.
type Ring struct {
	points []ringPoint
	nodes  []string
	vnodes int
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultReplicas is the virtual-point count used when NewRing is
// given replicas <= 0. 64 keeps the max/min ownership skew under ~20%
// for small clusters without making lookup tables large.
const DefaultReplicas = 64

// NewRing builds a ring over nodes. Node IDs must be unique and
// non-empty; order does not matter (all nodes build identical rings
// from the same membership set).
func NewRing(nodes []string, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("peernet: ring needs at least one node")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		points: make([]ringPoint, 0, len(nodes)*replicas),
		nodes:  append([]string(nil), nodes...),
		vnodes: replicas,
	}
	sort.Strings(r.nodes)
	for _, node := range r.nodes {
		if node == "" {
			return nil, fmt.Errorf("peernet: empty node ID")
		}
		if seen[node] {
			return nil, fmt.Errorf("peernet: duplicate node ID %q", node)
		}
		seen[node] = true
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", node, i)),
				node: node,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (vanishingly rare) break by node so every ring built
		// from the same membership agrees.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Owner returns the node that owns name: the first virtual point at or
// after the name's hash, wrapping around the ring.
func (r *Ring) Owner(name string) string {
	h := hash64(name)
	i := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= h
	})
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// OwnersOf returns the ordered replica set for name: the first n
// distinct nodes encountered walking the ring clockwise from the
// name's hash. The first entry equals Owner(name); n is capped at the
// member count. Every node derives the identical set, so "replica k"
// is a cluster-wide role, not a local guess.
func (r *Ring) OwnersOf(name string, n int) []string {
	if n <= 0 {
		n = 1
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(name)
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= h
	})
	owners := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !slices.Contains(owners, p.node) {
			owners = append(owners, p.node)
		}
	}
	return owners
}

// OwnedBy reports whether node is one of the first n replicas of name
// — the replica-aware form of `ring.Owner(name) == node` that
// Config.Peer.Owns should use when running with replication.
func (r *Ring) OwnedBy(name, node string, n int) bool {
	if n <= 1 {
		return r.Owner(name) == node // no replica set to build
	}
	for _, o := range r.OwnersOf(name, n) {
		if o == node {
			return true
		}
	}
	return false
}

// Nodes returns the membership, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Add returns a new ring with node joined; the receiver is unchanged
// (rings are immutable, so concurrent readers never see a rebalance
// mid-flight). Ownership movement is bounded: only names whose replica
// walk now meets one of the new node's virtual points change hands,
// ~K/N of the namespace.
func (r *Ring) Add(node string) (*Ring, error) {
	return NewRing(append(r.Nodes(), node), r.vnodes)
}

// Remove returns a new ring with node departed; the receiver is
// unchanged. Names the node owned redistribute across the survivors;
// everything else keeps its owner.
func (r *Ring) Remove(node string) (*Ring, error) {
	nodes := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == len(r.nodes) {
		return nil, fmt.Errorf("peernet: node %q is not a ring member", node)
	}
	return NewRing(nodes, r.vnodes)
}

// hash64 is FNV-1a 64, spelled out so that it allocates nothing (the
// read path hashes every name it routes): cheap and stable across
// processes (ownership must agree between nodes).
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
