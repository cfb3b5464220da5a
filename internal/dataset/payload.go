package dataset

import "sync"

// Payload returns the deterministic content of record id with the given
// length: a cheap keyed byte pattern, so corruption and misrouted reads
// are detectable without storing originals.
//
// The contract: byte i is the low byte of the (i+1)-th successive state
// of xorshift64 (shifts 13, 7, 17) seeded with
// id·0x9e3779b97f4a7c15 + 0x3c6ef372fe94f82a. How the states are
// computed is not part of it; fill computes them in eight lanes.
func Payload(id, length int) []byte {
	p := make([]byte, length)
	fill(p, id)
	return p
}

// laneBytes is S, the bytes one lane generates per group. A group is
// eight lanes, 8·S bytes; a shorter tail is generated serially.
const laneBytes = 1 << 10

// fill writes Payload(id, len(p)) into p.
//
// One xorshift64 step T is linear over GF(2), so the state S steps on
// is J·x for the fixed bit matrix J = T^S. Lane k of a group therefore
// starts at J^k applied to the group's start state, and the eight lanes
// run independently of each other: the CPU overlaps their dependency
// chains where the serial sequence waits on every step.
func fill(p []byte, id int) {
	x := uint64(id)*0x9e3779b97f4a7c15 + 0x3c6ef372fe94f82a
	if len(p) >= 8*laneBytes {
		j := jump()
		for ; len(p) >= 8*laneBytes; p = p[8*laneBytes:] {
			x = lanes((*[8 * laneBytes]byte)(p), j, x)
		}
	}
	for i := range p {
		x = step(x)
		p[i] = byte(x)
	}
}

// step is one xorshift64 step, T.
func step(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// jump returns J = T^S as its 64 columns: column k is T^S applied to
// the state 1<<k.
var jump = sync.OnceValue(func() *[64]uint64 {
	var cols [64]uint64
	for k := range cols {
		x := uint64(1) << k
		for range laneBytes {
			x = step(x)
		}
		cols[k] = x
	}
	return &cols
})

// apply returns m·x over GF(2): the XOR of the columns x's set bits
// select.
func apply(m *[64]uint64, x uint64) uint64 {
	var r uint64
	for k := range m {
		r ^= m[k] & -(x >> k & 1)
	}
	return r
}

// lanes fills the group g from start state x, lane k covering bytes
// [k·S, (k+1)·S) from state J^k·x, and returns the state lane 7 ends
// at, T^(8S)·x: the next group's start. The lanes are spelled out, a
// step at a time across all eight, so that their states stay in
// registers and no inlined call leaves its marker in the loop.
func lanes(g *[8 * laneBytes]byte, j *[64]uint64, x uint64) uint64 {
	x0 := x
	x1 := apply(j, x0)
	x2 := apply(j, x1)
	x3 := apply(j, x2)
	x4 := apply(j, x3)
	x5 := apply(j, x4)
	x6 := apply(j, x5)
	x7 := apply(j, x6)
	for i := 0; i < laneBytes; i++ {
		x0 ^= x0 << 13
		x1 ^= x1 << 13
		x2 ^= x2 << 13
		x3 ^= x3 << 13
		x4 ^= x4 << 13
		x5 ^= x5 << 13
		x6 ^= x6 << 13
		x7 ^= x7 << 13
		x0 ^= x0 >> 7
		x1 ^= x1 >> 7
		x2 ^= x2 >> 7
		x3 ^= x3 >> 7
		x4 ^= x4 >> 7
		x5 ^= x5 >> 7
		x6 ^= x6 >> 7
		x7 ^= x7 >> 7
		x0 ^= x0 << 17
		x1 ^= x1 << 17
		x2 ^= x2 << 17
		x3 ^= x3 << 17
		x4 ^= x4 << 17
		x5 ^= x5 << 17
		x6 ^= x6 << 17
		x7 ^= x7 << 17
		g[i] = byte(x0)
		g[laneBytes+i] = byte(x1)
		g[2*laneBytes+i] = byte(x2)
		g[3*laneBytes+i] = byte(x3)
		g[4*laneBytes+i] = byte(x4)
		g[5*laneBytes+i] = byte(x5)
		g[6*laneBytes+i] = byte(x6)
		g[7*laneBytes+i] = byte(x7)
	}
	return x7
}
