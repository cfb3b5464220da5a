package obs

import (
	"context"
	"math/rand"
	"sync/atomic"
)

// Request IDs correlate one foreground read across nodes: minted where
// the read enters the middleware, carried in the peernet frame header,
// and stamped into both the client-side read span and the remote
// node's serve span, so a trace analyzer can stitch the pair and price
// true end-to-end peer latency.
//
// An ID is 64 bits: a random 32-bit process prefix (so IDs minted by
// different nodes never collide in a merged trace) over a 32-bit
// counter. Zero is reserved for "no ID".

// reqPrefix is this process's random ID prefix.
var reqPrefix = uint64(rand.Uint32()) << 32

// reqCounter numbers IDs within the process.
var reqCounter atomic.Uint64

// NewRequestID mints a process-unique, never-zero request ID.
func NewRequestID() uint64 {
	id := reqPrefix | (reqCounter.Add(1) & 0xffffffff)
	if id == 0 {
		id = reqPrefix | 1
	}
	return id
}

// RequestIDFrom extracts the request ID a read's annotation carries
// (WithReadAnnotation), or 0 when none is set.
func RequestIDFrom(ctx context.Context) uint64 {
	if a := ReadAnnotationFrom(ctx); a != nil {
		return a.req
	}
	return 0
}
