package peernet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"monarch/internal/obs"
	"monarch/internal/storage"
)

// ErrClientClosed is returned by every operation on a closed Client.
// Close also fails in-flight requests with it: their connections are
// closed under them and the retry loop refuses to redial.
var ErrClientClosed = errors.New("peernet: client is closed")

// idleConns caps the idle connections a client keeps for reuse.
const idleConns = 2

// Dialer opens one connection to a peer server. TCPDialer and
// PipeDialer cover the two in-tree transports; tests can inject
// failing dialers to exercise the retry path.
type Dialer func(ctx context.Context) (net.Conn, error)

// ClientConfig configures one peer client.
type ClientConfig struct {
	// Name is the backend name the client reports ("peer:node1").
	Name string
	// Dial opens connections to the peer.
	Dial Dialer
	// Timeout bounds each request end to end — every attempt and every
	// retry backoff must fit inside it (default 5s). A tighter caller
	// deadline wins.
	Timeout time.Duration
	// Retries is how many times a request is retried after a
	// *transport* failure — dial or I/O errors. Remote errors (a miss,
	// a full quota) are definitive and never retried. Default 1.
	Retries int
	// Backoff seeds the retry delay: it doubles per attempt and each
	// sleep is jittered by a uniform factor in [0.5, 1.5), so retries
	// from many nodes hitting one struggling peer spread out instead
	// of arriving in lockstep (default 10ms). A sleep that would
	// outlive the per-op deadline is skipped and the request fails
	// with the last transport error instead.
	Backoff time.Duration
}

// Client speaks the frame protocol to one peer server and exposes it
// as a storage.Backend, so a peer's cache composes into the hierarchy
// exactly like a local tier. Safe for concurrent use: concurrent
// requests each use their own pooled connection.
type Client struct {
	cfg ClientConfig

	mu     sync.Mutex
	idle   []*clientConn
	live   map[*clientConn]struct{} // checked out by in-flight requests
	closed bool

	// Per-op wire attempts, transport errors and response bytes;
	// exported through Instrument. The histogram pointer is nil until
	// Instrument runs — the hot path loads it atomically. hlat is the
	// always-on latency record the hedging engine derives its adaptive
	// p99 threshold from; it exists whether or not Instrument ran.
	reqs     [16]atomic.Int64 // indexed by op byte (low nibble)
	transErr atomic.Int64
	bytesIn  atomic.Int64
	lat      atomic.Pointer[obs.Histogram]
	hlat     *obs.Histogram
}

// clientConn is one pooled connection and its scratch, so that a warm
// request allocates nothing: the request frame is built in buf and
// leaves in one Write, the response's header lands in hdr.
type clientConn struct {
	net.Conn
	buf []byte
	hdr [5]byte
}

// opNames label the per-op request counters.
var opNames = map[byte]string{
	OpPing:   "ping",
	OpStat:   "stat",
	OpList:   "list",
	OpRead:   "read",
	OpWrite:  "write",
	OpRemove: "remove",
	OpUsage:  "usage",
	OpStats:  "stats",
}

// NewClient validates cfg, applies defaults and builds a Client. No
// connection is opened until the first request.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("peernet: client needs a dialer")
	}
	if cfg.Name == "" {
		cfg.Name = "peer"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 10 * time.Millisecond
	}
	return &Client{
		cfg:  cfg,
		live: make(map[*clientConn]struct{}),
		hlat: obs.NewHistogram(obs.LatencyBuckets),
	}, nil
}

// Name implements storage.Backend.
func (c *Client) Name() string { return c.cfg.Name }

// Close drains the idle pool, closes every in-flight connection (so
// blocked requests fail fast with ErrClientClosed instead of waiting
// out their deadlines) and fails future requests. Safe to call more
// than once.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	idle := c.idle
	c.idle = nil
	live := make([]*clientConn, 0, len(c.live))
	for conn := range c.live {
		live = append(live, conn)
	}
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	for _, conn := range live {
		conn.Close()
	}
	return nil
}

// getConn pops an idle connection or dials a fresh one; either way the
// connection is tracked as live until putConn/discard, so Close can
// fail it under an in-flight request.
func (c *Client) getConn(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("peernet: %s: %w", c.cfg.Name, ErrClientClosed)
	}
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.live[conn] = struct{}{}
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	nc, err := c.cfg.Dial(ctx)
	if err != nil {
		return nil, err
	}
	conn := &clientConn{Conn: nc}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("peernet: %s: %w", c.cfg.Name, ErrClientClosed)
	}
	c.live[conn] = struct{}{}
	c.mu.Unlock()
	return conn, nil
}

// putConn returns a healthy connection to the pool.
func (c *Client) putConn(conn *clientConn) {
	conn.SetDeadline(time.Time{})
	c.mu.Lock()
	delete(c.live, conn)
	if !c.closed && len(c.idle) < idleConns {
		c.idle = append(c.idle, conn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	conn.Close()
}

// discard closes a failed connection and forgets it.
func (c *Client) discard(conn *clientConn) {
	c.mu.Lock()
	delete(c.live, conn)
	c.mu.Unlock()
	conn.Close()
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// do runs one request under the per-op deadline with transport-level
// retry: jittered exponential backoff between attempts, total wall
// time (attempts plus sleeps) capped by the deadline. The request's
// payload is head, copied into the connection's scratch (a caller may
// encode it on its stack), then data, written from where it is. It
// returns the remote status and response payload — the prefix of dst
// an OK body was read into when there is a dst (see readResponse);
// callers map non-OK statuses through remoteError.
func (c *Client) do(ctx context.Context, op byte, head, data, dst []byte) (byte, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	// One deadline for the whole call; a tighter caller deadline wins.
	deadline := time.Now().Add(c.cfg.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	backoff := c.cfg.Backoff
	var lastErr error
	attempts := 0
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			if err := ctx.Err(); err != nil {
				return 0, nil, err
			}
			sleep := time.Duration((0.5 + rand.Float64()) * float64(backoff))
			backoff *= 2
			if sleep > time.Until(deadline) {
				// The sleep would outlive the op deadline; surface the
				// last transport error instead of burning the budget.
				break
			}
			select {
			case <-ctx.Done():
				return 0, nil, ctx.Err()
			case <-time.After(sleep):
			}
		}
		attempts++
		conn, err := c.getConn(ctx)
		if err == nil {
			if err = conn.SetDeadline(deadline); err != nil {
				c.discard(conn)
			}
		}
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return 0, nil, err
			}
			c.transErr.Add(1)
			lastErr = err
			continue
		}
		// A cancelled context then forces the deadline into the past
		// (context.AfterFunc: no goroutine per request), so hedged reads
		// can abandon the losing replica mid-read instead of waiting out
		// the full timeout. Once that has run the connection is not
		// pooled, response or not: its past deadline may land after
		// putConn cleared the deadline.
		stop := func() bool { return true }
		if ctx.Done() != nil {
			stop = context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
		}
		status, resp, err := c.roundTrip(ctx, conn, op, head, data, dst)
		reuse := stop()
		if err != nil {
			c.discard(conn)
			c.transErr.Add(1)
			if c.isClosed() {
				return 0, nil, fmt.Errorf("peernet: %s: %w", c.cfg.Name, ErrClientClosed)
			}
			lastErr = err
			continue
		}
		if reuse {
			c.putConn(conn)
		} else {
			c.discard(conn)
		}
		return status, resp, nil
	}
	return 0, nil, fmt.Errorf("peernet: %s: request failed after %d attempts: %w",
		c.cfg.Name, attempts, lastErr)
}

// roundTrip sends one frame and reads the response on conn, under the
// deadline do set on it.
func (c *Client) roundTrip(ctx context.Context, conn *clientConn, op byte, head, data, dst []byte) (byte, []byte, error) {
	c.reqs[op&0x0f].Add(1)
	start := time.Now()
	b, err := appendHeader(conn.buf[:0], op, obs.RequestIDFrom(ctx), len(head)+len(data))
	if err != nil {
		return 0, nil, err
	}
	conn.buf = append(b, head...)
	if _, err := conn.Write(conn.buf); err != nil {
		return 0, nil, err
	}
	if len(data) > 0 {
		if _, err := conn.Write(data); err != nil {
			return 0, nil, err
		}
	}
	status, resp, err := readResponse(conn.Conn, &conn.hdr, dst)
	if err != nil {
		return 0, nil, err
	}
	elapsed := time.Since(start).Seconds()
	c.hlat.Observe(elapsed)
	if h := c.lat.Load(); h != nil {
		h.Observe(elapsed)
	}
	return status, resp, nil
}

// LatencyQuantile estimates quantile q of this client's request round
// trips from the always-on latency histogram, with the sample count —
// the signal the tier's hedging engine thresholds on.
func (c *Client) LatencyQuantile(q float64) (seconds float64, samples uint64) {
	return c.hlat.Quantile(q), c.hlat.Count()
}

// remoteError reconstructs the sentinel a non-OK status encodes, so
// errors.Is(err, storage.ErrNotExist) works across the wire. It
// consumes resp (recycling the pooled payload); callers must not touch
// resp afterwards.
func (c *Client) remoteError(status byte, resp []byte) error {
	msg, _, perr := parseString(resp)
	if perr != nil {
		msg = "(no detail)"
	}
	putPayload(resp)
	switch status {
	case StatusNotExist:
		return fmt.Errorf("peernet: %s: %s: %w", c.cfg.Name, msg, storage.ErrNotExist)
	case StatusExist:
		return fmt.Errorf("peernet: %s: %s: %w", c.cfg.Name, msg, storage.ErrExist)
	case StatusNoSpace:
		return fmt.Errorf("peernet: %s: %s: %w", c.cfg.Name, msg, storage.ErrNoSpace)
	case StatusReadOnly:
		return fmt.Errorf("peernet: %s: %s: %w", c.cfg.Name, msg, storage.ErrReadOnly)
	case StatusCanceled:
		return fmt.Errorf("peernet: %s: %s: %w", c.cfg.Name, msg, context.Canceled)
	case StatusInvalid, StatusInternal:
		return fmt.Errorf("peernet: %s: remote error: %s", c.cfg.Name, msg)
	default:
		return fmt.Errorf("peernet: %s: unknown status 0x%02x", c.cfg.Name, status)
	}
}

// Ping implements storage.Pinger: a liveness round trip the recovery
// prober uses instead of its default write probe.
func (c *Client) Ping(ctx context.Context) error {
	status, resp, err := c.do(ctx, OpPing, nil, nil, nil)
	if err != nil {
		return err
	}
	if status != StatusOK {
		return c.remoteError(status, resp)
	}
	putPayload(resp)
	return nil
}

// Heartbeat sends one membership heartbeat piggybacked on PING: the
// local view travels out, the peer's view comes back (nil when the
// peer runs without a Membership — plain liveness still proven).
func (c *Client) Heartbeat(ctx context.Context, self string, view []HeartbeatEntry) ([]HeartbeatEntry, error) {
	status, resp, err := c.do(ctx, OpPing, appendHeartbeat(nil, self, view), nil, nil)
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, c.remoteError(status, resp)
	}
	if len(resp) == 0 {
		return nil, nil
	}
	_, entries, err := parseHeartbeat(resp)
	putPayload(resp)
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// Stat implements storage.Backend.
func (c *Client) Stat(ctx context.Context, name string) (storage.FileInfo, error) {
	if err := storage.ValidateName(name); err != nil {
		return storage.FileInfo{}, err
	}
	status, resp, err := c.do(ctx, OpStat, appendString(nil, name), nil, nil)
	if err != nil {
		return storage.FileInfo{}, err
	}
	if status != StatusOK {
		return storage.FileInfo{}, c.remoteError(status, resp)
	}
	size, _, err := parseI64(resp)
	putPayload(resp)
	if err != nil {
		return storage.FileInfo{}, err
	}
	return storage.FileInfo{Name: name, Size: size}, nil
}

// List implements storage.Backend.
func (c *Client) List(ctx context.Context) ([]storage.FileInfo, error) {
	status, resp, err := c.do(ctx, OpList, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, c.remoteError(status, resp)
	}
	entries, err := parseListResp(resp)
	putPayload(resp)
	if err != nil {
		return nil, err
	}
	infos := make([]storage.FileInfo, len(entries))
	for i, e := range entries {
		infos[i] = storage.FileInfo{Name: e.name, Size: e.size}
	}
	return infos, nil
}

// ReadAt implements storage.Backend, splitting large windows into
// maxData-sized wire requests whose bodies are read straight into p.
func (c *Client) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if err := storage.ValidateName(name); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("peernet: %s: negative offset %d", c.cfg.Name, off)
	}
	if p == nil {
		p = []byte{} // still a destination: a nil dst asks do for a pooled payload
	}
	var scratch [96]byte
	done := 0
	for {
		want := min(len(p)-done, maxData)
		status, resp, err := c.do(ctx, OpRead,
			appendReadReq(scratch[:0], name, off+int64(done), uint32(want)), nil, p[done:done+want])
		if err != nil {
			return done, err
		}
		if status != StatusOK {
			return done, c.remoteError(status, resp)
		}
		n := len(resp)
		done += n
		c.bytesIn.Add(int64(n))
		if n < want || done == len(p) {
			// Short response = EOF on the remote, matching local
			// ReadAt semantics (n < len(p), nil error).
			return done, nil
		}
	}
}

// ReadFile implements storage.Backend as Stat + ranged reads.
func (c *Client) ReadFile(ctx context.Context, name string) ([]byte, error) {
	fi, err := c.Stat(ctx, name)
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size)
	n, err := c.ReadAt(ctx, name, data, 0)
	if err != nil {
		return nil, err
	}
	return data[:n], nil
}

// WriteFile implements storage.Backend. Servers reject it unless
// started with AllowWrite.
func (c *Client) WriteFile(ctx context.Context, name string, data []byte) error {
	if err := storage.ValidateName(name); err != nil {
		return err
	}
	status, resp, err := c.do(ctx, OpWrite, appendString(nil, name), data, nil)
	if err != nil {
		return err
	}
	if status != StatusOK {
		return c.remoteError(status, resp)
	}
	putPayload(resp)
	return nil
}

// Remove implements storage.Backend.
func (c *Client) Remove(ctx context.Context, name string) error {
	if err := storage.ValidateName(name); err != nil {
		return err
	}
	status, resp, err := c.do(ctx, OpRemove, appendString(nil, name), nil, nil)
	if err != nil {
		return err
	}
	if status != StatusOK {
		return c.remoteError(status, resp)
	}
	putPayload(resp)
	return nil
}

// Stats fetches the peer's observability snapshot: registry metrics,
// gossip view and per-job ledger. Peers that predate the STATS op (or
// run without a stats source) answer StatusInvalid, which surfaces
// here as a remote error.
func (c *Client) Stats(ctx context.Context) (NodeStats, error) {
	status, resp, err := c.do(ctx, OpStats, nil, nil, nil)
	if err != nil {
		return NodeStats{}, err
	}
	if status != StatusOK {
		return NodeStats{}, c.remoteError(status, resp)
	}
	ns, err := parseStatsResp(resp)
	putPayload(resp)
	return ns, err
}

// usage fetches the remote quota pair with a self-imposed deadline,
// since Capacity/Used take no context.
func (c *Client) usage() (capacity, used int64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	status, resp, err := c.do(ctx, OpUsage, nil, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	if status != StatusOK {
		return 0, 0, c.remoteError(status, resp)
	}
	capacity, used, err = parseUsageResp(resp)
	putPayload(resp)
	return capacity, used, err
}

// Capacity implements storage.Backend; it reports 0 (unlimited) when
// the peer cannot be reached — harmless, because peer tiers are never
// placement destinations.
func (c *Client) Capacity() int64 {
	capacity, _, err := c.usage()
	if err != nil {
		return 0
	}
	return capacity
}

// Used implements storage.Backend.
func (c *Client) Used() int64 {
	_, used, err := c.usage()
	if err != nil {
		return 0
	}
	return used
}

// Instrument implements obs.Instrumentable: per-op request counters,
// transport-error and byte totals, and a request latency histogram,
// all labelled with the peer name.
func (c *Client) Instrument(r *obs.Registry, labels ...obs.Label) {
	base := append([]obs.Label{obs.L("peer", c.cfg.Name)}, labels...)
	for op, name := range opNames {
		ctr := &c.reqs[op&0x0f]
		r.CounterFunc("monarch_peer_requests_total",
			"Wire requests sent to a peer cache server, by operation.",
			ctr.Load, append(append([]obs.Label(nil), base...), obs.L("op", name))...)
	}
	r.CounterFunc("monarch_peer_transport_errors_total",
		"Dial or I/O failures talking to a peer cache server (before retry).",
		c.transErr.Load, base...)
	r.CounterFunc("monarch_peer_read_bytes_total",
		"Payload bytes received from a peer cache server by READ requests.",
		c.bytesIn.Load, base...)
	c.lat.Store(r.Histogram("monarch_peer_request_seconds",
		"Round-trip latency of peer cache requests.",
		obs.LatencyBuckets, base...))
}

// TransportErrors reports the number of dial/IO failures so far.
func (c *Client) TransportErrors() int64 { return c.transErr.Load() }
