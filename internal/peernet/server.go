package peernet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"monarch/internal/bufpool"
	"monarch/internal/obs"
	"monarch/internal/storage"
)

// ServerConfig configures one peer server.
type ServerConfig struct {
	// Backend is the store served to peers — the node's tier-0 cache.
	Backend storage.Backend
	// AllowWrite permits OpWrite/OpRemove. Off by default: the peer
	// network is a read-only cache fabric, and a read-only server is
	// what keeps a misbehaving peer from corrupting a sibling's tier.
	AllowWrite bool
	// Membership, when set, lets the server take part in the gossip
	// exchange: PING frames carrying a heartbeat payload merge the
	// sender's view and are answered with this node's own. Without it,
	// heartbeat PINGs are answered empty (plain liveness), so old and
	// new nodes interoperate.
	Membership *Membership
	// Stats, when set, answers STATS requests with this node's
	// observability snapshot. Nil servers answer StatusInvalid, exactly
	// like servers that predate the op.
	Stats func() (NodeStats, error)
	// Trace, when set, receives one SpanPeerServe per READ frame
	// served, stamped with the request's correlation ID — the remote
	// half of a cross-node peer-read span pair. Hooks must be fast.
	Trace obs.TraceHook
	// Logf receives per-connection diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Server exposes a storage.Backend to peers over the frame protocol.
// One goroutine per connection; requests on a connection are processed
// in order (pipelining is the client pool's job, not the stream's).
type Server struct {
	cfg ServerConfig

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// NewServer validates cfg and builds a Server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("peernet: server needs a backend")
	}
	return &Server{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until the listener fails or the
// server is closed; it blocks. Serve returns nil after Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("peernet: server is closed")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// ServeConn serves one pre-established connection (the net.Pipe
// transport) until it closes; it blocks. The connection is closed on
// return.
func (s *Server) ServeConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	s.serveConn(conn)
}

// A READ body of sendfileMin to sendfileMax bytes leaves by sendfile(2)
// where it can. A smaller one costs less as the tail of the header's
// writev than as a second system call; a larger one outgrows the socket
// buffers, and a sender that parks between pieces loses to writev on
// loopback (BenchmarkPeerRead's 4096KB rows).
const (
	sendfileMin = 16 << 10
	sendfileMax = 512 << 10
)

// respWriter writes one connection's responses, each one writev of
// header and body, from per-connection state so that a response
// allocates nothing. sendFile is nil on a connection that cannot
// sendfile (see newFileSender).
type respWriter struct {
	conn     net.Conn
	hdr      [5]byte
	vec      [2][]byte
	bufs     net.Buffers // over vec; a field because WriteTo consumes it through a pointer
	sendFile func(hdr []byte, f *os.File, off int64, n int) error
}

// write sends one response frame; body stays the caller's.
func (w *respWriter) write(status byte, body []byte) error {
	hdr, err := appendHeader(w.hdr[:0], status, 0, len(body))
	if err != nil {
		return err
	}
	w.vec[0], w.vec[1] = hdr, body
	w.bufs = w.vec[:]
	if len(body) == 0 {
		w.bufs = w.vec[:1] // net.Pipe would park an empty Write until the next Read
	}
	_, err = w.bufs.WriteTo(w.conn)
	return err
}

// serveConn runs the request loop.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReader(conn)
	w := &respWriter{conn: conn, sendFile: newFileSender(conn)}
	var hdr [13]byte
	for {
		op, req, payload, err := readFrame(br, &hdr)
		if err != nil {
			// A malformed frame may leave unread garbage mid-stream;
			// drop the connection rather than guess at resync.
			if errors.Is(err, errMalformed) {
				s.logf("peernet: %s: dropping connection: %v", conn.RemoteAddr(), err)
				w.write(statusFromError(err))
			}
			return
		}
		if op == OpRead {
			err = s.serveRead(w, req, payload)
		} else {
			err = w.write(s.handle(op, payload))
		}
		putPayload(payload)
		if err != nil {
			return
		}
	}
}

// serveRead answers one READ, straight out of the backend's bytes when
// it lends views (MemFS's buffers, OSFS's file mappings): no
// intermediate copy, and the response stays whole if the file is
// evicted before the last byte is out — the view is held until then.
// Where the view is a window of an open file and the socket allows,
// the kernel moves the range from the page cache itself (fileSender).
func (s *Server) serveRead(w *respWriter, req uint64, payload []byte) error {
	ctx := context.Background()
	rq, err := parseReadReq(payload)
	if err != nil {
		return w.write(statusFromError(err))
	}
	start := time.Now()
	if vr, ok := s.cfg.Backend.(storage.ViewReader); ok {
		v, verr := vr.ReadView(ctx, rq.name, rq.off, int64(rq.n))
		if verr == nil {
			defer v.Release()
			n := len(v.Data)
			s.serveSpan(rq, req, int64(n), nil, start)
			if fw, ok := v.R.(storage.FileWindow); ok && w.sendFile != nil && sendfileMin <= n && n <= sendfileMax {
				hdr, _ := appendHeader(w.hdr[:0], StatusOK, 0, n) // n <= maxData: never past MaxFrame
				return w.sendFile(hdr, fw.File(), rq.off, n)
			}
			return w.write(StatusOK, v.Data)
		}
		if !errors.Is(verr, errors.ErrUnsupported) {
			s.serveSpan(rq, req, 0, verr, start)
			return w.write(statusFromError(verr))
		}
	}
	p := bufpool.Get(int(rq.n))
	defer bufpool.Put(p)
	n, err := s.cfg.Backend.ReadAt(ctx, rq.name, p, rq.off)
	if err != nil {
		s.serveSpan(rq, req, 0, err, start)
		return w.write(statusFromError(err))
	}
	s.serveSpan(rq, req, int64(n), nil, start)
	return w.write(StatusOK, p[:n])
}

// handle dispatches one request other than a READ and encodes the
// response.
func (s *Server) handle(op byte, payload []byte) (status byte, resp []byte) {
	ctx := context.Background()
	b := s.cfg.Backend
	switch op {
	case OpPing:
		if len(payload) == 0 {
			return StatusOK, nil
		}
		_, entries, err := parseHeartbeat(payload)
		if err != nil {
			return statusFromError(err)
		}
		m := s.cfg.Membership
		if m == nil {
			return StatusOK, nil
		}
		// Merge the gossiped ages only. The sender being able to reach
		// us says nothing about whether we can reach it — liveness here
		// means "its serving socket answers", which only our own
		// outbound heartbeats can prove.
		m.Merge(entries)
		return StatusOK, appendHeartbeat(nil, m.Self(), m.View())

	case OpStat:
		name, _, err := parseString(payload)
		if err != nil {
			return statusFromError(err)
		}
		fi, err := b.Stat(ctx, name)
		if err != nil {
			return statusFromError(err)
		}
		return StatusOK, binary.BigEndian.AppendUint64(nil, uint64(fi.Size))

	case OpList:
		infos, err := b.List(ctx)
		if err != nil {
			return statusFromError(err)
		}
		entries := make([]listEntry, len(infos))
		for i, fi := range infos {
			entries[i] = listEntry{name: fi.Name, size: fi.Size}
		}
		return StatusOK, appendListResp(nil, entries)

	case OpWrite:
		if !s.cfg.AllowWrite {
			return StatusReadOnly, appendString(nil, "peer server is read-only")
		}
		name, data, err := parseString(payload)
		if err != nil {
			return statusFromError(err)
		}
		if err := b.WriteFile(ctx, name, data); err != nil {
			return statusFromError(err)
		}
		return StatusOK, nil

	case OpRemove:
		if !s.cfg.AllowWrite {
			return StatusReadOnly, appendString(nil, "peer server is read-only")
		}
		name, _, err := parseString(payload)
		if err != nil {
			return statusFromError(err)
		}
		if err := b.Remove(ctx, name); err != nil {
			return statusFromError(err)
		}
		return StatusOK, nil

	case OpUsage:
		return StatusOK, appendUsageResp(nil, b.Capacity(), b.Used())

	case OpStats:
		if s.cfg.Stats == nil {
			return StatusInvalid, appendString(nil, "stats unsupported")
		}
		ns, err := s.cfg.Stats()
		if err != nil {
			return statusFromError(err)
		}
		resp, err := appendStatsResp(nil, ns)
		if err != nil {
			return statusFromError(err)
		}
		return StatusOK, resp

	default:
		return StatusInvalid, appendString(nil, fmt.Sprintf("unknown op 0x%02x", op))
	}
}

// serveSpan emits the server half of a peer read to the trace hook.
func (s *Server) serveSpan(rq readReq, req uint64, n int64, err error, start time.Time) {
	if s.cfg.Trace == nil {
		return
	}
	s.cfg.Trace(obs.Span{
		Kind:     obs.SpanPeerServe,
		File:     rq.name,
		Tier:     -1,
		Off:      rq.off,
		Bytes:    n,
		Req:      req,
		Err:      err,
		Duration: time.Since(start),
	})
}

// statusFromError maps a backend (or decode) error onto the wire
// status that will reconstruct the right sentinel client-side.
func statusFromError(err error) (byte, []byte) {
	msg := appendString(nil, err.Error())
	switch {
	case errors.Is(err, storage.ErrNotExist):
		return StatusNotExist, msg
	case errors.Is(err, storage.ErrExist):
		return StatusExist, msg
	case errors.Is(err, storage.ErrNoSpace):
		return StatusNoSpace, msg
	case errors.Is(err, storage.ErrReadOnly):
		return StatusReadOnly, msg
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return StatusCanceled, msg
	case errors.Is(err, errMalformed):
		return StatusInvalid, msg
	default:
		return StatusInternal, msg
	}
}

// Close stops all listeners, closes every live connection and waits
// for connection goroutines to drain. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
