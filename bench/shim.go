package main

import (
	"context"
	"net"
	"sync/atomic"

	"monarch/internal/peernet"
	"monarch/internal/pool"
	"monarch/internal/storage"
)

// The shims time every call the middleware makes into something the
// benchmark handed it: a hierarchy level, the placement pool, a peer
// connection, the peer server's backend. They forward exactly the
// optional interfaces their inner value has (the middleware
// type-asserts for them) and change no result, which shim_test.go
// checks with the repository's own conformance suites.

// ioBytes counts payload bytes through a backend shim.
type ioBytes struct{ read, written atomic.Int64 }

// backendShim times the storage.Backend methods of one level. label
// names the layer boundary in span names: "storage.tier0",
// "storage.pfs", "peernet.tier", "peernet.server_backend".
type backendShim struct {
	inner storage.Backend
	rec   *recorder
	names map[string]string // op -> span name, built once
	io    *ioBytes
}

var backendOps = []string{"list", "stat", "readat", "readfile", "writefile", "remove", "allocate", "writeat", "readview"}

// shimBackend wraps b so that every call records a span under rec and
// counts its payload bytes into io.
func shimBackend(b storage.Backend, rec *recorder, label string, io *ioBytes) storage.Backend {
	base := backendShim{inner: b, rec: rec, names: make(map[string]string), io: io}
	for _, op := range backendOps {
		base.names[op] = label + "." + op
	}
	rw, hasRW := b.(storage.RangeWriter)
	vr, hasView := b.(storage.ViewReader)
	pg, hasPing := b.(storage.Pinger)
	switch {
	case hasRW && hasView:
		return &viewShim{rangeShim{base, rw}, vr}
	case hasRW:
		return &rangeShim{base, rw}
	case hasPing:
		return &pingShim{base, pg}
	default:
		return &base
	}
}

func (s *backendShim) span(ctx context.Context, op string) openSpan {
	return s.rec.begin(ctx, s.names[op])
}

func (s *backendShim) Name() string    { return s.inner.Name() }
func (s *backendShim) Capacity() int64 { return s.inner.Capacity() }
func (s *backendShim) Used() int64     { return s.inner.Used() }

func (s *backendShim) List(ctx context.Context) ([]storage.FileInfo, error) {
	defer s.span(ctx, "list").end()
	return s.inner.List(ctx)
}

func (s *backendShim) Stat(ctx context.Context, name string) (storage.FileInfo, error) {
	defer s.span(ctx, "stat").end()
	return s.inner.Stat(ctx, name)
}

func (s *backendShim) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	defer s.span(ctx, "readat").end()
	n, err := s.inner.ReadAt(ctx, name, p, off)
	s.io.read.Add(int64(n))
	return n, err
}

func (s *backendShim) ReadFile(ctx context.Context, name string) ([]byte, error) {
	defer s.span(ctx, "readfile").end()
	data, err := s.inner.ReadFile(ctx, name)
	s.io.read.Add(int64(len(data)))
	return data, err
}

func (s *backendShim) WriteFile(ctx context.Context, name string, data []byte) error {
	defer s.span(ctx, "writefile").end()
	err := s.inner.WriteFile(ctx, name, data)
	if err == nil {
		s.io.written.Add(int64(len(data)))
	}
	return err
}

func (s *backendShim) Remove(ctx context.Context, name string) error {
	defer s.span(ctx, "remove").end()
	return s.inner.Remove(ctx, name)
}

// rangeShim adds storage.RangeWriter.
type rangeShim struct {
	backendShim
	rw storage.RangeWriter
}

func (s *rangeShim) Allocate(ctx context.Context, name string, size int64) error {
	defer s.span(ctx, "allocate").end()
	return s.rw.Allocate(ctx, name, size)
}

func (s *rangeShim) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	defer s.span(ctx, "writeat").end()
	n, err := s.rw.WriteAt(ctx, name, p, off)
	s.io.written.Add(int64(n))
	return n, err
}

// viewShim adds storage.ViewReader on top of rangeShim (every in-tree
// backend that lends views also takes range writes). The span covers
// the ReadView call, not the time the caller holds the view.
type viewShim struct {
	rangeShim
	vr storage.ViewReader
}

func (s *viewShim) ReadView(ctx context.Context, name string, off, n int64) (storage.View, error) {
	defer s.span(ctx, "readview").end()
	v, err := s.vr.ReadView(ctx, name, off, n)
	s.io.read.Add(int64(len(v.Data)))
	return v, err
}

// pingShim adds storage.Pinger, which the breaker's recovery probe
// prefers on the read-only peer tier.
type pingShim struct {
	backendShim
	pg storage.Pinger
}

func (s *pingShim) Ping(ctx context.Context) error { return s.pg.Ping(ctx) }

// poolShim times the placement pool from outside: "pool.queue" from
// Submit to the moment a worker picks the task up, "pool.task" while it
// runs. Backend calls the task makes become children of "pool.task".
type poolShim struct {
	inner pool.Executor
	rec   *recorder
}

func (p *poolShim) Submit(t pool.Task) bool {
	queued := p.rec.begin(context.Background(), "pool.queue")
	return p.inner.Submit(func(ctx context.Context) {
		queued.end()
		run := p.rec.begin(ctx, "pool.task")
		defer run.end()
		t(run.within(ctx))
	})
}

func (p *poolShim) Pending() int { return p.inner.Pending() }
func (p *poolShim) Workers() int { return p.inner.Workers() }
func (p *poolShim) Close()       { p.inner.Close() }
func (p *poolShim) Shutdown()    { p.inner.Shutdown() }

// Stats forwards pool.Introspector, which core's gauges read.
func (p *poolShim) Stats() pool.Stats {
	if in, ok := p.inner.(pool.Introspector); ok {
		return in.Stats()
	}
	return pool.Stats{Workers: p.inner.Workers(), Pending: p.inner.Pending()}
}

// sockStats counts what crossed one side's connections.
type sockStats struct {
	dials, reads, writes atomic.Int64
	bytesIn, bytesOut    atomic.Int64
	// awake is the time the connection's owner spent outside Read
	// between two Reads — on the server, decoding, serving and writing
	// one request.
	awake atomic.Int64
}

// connShim times Read and Write on one peer connection. side is
// "peernet.sock" on the client and "peernet.srvsock" on the server.
// A connection carries one request at a time, so lastRead needs no
// lock; hand-offs between goroutines go through the client's pool.
type connShim struct {
	net.Conn
	rec                 *recorder
	readName, writeName string
	stats               *sockStats
	lastRead            int64
}

func shimConn(conn net.Conn, rec *recorder, side string, stats *sockStats) net.Conn {
	return &connShim{Conn: conn, rec: rec, readName: side + ".read", writeName: side + ".write", stats: stats}
}

func (c *connShim) Read(p []byte) (int, error) {
	sp := c.rec.begin(context.Background(), c.readName)
	if c.lastRead != 0 {
		c.stats.awake.Add(sp.start - c.lastRead)
	}
	n, err := c.Conn.Read(p)
	sp.end()
	c.lastRead = c.rec.now()
	c.stats.reads.Add(1)
	c.stats.bytesIn.Add(int64(n))
	return n, err
}

func (c *connShim) Write(p []byte) (int, error) {
	sp := c.rec.begin(context.Background(), c.writeName)
	n, err := c.Conn.Write(p)
	sp.end()
	c.stats.writes.Add(1)
	c.stats.bytesOut.Add(int64(n))
	return n, err
}

// shimDialer wraps the connections a peer client opens.
func shimDialer(d peernet.Dialer, rec *recorder, stats *sockStats) peernet.Dialer {
	return func(ctx context.Context) (net.Conn, error) {
		conn, err := d(ctx)
		if err != nil {
			return nil, err
		}
		stats.dials.Add(1)
		return shimConn(conn, rec, "peernet.sock", stats), nil
	}
}

// listenerShim wraps the connections a peer server accepts.
type listenerShim struct {
	net.Listener
	rec   *recorder
	stats *sockStats
}

func (l *listenerShim) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return shimConn(conn, l.rec, "peernet.srvsock", l.stats), nil
}
