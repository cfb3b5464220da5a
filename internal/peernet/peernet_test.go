package peernet_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"monarch/internal/obs"
	"monarch/internal/peernet"
	"monarch/internal/storage"
	"monarch/internal/storage/storagetest"
)

// pipeClient builds a MemFS-backed server and a Client connected over
// net.Pipe, torn down with the test.
func pipeClient(t *testing.T, capacity int64, allowWrite bool) (*peernet.Client, *storage.MemFS) {
	t.Helper()
	mem := storage.NewMemFS("remote", capacity)
	srv, err := peernet.NewServer(peernet.ServerConfig{Backend: mem, AllowWrite: allowWrite})
	if err != nil {
		t.Fatal(err)
	}
	c, err := peernet.NewClient(peernet.ClientConfig{
		Name:    "peer:test",
		Dial:    peernet.PipeDialer(srv),
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return c, mem
}

// TestClientConformance holds the peer client to the same contract as
// MemFS and OSFS: the full storage conformance suite runs against a
// writable server over the pipe transport.
func TestClientConformance(t *testing.T) {
	storagetest.RunConformance(t, func(capacity int64) storage.Backend {
		c, _ := pipeClient(t, capacity, true)
		return c
	})
}

// TestClientWriteConformance holds the peer client's mutation path
// (OpWrite/OpRemove over the wire) to the shared write-lifecycle
// contract; the range subtests skip because the wire protocol has no
// ALLOC/WRITEAT ops.
func TestClientWriteConformance(t *testing.T) {
	storagetest.RunWriteConformance(t, func(capacity int64) storage.Backend {
		c, _ := pipeClient(t, capacity, true)
		return c
	})
}

// TestWriteRemoveOverTCP drives the gated mutation ops end-to-end over
// a real loopback socket: write, read-back, remove, and the sentinel
// for removing a ghost — all through the kernel's TCP path rather than
// net.Pipe.
func TestWriteRemoveOverTCP(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemFS("remote", 0)
	srv, err := peernet.NewServer(peernet.ServerConfig{Backend: mem, AllowWrite: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := peernet.NewClient(peernet.ClientConfig{
		Name: "peer:tcp-write",
		Dial: peernet.TCPDialer(ln.Addr().String(), time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	payload := bytes.Repeat([]byte{0xC3}, 128<<10)
	if err := c.WriteFile(ctx, "ckpt/shard-0", payload); err != nil {
		t.Fatal(err)
	}
	if got, err := mem.ReadFile(ctx, "ckpt/shard-0"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("server content after TCP write: %v", err)
	}
	if got, err := c.ReadFile(ctx, "ckpt/shard-0"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("TCP read-back: %v", err)
	}
	if err := c.Remove(ctx, "ckpt/shard-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Stat(ctx, "ckpt/shard-0"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("server copy survived TCP remove: %v", err)
	}
	if err := c.Remove(ctx, "ckpt/shard-0"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("ghost remove over TCP: %v, want ErrNotExist", err)
	}
}

// TestClientWrapperPassthrough runs the Counting and Faulty
// instrumentation wrappers over the peer client, the way experiments
// stack them over local backends.
func TestClientWrapperPassthrough(t *testing.T) {
	ctx := context.Background()

	t.Run("CountingCounts", func(t *testing.T) {
		c, _ := pipeClient(t, 0, true)
		w := storage.NewCounting(c)
		if err := w.WriteFile(ctx, "f", []byte("abcdef")); err != nil {
			t.Fatal(err)
		}
		data, err := w.ReadFile(ctx, "f")
		if err != nil || string(data) != "abcdef" {
			t.Fatalf("readfile: %q err=%v", data, err)
		}
		p := make([]byte, 3)
		if n, err := w.ReadAt(ctx, "f", p, 1); err != nil || n != 3 {
			t.Fatalf("readat: n=%d err=%v", n, err)
		}
		counts := w.Counts()
		if counts.Ops[storage.OpWrite] != 1 || counts.Ops[storage.OpRead] != 2 {
			t.Fatalf("ops = %+v", counts.Ops)
		}
		if counts.BytesRead != 9 {
			t.Fatalf("bytes read = %d, want 9", counts.BytesRead)
		}
	})

	t.Run("CountingRangeWriterUnsupported", func(t *testing.T) {
		c, _ := pipeClient(t, 0, true)
		w := storage.NewCounting(c)
		if err := w.Allocate(ctx, "f", 8); !errors.Is(err, errors.ErrUnsupported) {
			t.Fatalf("allocate over peer client: %v, want ErrUnsupported", err)
		}
	})

	t.Run("FaultyInjects", func(t *testing.T) {
		c, _ := pipeClient(t, 0, true)
		w := storage.NewFaulty(c)
		if err := w.WriteFile(ctx, "f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		w.FailNextReads(1)
		if _, err := w.ReadFile(ctx, "f"); err == nil {
			t.Fatal("injected read fault did not fire")
		}
		if _, err := w.ReadFile(ctx, "f"); err != nil {
			t.Fatalf("post-heal read: %v", err)
		}
	})
}

// TestClientSentinelsAcrossWire pins the error mapping: remote
// sentinel errors must satisfy errors.Is locally.
func TestClientSentinelsAcrossWire(t *testing.T) {
	ctx := context.Background()
	c, mem := pipeClient(t, 10, true)

	if _, err := c.Stat(ctx, "ghost"); !errors.Is(err, storage.ErrNotExist) {
		t.Fatalf("stat ghost: %v", err)
	}
	if err := c.WriteFile(ctx, "big", make([]byte, 11)); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("over-quota write: %v", err)
	}
	mem.SetReadOnly(true)
	if err := c.WriteFile(ctx, "f", []byte("x")); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("write to read-only remote: %v", err)
	}
}

// TestReadOnlyServer locks down the default posture: without
// AllowWrite the server rejects mutations with ErrReadOnly but serves
// reads.
func TestReadOnlyServer(t *testing.T) {
	ctx := context.Background()
	c, mem := pipeClient(t, 0, false)
	if err := mem.WriteFile(ctx, "f", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(ctx, "g", []byte("x")); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("write via read-only server: %v", err)
	}
	if err := c.Remove(ctx, "f"); !errors.Is(err, storage.ErrReadOnly) {
		t.Fatalf("remove via read-only server: %v", err)
	}
	data, err := c.ReadFile(ctx, "f")
	if err != nil || string(data) != "data" {
		t.Fatalf("read via read-only server: %q err=%v", data, err)
	}
}

// TestClientPing exercises the Pinger extension both ways.
func TestClientPing(t *testing.T) {
	ctx := context.Background()
	c, _ := pipeClient(t, 0, false)
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping live server: %v", err)
	}

	dead, err := peernet.NewClient(peernet.ClientConfig{
		Name: "peer:dead",
		Dial: func(ctx context.Context) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
		Retries: 1,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.Ping(ctx); err == nil {
		t.Fatal("ping of dead peer succeeded")
	}
}

// TestClientRetriesTransportErrors verifies the retry path: the first
// dial fails, the retry lands, and the transport-error counter records
// the failure.
func TestClientRetriesTransportErrors(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemFS("remote", 0)
	if err := mem.WriteFile(ctx, "f", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	srv, err := peernet.NewServer(peernet.ServerConfig{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pipe := peernet.PipeDialer(srv)
	failures := 1
	c, err := peernet.NewClient(peernet.ClientConfig{
		Name: "peer:flaky",
		Dial: func(ctx context.Context) (net.Conn, error) {
			if failures > 0 {
				failures--
				return nil, errors.New("transient dial failure")
			}
			return pipe(ctx)
		},
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data, err := c.ReadFile(ctx, "f")
	if err != nil || string(data) != "ok" {
		t.Fatalf("read through flaky dialer: %q err=%v", data, err)
	}
	if got := c.TransportErrors(); got != 1 {
		t.Fatalf("transport errors = %d, want 1", got)
	}
}

// TestClientDoesNotRetryRemoteErrors: a remote miss is definitive; it
// must not burn retry attempts (or reconnect).
func TestClientDoesNotRetryRemoteErrors(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemFS("remote", 0)
	srv, err := peernet.NewServer(peernet.ServerConfig{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dials := 0
	pipe := peernet.PipeDialer(srv)
	c, err := peernet.NewClient(peernet.ClientConfig{
		Name: "peer:count",
		Dial: func(ctx context.Context) (net.Conn, error) {
			dials++
			return pipe(ctx)
		},
		Retries: 3,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Stat(ctx, "ghost"); !errors.Is(err, storage.ErrNotExist) {
			t.Fatalf("stat ghost: %v", err)
		}
	}
	if dials != 1 {
		t.Fatalf("dials = %d, want 1 (pooled conn reused, misses not retried)", dials)
	}
}

// TestClientDeadline: a server that never answers must fail the
// request within the per-request timeout, not hang.
func TestClientDeadline(t *testing.T) {
	c, err := peernet.NewClient(peernet.ClientConfig{
		Name: "peer:hang",
		Dial: func(ctx context.Context) (net.Conn, error) {
			client, _ := net.Pipe() // no server loop: reads/writes block
			return client, nil
		},
		Timeout: 50 * time.Millisecond,
		Retries: 0,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping of hung server succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline took %s to fire", d)
	}
}

// TestClientInstrument checks the per-peer series land in the registry
// with the right names and move with traffic.
func TestClientInstrument(t *testing.T) {
	ctx := context.Background()
	c, mem := pipeClient(t, 0, false)
	if err := mem.WriteFile(ctx, "f", bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Instrument(reg)
	if _, err := c.ReadFile(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got, _ := snap.Value("monarch_peer_requests_total", obs.L("op", "read"), obs.L("peer", "peer:test")); got < 1 {
		t.Fatalf("read requests = %v, want >= 1; snapshot: %+v", got, snap)
	}
	if got, _ := snap.Value("monarch_peer_read_bytes_total", obs.L("peer", "peer:test")); got != 100 {
		t.Fatalf("read bytes = %v, want 100", got)
	}
	found := false
	for _, p := range snap.Metrics {
		if p.Name == "monarch_peer_request_seconds" && p.Histogram != nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("latency histogram not registered")
	}
}

// TestServerTCP runs the same protocol over a real loopback socket.
func TestServerTCP(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemFS("remote", 0)
	if err := mem.WriteFile(ctx, "shard/0", []byte("tcp bytes")); err != nil {
		t.Fatal(err)
	}
	srv, err := peernet.NewServer(peernet.ServerConfig{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := peernet.NewClient(peernet.ClientConfig{
		Name: "peer:tcp",
		Dial: peernet.TCPDialer(ln.Addr().String(), time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadFile(ctx, "shard/0")
	if err != nil || string(data) != "tcp bytes" {
		t.Fatalf("tcp read: %q err=%v", data, err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("tcp ping: %v", err)
	}
	c.Close()
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v after Close", err)
	}
	// A dead server turns into transport errors, not hangs.
	c2, err := peernet.NewClient(peernet.ClientConfig{
		Name:    "peer:tcp2",
		Dial:    peernet.TCPDialer(ln.Addr().String(), 100*time.Millisecond),
		Retries: 0,
		Timeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(ctx); err == nil {
		t.Fatal("ping of closed server succeeded")
	}
}

// TestLargeReadSplitsFrames moves a payload bigger than one READ
// request so the client's windowing path runs.
func TestLargeReadSplitsFrames(t *testing.T) {
	ctx := context.Background()
	c, mem := pipeClient(t, 0, false)
	want := make([]byte, 5<<20) // > maxData (4 MiB)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := mem.WriteFile(ctx, "big", want); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("large read corrupted across frame splits")
	}
}

// TestClientCloseIdempotent: Close twice is fine, and every operation
// after Close fails fast with ErrClientClosed.
func TestClientCloseIdempotent(t *testing.T) {
	ctx := context.Background()
	c, _ := pipeClient(t, 0, false)
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := c.ReadFile(ctx, "f"); !errors.Is(err, peernet.ErrClientClosed) {
		t.Fatalf("read after close: %v, want ErrClientClosed", err)
	}
	if err := c.Ping(ctx); !errors.Is(err, peernet.ErrClientClosed) {
		t.Fatalf("ping after close: %v, want ErrClientClosed", err)
	}
}

// stallFS blocks every ReadAt until the gate opens, simulating a peer
// that accepted the request but never answers.
type stallFS struct {
	storage.Backend
	gate chan struct{}
}

func (s stallFS) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	<-s.gate
	return s.Backend.ReadAt(ctx, name, p, off)
}

// TestClientCloseDuringRead: a request blocked on a stalled peer must
// fail fast when the client closes underneath it — Close kills the
// in-flight connection instead of letting the read wait out its
// 30-second deadline.
func TestClientCloseDuringRead(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemFS("remote", 0)
	if err := mem.WriteFile(ctx, "slow", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	srv, err := peernet.NewServer(peernet.ServerConfig{
		Backend: stallFS{Backend: mem, gate: gate},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// LIFO: the gate must open before srv.Close waits on the handler
	// goroutine blocked behind it.
	defer close(gate)
	c, err := peernet.NewClient(peernet.ClientConfig{
		Name:    "peer:stalled",
		Dial:    peernet.PipeDialer(srv),
		Retries: 1,
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := c.ReadFile(ctx, "slow")
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the read reach the wire
	start := time.Now()
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, peernet.ErrClientClosed) {
			t.Fatalf("read under close: %v, want ErrClientClosed", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("read took %v to fail after Close", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read still blocked 5s after Close")
	}
}

// TestClientBackoffCappedByDeadline: with a dead dial target, retry
// sleeps must never outlive the per-op deadline. Retries 8 at 200ms
// exponential backoff would naively sleep ~51s; the op must return in
// roughly its 300ms budget.
func TestClientBackoffCappedByDeadline(t *testing.T) {
	c, err := peernet.NewClient(peernet.ClientConfig{
		Name: "peer:unreachable",
		Dial: func(ctx context.Context) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
		Retries: 8,
		Backoff: 200 * time.Millisecond,
		Timeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Ping(context.Background())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ping of unreachable peer succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v; backoff ignored the %v op deadline", elapsed, 300*time.Millisecond)
	}
}

// stalledConn is the server's end of a connection whose peer stops
// draining mid-response: the first Write of a response goes out, the
// second announces itself on stalled and waits for open. One goroutine
// serves a connection, so writes needs no lock.
type stalledConn struct {
	net.Conn
	writes        int
	stalled, open chan struct{}
}

func (c *stalledConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes == 2 {
		close(c.stalled)
		<-c.open
	}
	return c.Conn.Write(p)
}

// TestReadResponseSurvivesRemove: a server over OSFS writes a READ
// response straight out of the file's mapping, so the file can be
// removed — evicted, on a real node — while the response is still half
// on the wire. The rest of it must be the bytes the read was served,
// not a fault on pages the file no longer has.
func TestReadResponseSurvivesRemove(t *testing.T) {
	ctx := context.Background()
	osfs, err := storage.NewOSFS("ssd", t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(osfs.CloseIdle)
	want := make([]byte, 64<<10) // many pages, several socket writes
	for i := range want {
		want[i] = byte(i*31 + i>>8)
	}
	if err := osfs.WriteFile(ctx, "f", want); err != nil {
		t.Fatal(err)
	}
	srv, err := peernet.NewServer(peernet.ServerConfig{Backend: osfs})
	if err != nil {
		t.Fatal(err)
	}
	conn := &stalledConn{stalled: make(chan struct{}), open: make(chan struct{})}
	c, err := peernet.NewClient(peernet.ClientConfig{
		Name: "peer:test",
		Dial: func(context.Context) (net.Conn, error) {
			client, server := net.Pipe()
			conn.Conn = server
			go srv.ServeConn(conn)
			return client, nil
		},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})

	got := make([]byte, len(want))
	done := make(chan error, 1)
	go func() {
		n, err := c.ReadAt(ctx, "f", got, 0)
		if err == nil && n != len(want) {
			err = errors.New("short read")
		}
		done <- err
	}()
	select {
	case <-conn.stalled:
	case err := <-done:
		t.Fatalf("read finished before the response stalled: %v", err)
	}
	if err := osfs.Remove(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	osfs.CloseIdle() // nothing but the response in flight holds the file now
	close(conn.open)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("response completed after Remove differs from the file it was served from")
	}
}
