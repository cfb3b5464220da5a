package peernet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monarch/internal/storage"
)

// The READ wire path over real sockets: which of the server's two send
// paths a connection takes (sendfile for a window of an open file on a
// plain TCP connection, writev for everything else) must not be
// observable in the bytes, the statuses or the short-read semantics —
// and the sendfile path must hold the view, and with it the inode, until
// the last byte is out.

// PlainListener hides everything but net.Conn on the connections it
// accepts, as any wrapper does (the ledger's traced run has one): the
// server cannot sendfile on them and answers by its writev path.
// Exported, like ServeTCP, for the benchmarks in package peernet_test.
type PlainListener struct{ net.Listener }

func (l PlainListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return struct{ net.Conn }{conn}, nil
}

// ServeTCP serves backend on loopback — through wrap when it is not nil
// — and returns the server and a client of it, both closed with the
// test.
func ServeTCP(t testing.TB, backend storage.Backend, wrap func(net.Listener) net.Listener) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(ServerConfig{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	go srv.Serve(ln)
	c, err := NewClient(ClientConfig{Name: "peer:wire", Dial: TCPDialer(addr, time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	return srv, c
}

func tempOSFS(t testing.TB) *storage.OSFS {
	t.Helper()
	osfs, err := storage.NewOSFS("ssd", t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(osfs.CloseIdle)
	return osfs
}

// eventually polls cond until it holds, failing the test after 5s.
func eventually(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func pattern(n, seed int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31 + i>>8 + seed)
	}
	return p
}

// hookedViews is a view-lending backend whose ReadView can be watched
// and interfered with: after runs between the inner ReadView and the
// server's send, and every view's release is counted. The views stay
// windows of the inner backend's open file (FileWindow is forwarded),
// so a plain TCP connection still takes the sendfile path.
type hookedViews struct {
	*storage.OSFS
	after          func()
	decoy          bool // lend zeros in place of the file's bytes
	lent, released atomic.Int32
	sawWindow      atomic.Int32
}

type hookedWindow struct {
	inner storage.Releaser
	h     *hookedViews
}

func (w *hookedWindow) Release() {
	w.inner.Release()
	w.h.released.Add(1)
}

func (w *hookedWindow) File() *os.File { return w.inner.(storage.FileWindow).File() }

func (h *hookedViews) ReadView(ctx context.Context, name string, off, n int64) (storage.View, error) {
	v, err := h.OSFS.ReadView(ctx, name, off, n)
	if err != nil || v.R == nil {
		return v, err
	}
	h.lent.Add(1)
	if _, ok := v.R.(storage.FileWindow); ok {
		h.sawWindow.Add(1)
	}
	if h.decoy {
		v.Data = make([]byte, len(v.Data))
	}
	if h.after != nil {
		h.after()
	}
	v.R = &hookedWindow{inner: v.R, h: h}
	return v, nil
}

// TestReadPathParity runs one table of reads — offset 0, mid-file, the
// last partial window, at and past EOF, an empty file, a missing one —
// through every transport the server has a send path for, and holds
// each to what the backend's own ReadAt returns for the same arguments.
func TestReadPathParity(t *testing.T) {
	ctx := context.Background()
	const size = 3*sendfileMin + 1234 // the last window is partial
	want := pattern(size, 1)
	seed := func(t *testing.T, b storage.Backend) storage.Backend {
		for name, data := range map[string][]byte{"f": want, "empty": {}, "big": pattern(sendfileMax+4096, 2)} {
			if err := b.WriteFile(ctx, name, data); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	wrap := func(ln net.Listener) net.Listener { return PlainListener{ln} }
	transports := []struct {
		name  string
		build func(t *testing.T) (storage.Backend, *Client)
	}{
		{"sendfile", func(t *testing.T) (storage.Backend, *Client) {
			b := seed(t, tempOSFS(t))
			_, c := ServeTCP(t, b, nil)
			return b, c
		}},
		{"writev", func(t *testing.T) (storage.Backend, *Client) {
			b := seed(t, tempOSFS(t))
			_, c := ServeTCP(t, b, wrap)
			return b, c
		}},
		{"memfs", func(t *testing.T) (storage.Backend, *Client) {
			b := seed(t, storage.NewMemFS("mem", 0))
			_, c := ServeTCP(t, b, nil)
			return b, c
		}},
		{"pipe", func(t *testing.T) (storage.Backend, *Client) {
			b := seed(t, tempOSFS(t))
			srv, err := NewServer(ServerConfig{Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewClient(ClientConfig{Dial: PipeDialer(srv)})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				c.Close()
				srv.Close()
			})
			return b, c
		}},
	}
	reads := []struct {
		name string
		file string
		off  int64
		n    int
	}{
		{"start", "f", 0, sendfileMin},
		{"mid", "f", sendfileMin + 77, sendfileMin},
		{"whole", "f", 0, size},
		{"last partial window", "f", 3 * sendfileMin, sendfileMin},
		{"below sendfileMin", "f", 5, sendfileMin - 1},
		{"above sendfileMax", "big", 1, sendfileMax + 1},
		{"short of a window by EOF", "f", size - 10, 4096},
		{"at EOF", "f", size, 4096},
		{"past EOF", "f", size + 4096, 4096},
		{"empty file", "empty", 0, 4096},
		{"no bytes asked", "f", 100, 0},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			backend, c := tr.build(t)
			for _, rd := range reads {
				ref := make([]byte, rd.n)
				refN, refErr := backend.ReadAt(ctx, rd.file, ref, rd.off)
				if refErr != nil {
					t.Fatalf("%s: backend read: %v", rd.name, refErr)
				}
				got := bytes.Repeat([]byte{0xEE}, rd.n+8)
				n, err := c.ReadAt(ctx, rd.file, got[:rd.n], rd.off)
				if err != nil || n != refN {
					t.Fatalf("%s: n=%d err=%v, backend read %d", rd.name, n, err, refN)
				}
				if !bytes.Equal(got[:n], ref[:refN]) {
					t.Fatalf("%s: bytes differ from the backend's ReadAt", rd.name)
				}
				if !bytes.Equal(got[n:], bytes.Repeat([]byte{0xEE}, rd.n+8-n)) {
					t.Fatalf("%s: wrote past the %d bytes read", rd.name, n)
				}
			}
			if _, err := c.ReadAt(ctx, "missing", make([]byte, 8), 0); !errors.Is(err, storage.ErrNotExist) {
				t.Fatalf("missing file: %v", err)
			}
			if _, err := c.ReadAt(ctx, "../escape", make([]byte, 8), 0); err == nil {
				t.Fatal("invalid name accepted")
			}
			// The connection is in step after all of it.
			if err := c.Ping(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSendPathSelection proves which path a response took without a
// hook in the server: the backend lends views whose Data is zeros but
// whose Releaser still names the open file. A body the kernel moved
// from the descriptor arrives as the file's bytes; one written from
// Data arrives as zeros.
func TestSendPathSelection(t *testing.T) {
	ctx := context.Background()
	want := pattern(sendfileMax+8192, 3)
	for _, tc := range []struct {
		name     string
		wrap     func(net.Listener) net.Listener
		n        int
		sendfile bool
	}{
		{"plain conn, body in the window", nil, 256 << 10, runtime.GOOS == "linux"},
		{"plain conn, body of sendfileMin", nil, sendfileMin, runtime.GOOS == "linux"},
		{"plain conn, body of sendfileMax", nil, sendfileMax, runtime.GOOS == "linux"},
		{"plain conn, body below sendfileMin", nil, sendfileMin - 1, false},
		{"plain conn, body above sendfileMax", nil, sendfileMax + 1, false},
		{"wrapped conn", func(ln net.Listener) net.Listener { return PlainListener{ln} }, 256 << 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &hookedViews{OSFS: tempOSFS(t), decoy: true}
			if err := h.WriteFile(ctx, "f", want); err != nil {
				t.Fatal(err)
			}
			_, c := ServeTCP(t, h, tc.wrap)
			got := make([]byte, tc.n)
			const off = 4096 + 17
			if n, err := c.ReadAt(ctx, "f", got, off); err != nil || n != tc.n {
				t.Fatalf("n=%d err=%v", n, err)
			}
			if h.sawWindow.Load() != 1 {
				t.Fatal("the OSFS view's Releaser is not a storage.FileWindow")
			}
			expect := make([]byte, tc.n) // the decoy's zeros: written from Data
			if tc.sendfile {
				expect = want[off : off+tc.n]
			}
			if !bytes.Equal(got, expect) {
				t.Fatalf("sendfile=%v expected; the body says otherwise", tc.sendfile)
			}
			// The server lets go once its send returns, which the
			// client's read does not wait for.
			eventually(t, func() bool { return h.released.Load() == h.lent.Load() }, "the view is released")
		})
	}
}

// TestSendfileKeepsTheInode: the name is overwritten, or removed,
// between the server's view and its send. The response is the old
// inode's bytes, whole — the view's reference keeps the descriptor the
// kernel reads from open and OSFS never rewrites an inode in place —
// and the read after it sees the change.
func TestSendfileKeepsTheInode(t *testing.T) {
	ctx := context.Background()
	old, replaced := pattern(256<<10, 4), pattern(300<<10, 5)
	for _, tc := range []struct {
		name      string
		interfere func(*storage.OSFS) error
		after     func(t *testing.T, c *Client)
	}{
		{"WriteFile", func(o *storage.OSFS) error { return o.WriteFile(ctx, "f", replaced) },
			func(t *testing.T, c *Client) {
				got := make([]byte, len(replaced))
				if n, err := c.ReadAt(ctx, "f", got, 0); err != nil || !bytes.Equal(got[:n], replaced) {
					t.Fatalf("read after the overwrite: n=%d err=%v", n, err)
				}
			}},
		{"Remove", func(o *storage.OSFS) error { return o.Remove(ctx, "f") },
			func(t *testing.T, c *Client) {
				if _, err := c.ReadAt(ctx, "f", make([]byte, 8), 0); !errors.Is(err, storage.ErrNotExist) {
					t.Fatalf("read after the remove: %v", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := &hookedViews{OSFS: tempOSFS(t)}
			if err := h.WriteFile(ctx, "f", old); err != nil {
				t.Fatal(err)
			}
			var once sync.Once
			h.after = func() {
				once.Do(func() {
					if err := tc.interfere(h.OSFS); err != nil {
						t.Error(err)
					}
					h.CloseIdle() // only the view in flight holds the old inode now
				})
			}
			_, c := ServeTCP(t, h, nil)
			got := make([]byte, len(old))
			if n, err := c.ReadAt(ctx, "f", got, 0); err != nil || n != len(old) {
				t.Fatalf("n=%d err=%v", n, err)
			}
			if !bytes.Equal(got, old) {
				t.Fatal("the response is not the inode the view was taken from")
			}
			tc.after(t, c)
		})
	}
}

// TestConcurrentStreamsOfOneFile: two clients stream the same file in
// interleaved windows. They share one descriptor in the server's
// backend, whose file position the send path must therefore never use.
func TestConcurrentStreamsOfOneFile(t *testing.T) {
	ctx := context.Background()
	osfs := tempOSFS(t)
	want := pattern(2<<20+999, 6)
	if err := osfs.WriteFile(ctx, "f", want); err != nil {
		t.Fatal(err)
	}
	_, c1 := ServeTCP(t, osfs, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		c := c1 // two goroutines per client: two connections each
		if i >= 2 {
			var err error
			if c, err = NewClient(ClientConfig{Dial: c1.cfg.Dial}); err != nil {
				t.Fatal(err)
			}
			defer c.Close()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			window := (64 << 10) << (i % 3)
			got := make([]byte, window)
			for pass := 0; pass < 3; pass++ {
				for off := 0; off < len(want); off += window {
					n, err := c.ReadAt(ctx, "f", got, int64(off))
					if err != nil {
						t.Errorf("stream %d: off %d: %v", i, off, err)
						return
					}
					if !bytes.Equal(got[:n], want[off:min(off+window, len(want))]) {
						t.Errorf("stream %d: off %d: %d bytes differ from the file", i, off, n)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

// smallBuffers shrinks the send buffer of every accepted connection and
// hands it on as the *net.TCPConn it is, so a body the size of
// sendfileMax cannot leave in one piece and the sender parks on the
// poller with the view held.
type smallBuffers struct{ net.Listener }

func (l smallBuffers) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		err = conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	return conn, err
}

// openFDs counts this process's descriptors open on a path under dir.
func openFDs(t *testing.T, dir string) int {
	t.Helper()
	links, err := filepath.Glob("/proc/self/fd/*")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, l := range links {
		if target, err := os.Readlink(l); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestClientGoneMidBody: the requester closes with most of the body
// still to come. The send fails, the server's loop for the connection
// exits, the view is released — and with the table's reference dropped
// too, nothing holds the file's descriptor open.
func TestClientGoneMidBody(t *testing.T) {
	ctx := context.Background()
	h := &hookedViews{OSFS: tempOSFS(t)}
	if err := h.WriteFile(ctx, "f", pattern(sendfileMax, 7)); err != nil {
		t.Fatal(err)
	}
	srv, c := ServeTCP(t, h, func(ln net.Listener) net.Listener { return smallBuffers{ln} })
	conn, err := c.cfg.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, OpRead, appendReadReq(nil, "f", 0, sendfileMax)); err != nil {
		t.Fatal(err)
	}
	// The header and a little of the body: the response is under way, and
	// what is left of it is larger than both sockets' buffers.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, make([]byte, 5+1024)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // a send that could finish would have
	if h.lent.Load() != 1 || h.released.Load() != 0 {
		t.Fatalf("mid-body: %d views lent, %d released", h.lent.Load(), h.released.Load())
	}
	conn.Close()

	eventually(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	}, "the server's loop for the connection has exited")
	if h.released.Load() != 1 {
		t.Fatal("the loop exited with the view still held")
	}
	h.CloseIdle()
	if runtime.GOOS == "linux" {
		if n := openFDs(t, h.Root()); n != 0 {
			t.Fatalf("%d descriptors still open under the backend's root", n)
		}
	}
}

// TestOverlongBodyFailsTheRead: a peer answers a READ with an OK body
// one byte longer than the range asked for. The read fails as
// malformed with nothing written past the caller's buffer, and the
// connection — a byte of the stream still unread — is discarded, not
// pooled: the next request dials.
func TestOverlongBodyFailsTheRead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer conn.Close()
				var hdr [13]byte
				for {
					op, _, payload, err := readFrame(conn, &hdr)
					if err != nil {
						return
					}
					resp := []byte(nil)
					if op == OpRead {
						rq, _ := parseReadReq(payload)
						resp = bytes.Repeat([]byte{0x77}, int(rq.n)+1)
					}
					if writeFrame(conn, StatusOK, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	c, err := NewClient(ClientConfig{Dial: TCPDialer(ln.Addr().String(), time.Second), Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xEE}, 64+8)
	n, err := c.ReadAt(ctx, "f", buf[:64], 0)
	if !errors.Is(err, errMalformed) || n != 0 {
		t.Fatalf("n=%d err=%v, want a malformed frame", n, err)
	}
	if !bytes.Equal(buf[64:], bytes.Repeat([]byte{0xEE}, 8)) {
		t.Fatal("wrote past the caller's buffer")
	}
	if got := accepted.Load(); got != 1 {
		t.Fatalf("%d connections before the next request, want 1", got)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after the failed read: %v", err)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("%d connections after the next request, want 2: the failed one was reused", got)
	}
}

// TestReadPathAllocations pins the per-read garbage of the peer path:
// hashing a name and routing a one-replica read allocate nothing, and a
// warm READ over loopback TCP costs at most two allocations, both ends
// of it counted (they share the process): the server's copy of the name
// and its recycled request payload.
func TestReadPathAllocations(t *testing.T) {
	ring, err := NewRing([]string{"nodeA", "nodeB", "nodeC"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var owner string
	if n := testing.AllocsPerRun(100, func() { owner = ring.Owner("data/shard-0001.rec") }); n != 0 {
		t.Fatalf("Ring.Owner allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { ring.OwnedBy("data/shard-0001.rec", owner, 1) }); n != 0 {
		t.Fatalf("Ring.OwnedBy with one replica allocates %.0f times", n)
	}

	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector makes sync.Pool drop what it is given")
			}
		}
	}
	ctx := context.Background()
	osfs := tempOSFS(t)
	if err := osfs.WriteFile(ctx, "data/shard-0001.rec", pattern(256<<10, 8)); err != nil {
		t.Fatal(err)
	}
	_, c := ServeTCP(t, osfs, nil)
	self := "nodeA"
	if owner == self {
		self = "nodeB"
	}
	clients := map[string]*Client{}
	for _, node := range ring.Nodes() {
		if node != self {
			clients[node] = c
		}
	}
	tier, err := NewTier("peers", self, ring, clients)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 256<<10)
	for name, read := range map[string]func() (int, error){
		"Client.ReadAt": func() (int, error) { return c.ReadAt(ctx, "data/shard-0001.rec", p, 0) },
		"Tier.ReadAt":   func() (int, error) { return tier.ReadAt(ctx, "data/shard-0001.rec", p, 0) },
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if n, err := read(); err != nil || n != len(p) {
				t.Fatalf("%s: n=%d err=%v", name, n, err)
			}
		})
		if allocs > 2 {
			t.Fatalf("a warm 256 KiB %s over TCP allocates %.1f times, want at most 2", name, allocs)
		}
	}
}

// lateCancelConn is a client connection that lands a request's cancel
// at the worst moment: Read cancels the request's context (cancel, taken
// once) as the response's last byte arrives, and the past deadline a
// cancel sets is held back until the connection's next request has set
// its own — as late as anything the cancel woke could ever run — or
// until the connection is closed.
type lateCancelConn struct {
	net.Conn
	respLen, got int
	cancel       *atomic.Pointer[context.CancelFunc]

	mu     sync.Mutex
	next   chan struct{} // closed when a request sets its deadline
	closed chan struct{}
	once   sync.Once
}

func (c *lateCancelConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.got += n; c.got >= c.respLen {
		c.got = 0
		if cancel := c.cancel.Swap(nil); cancel != nil {
			(*cancel)()
		}
	}
	return n, err
}

func (c *lateCancelConn) SetDeadline(t time.Time) error {
	if !t.IsZero() && t.Before(time.Now()) {
		c.mu.Lock()
		next := c.next
		c.mu.Unlock()
		select {
		case <-next:
		case <-c.closed:
		}
		return c.Conn.SetDeadline(t)
	}
	err := c.Conn.SetDeadline(t)
	if !t.IsZero() {
		c.mu.Lock()
		close(c.next)
		c.next = make(chan struct{})
		c.mu.Unlock()
	}
	return err
}

func (c *lateCancelConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestCancelAsResponseCompletesSparesTheNextRequest: a request whose
// context is cancelled just as its response completes (a hedged read's
// loser, cancelled by the winner) still gets its response, and the
// cancel — however late it takes effect — never reaches the next
// request: the connection it might poison is not pooled, so no later
// request pays a transport error and a backoff for it.
func TestCancelAsResponseCompletesSparesTheNextRequest(t *testing.T) {
	mem := storage.NewMemFS("remote", 0)
	body := pattern(100, 3)
	if err := mem.WriteFile(context.Background(), "f", body); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	var cancelNext atomic.Pointer[context.CancelFunc]
	c, err := NewClient(ClientConfig{Name: "peer:late", Dial: func(ctx context.Context) (net.Conn, error) {
		client, server := net.Pipe()
		go srv.ServeConn(server)
		return &lateCancelConn{Conn: client, respLen: 5 + len(body), cancel: &cancelNext,
			next: make(chan struct{}), closed: make(chan struct{})}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	p := make([]byte, len(body))
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancelNext.Store(&cancel)
		if n, err := c.ReadAt(ctx, "f", p, 0); err != nil || !bytes.Equal(p[:n], body) {
			t.Fatalf("round %d: the cancelled read: n=%d err=%v", i, n, err)
		}
		if n, err := c.ReadAt(context.Background(), "f", p, 0); err != nil || !bytes.Equal(p[:n], body) {
			t.Fatalf("round %d: the next read: n=%d err=%v", i, n, err)
		}
	}
	if n := c.TransportErrors(); n != 0 {
		t.Fatalf("%d transport errors: a late cancel reached a pooled connection", n)
	}
}
