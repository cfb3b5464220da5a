package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"monarch/internal/peernet"
	"monarch/internal/pool"
	"monarch/internal/storage"
	"monarch/internal/storage/storagetest"
)

// Instrumentation must not change behaviour: the shim-wrapped MemFS and
// OSFS pass the same contracts the bare ones do.
func TestBackendShimConformance(t *testing.T) {
	factories := map[string]storagetest.Factory{
		"memfs": func(capacity int64) storage.Backend {
			return shimBackend(storage.NewMemFS("mem", capacity), newRecorder(), "storage.tier0", &ioBytes{})
		},
		"osfs": func(capacity int64) storage.Backend {
			o, err := storage.NewOSFS("os", t.TempDir(), capacity)
			if err != nil {
				t.Fatal(err)
			}
			return shimBackend(o, newRecorder(), "storage.tier0", &ioBytes{})
		},
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			storagetest.RunConformance(t, mk)
			storagetest.RunRangeWriterConformance(t, mk)
			storagetest.RunViewReaderConformance(t, mk)
		})
	}
}

// pingOnly is a read-only tier in the shape of peernet.Tier: a Backend
// with storage.Pinger and nothing else optional.
type pingOnly struct {
	storage.Backend
	pings atomic.Int64
}

func (p *pingOnly) Ping(context.Context) error { p.pings.Add(1); return nil }

// bare hides every optional interface of the backend it wraps.
type bare struct{ storage.Backend }

// The middleware type-asserts for optional interfaces, so a shim must
// have exactly the ones its inner backend has.
func TestBackendShimForwardsCapabilities(t *testing.T) {
	has := func(b storage.Backend) (rw, view, ping bool) {
		_, rw = b.(storage.RangeWriter)
		_, view = b.(storage.ViewReader)
		_, ping = b.(storage.Pinger)
		return
	}
	mem := storage.NewMemFS("m", 0)
	pinger := &pingOnly{Backend: bare{mem}}
	cases := []struct {
		name           string
		inner          storage.Backend
		rw, view, ping bool
	}{
		{"memfs", mem, true, true, false},
		{"pfs emulator", newThrottle(mem, pfsModel{}), true, false, false},
		{"peer tier", pinger, false, false, true},
		{"plain", bare{mem}, false, false, false},
	}
	for _, c := range cases {
		rw, view, ping := has(shimBackend(c.inner, newRecorder(), "x", &ioBytes{}))
		if rw != c.rw || view != c.view || ping != c.ping {
			t.Errorf("%s: shim has RangeWriter=%v ViewReader=%v Pinger=%v, inner has %v %v %v",
				c.name, rw, view, ping, c.rw, c.view, c.ping)
		}
	}
	if err := shimBackend(pinger, newRecorder(), "x", &ioBytes{}).(storage.Pinger).Ping(context.Background()); err != nil || pinger.pings.Load() != 1 {
		t.Fatalf("Ping not forwarded: err=%v pings=%d", err, pinger.pings.Load())
	}
}

func TestBackendShimRecordsSpansUnderTheCallersSpan(t *testing.T) {
	ctx := context.Background()
	rec := newRecorder()
	io := &ioBytes{}
	b := shimBackend(storage.NewMemFS("m", 0), rec, "storage.tier0", io)
	if err := b.WriteFile(ctx, "f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	root := rec.begin(ctx, "core.readat")
	if _, err := b.ReadAt(root.within(ctx), "f", make([]byte, 4), 2); err != nil {
		t.Fatal(err)
	}
	v, err := b.(storage.ViewReader).ReadView(root.within(ctx), "f", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	root.end()

	set := indexSpans(rec.snapshot())
	if got := len(set.byName["storage.tier0.writefile"]); got != 1 {
		t.Fatalf("%d writefile spans, want 1", got)
	}
	if set.byName["storage.tier0.writefile"][0].Parent != 0 {
		t.Fatal("a call with no enclosing span must be a root")
	}
	kids := set.children[root.id]
	if len(kids) != 2 {
		t.Fatalf("root has %d children, want the ReadAt and the ReadView", len(kids))
	}
	for _, k := range kids {
		if k.Req != root.id {
			t.Fatalf("child %s carries request %d, want the root's %d", k.Name, k.Req, root.id)
		}
	}
	self := set.selfTimes(set.byName["core.readat"])[0]
	whole := durations(set.byName["core.readat"])[0]
	if self <= 0 || self >= whole {
		t.Fatalf("self time %v must be positive and less than the span's %v", self, whole)
	}
	if io.written.Load() != 10 || io.read.Load() != 7 {
		t.Fatalf("byte counters: written %d read %d, want 10 and 7", io.written.Load(), io.read.Load())
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	set := indexSpans([]span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "c", Start: 30, End: 70},  // overlaps the first
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // runs past the parent
	})
	if got := set.selfTimes(set.byName["p"])[0]; got != 30 {
		t.Fatalf("self time %v, want 100 - [10,70) - [90,100) = 30", got)
	}
}

// The pool shim against internal/pool's own expectations of a GoPool:
// every task runs, Close drains, a closed pool refuses work, Shutdown
// cancels what is running, and load is visible through Introspector.
func TestPoolShim(t *testing.T) {
	shim := func(n int) (*poolShim, *recorder) {
		rec := newRecorder()
		return &poolShim{inner: pool.NewGoPool(n), rec: rec}, rec
	}

	t.Run("RunsAllTasksAndCloseDrains", func(t *testing.T) {
		p, rec := shim(1)
		var order []int
		for i := 0; i < 50; i++ {
			if !p.Submit(func(context.Context) { order = append(order, i) }) {
				t.Fatal("submit refused")
			}
		}
		p.Close()
		if len(order) != 50 {
			t.Fatalf("close lost tasks: %d of 50 ran", len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("one worker ran task %d in position %d: the shim reordered the queue", got, i)
			}
		}
		if p.Submit(func(context.Context) {}) {
			t.Fatal("submit after close should be refused")
		}
		set := indexSpans(rec.snapshot())
		if q, r := len(set.byName["pool.queue"]), len(set.byName["pool.task"]); q != 50 || r != 50 {
			t.Fatalf("%d queue and %d task spans, want 50 each", q, r)
		}
	})

	t.Run("TaskSpansParentBackendCalls", func(t *testing.T) {
		p, rec := shim(2)
		b := shimBackend(storage.NewMemFS("m", 0), rec, "storage.tier0", &ioBytes{})
		p.Submit(func(ctx context.Context) { _ = b.WriteFile(ctx, "f", []byte("x")) })
		p.Close()
		set := indexSpans(rec.snapshot())
		task, write := set.byName["pool.task"][0], set.byName["storage.tier0.writefile"][0]
		if write.Parent != task.ID {
			t.Fatalf("placement write has parent %d, want the task span %d", write.Parent, task.ID)
		}
	})

	t.Run("PendingWorkersStats", func(t *testing.T) {
		p, _ := shim(3)
		release := make(chan struct{})
		p.Submit(func(context.Context) { <-release })
		p.Submit(func(context.Context) { <-release })
		deadline := time.Now().Add(5 * time.Second)
		for p.Stats().Active != 2 {
			if time.Now().After(deadline) {
				t.Fatalf("stats = %+v, want 2 active", p.Stats())
			}
			time.Sleep(time.Millisecond)
		}
		if p.Pending() != 2 || p.Workers() != 3 || p.Stats().Workers != 3 {
			t.Fatalf("pending %d workers %d stats %+v", p.Pending(), p.Workers(), p.Stats())
		}
		close(release)
		p.Close()
		if p.Pending() != 0 {
			t.Fatalf("pending = %d after close", p.Pending())
		}
	})

	t.Run("ShutdownCancelsRunningTask", func(t *testing.T) {
		p, _ := shim(1)
		started, saw := make(chan struct{}), make(chan error, 1)
		p.Submit(func(ctx context.Context) {
			close(started)
			<-ctx.Done()
			saw <- ctx.Err()
		})
		<-started
		p.Shutdown()
		if err := <-saw; err == nil {
			t.Fatal("running task saw nil ctx.Err after Shutdown")
		}
		if p.Submit(func(context.Context) {}) {
			t.Fatal("submit after shutdown accepted")
		}
	})
}

// The connection shims carry a real peer read unchanged and count what
// crossed both ends.
func TestConnShimsCarryAPeerRead(t *testing.T) {
	ctx := context.Background()
	rec := newRecorder()
	client, server := &sockStats{}, &sockStats{}
	mem := storage.NewMemFS("tier0", 0)
	content := make([]byte, 300<<10)
	for i := range content {
		content[i] = byte(i * 7)
	}
	if err := mem.WriteFile(ctx, "shard", content); err != nil {
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
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		_ = srv.Serve(&listenerShim{Listener: ln, rec: rec, stats: server})
	}()
	c, err := peernet.NewClient(peernet.ClientConfig{
		Dial: shimDialer(peernet.TCPDialer(ln.Addr().String(), time.Second), rec, client),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 256<<10)
	for i := 0; i < 3; i++ {
		n, err := c.ReadAt(ctx, "shard", p, 1000)
		if err != nil || n != len(p) || string(p) != string(content[1000:1000+len(p)]) {
			t.Fatalf("read %d through the shims: n=%d err=%v", i, n, err)
		}
	}
	c.Close()
	srv.Close()
	serving.Wait()

	if client.dials.Load() != 1 {
		t.Fatalf("%d dials, want one pooled connection", client.dials.Load())
	}
	if in, out := client.bytesIn.Load(), server.bytesOut.Load(); in != out || in < 3*int64(len(p)) {
		t.Fatalf("client read %d bytes, server wrote %d, payload was %d", in, out, 3*len(p))
	}
	if server.awake.Load() <= 0 {
		t.Fatal("server time between socket reads not accounted")
	}
	set := indexSpans(rec.snapshot())
	for _, name := range []string{"peernet.sock.read", "peernet.sock.write", "peernet.srvsock.read", "peernet.srvsock.write"} {
		if len(set.byName[name]) == 0 {
			t.Errorf("no %s spans", name)
		}
	}
}
