package peernet_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"monarch/internal/obs"
	"monarch/internal/peernet"
	"monarch/internal/storage"
)

// statsClient builds a server with a Stats source and a Trace hook and
// returns a connected client plus the span sink.
func statsClient(t *testing.T, stats func() (peernet.NodeStats, error)) (*peernet.Client, *storage.MemFS, *spanSink) {
	t.Helper()
	mem := storage.NewMemFS("remote", 0)
	sink := &spanSink{}
	srv, err := peernet.NewServer(peernet.ServerConfig{
		Backend: mem,
		Stats:   stats,
		Trace:   sink.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := peernet.NewClient(peernet.ClientConfig{
		Name:    "peer:stats",
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
	return c, mem, sink
}

// spanSink collects serve spans emitted by a server's Trace hook.
type spanSink struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (s *spanSink) hook(sp obs.Span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

func (s *spanSink) all() []obs.Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Span(nil), s.spans...)
}

// TestClientStatsRoundtrip sends a full NodeStats — registry snapshot,
// gossip view, job ledger — across the wire and checks nothing is lost.
func TestClientStatsRoundtrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("stats_reads_total", "", obs.L("tier", "0")).Add(7)
	reg.Gauge("stats_depth", "").Set(2.5)

	want := peernet.NodeStats{
		Node:    "node3",
		Metrics: reg.Snapshot(),
		Gossip: []peernet.GossipEntry{
			{Node: "node1", State: "alive"},
			{Node: "node2", State: "suspect"},
		},
		Jobs: map[string]peernet.JobCounters{
			"resnet": {ReadsServed: 9, BytesServed: 4096, Hits: 6, Evictions: 1},
		},
	}
	c, _, _ := statsClient(t, func() (peernet.NodeStats, error) { return want, nil })

	got, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != "node3" {
		t.Fatalf("node = %q, want node3", got.Node)
	}
	if v, ok := got.Metrics.Int("stats_reads_total", obs.L("tier", "0")); !ok || v != 7 {
		t.Fatalf("counter travelled as %d (found=%v), want 7", v, ok)
	}
	if len(got.Gossip) != 2 || got.Gossip[1].State != "suspect" {
		t.Fatalf("gossip view = %+v", got.Gossip)
	}
	if jc := got.Jobs["resnet"]; jc.BytesServed != 4096 || jc.Hits != 6 {
		t.Fatalf("job ledger = %+v", got.Jobs)
	}
}

// TestClientStatsSourceError propagates a failing stats source as a
// remote error, not a transport failure (which would trigger retries).
func TestClientStatsSourceError(t *testing.T) {
	c, _, _ := statsClient(t, func() (peernet.NodeStats, error) {
		return peernet.NodeStats{}, context.DeadlineExceeded
	})
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("Stats against a failing source returned nil error")
	}
}

// TestRequestIDTravelsToServeSpan is the wire half of cross-node trace
// correlation: a request ID placed in the client's context must arrive
// in the server's serve span, and reads without one must carry zero.
func TestRequestIDTravelsToServeSpan(t *testing.T) {
	ctx := context.Background()
	c, mem, sink := statsClient(t, nil)
	if err := mem.WriteFile(ctx, "shard-0", make([]byte, 128)); err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 64)
	rctx, _ := obs.WithReadAnnotation(ctx, 0xabcdef12345)
	if _, err := c.ReadAt(rctx, "shard-0", buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(ctx, "shard-0", buf, 64); err != nil {
		t.Fatal(err)
	}

	spans := sink.all()
	if len(spans) != 2 {
		t.Fatalf("server emitted %d serve spans, want 2", len(spans))
	}
	var stamped, bare int
	for _, sp := range spans {
		if sp.Kind != obs.SpanPeerServe || sp.File != "shard-0" {
			t.Fatalf("unexpected span %+v", sp)
		}
		switch sp.Req {
		case 0xabcdef12345:
			stamped++
		case 0:
			bare++
		default:
			t.Fatalf("span carries foreign request ID %016x", sp.Req)
		}
	}
	if stamped != 1 || bare != 1 {
		t.Fatalf("stamped=%d bare=%d, want 1 and 1", stamped, bare)
	}
}

// TestStatsAgainstPlainServer checks the compatibility story: a server
// built without a Stats source answers StatusInvalid, which the client
// surfaces as an error rather than garbage.
func TestStatsAgainstPlainServer(t *testing.T) {
	c, _ := pipeClient(t, 0, false)
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("Stats against a stats-less server returned nil error")
	}
}
