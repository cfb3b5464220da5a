package peernet_test

import (
	"context"
	"fmt"
	"net"
	"testing"

	"monarch/internal/peernet"
	"monarch/internal/storage"
)

// benchServer seeds a MemFS with one file and serves it.
func benchServer(b *testing.B, size int) *peernet.Server {
	b.Helper()
	srv, err := peernet.NewServer(peernet.ServerConfig{Backend: benchSeed(b, storage.NewMemFS("remote", 0), size)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

// benchFile is an OSFS holding the one file: its views are windows of
// an open file, which a TCP connection sends with sendfile(2) on linux.
func benchFile(b *testing.B, size int) storage.Backend {
	b.Helper()
	osfs, err := storage.NewOSFS("remote", b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(osfs.CloseIdle)
	return benchSeed(b, osfs, size)
}

// benchSeed writes the one file every read benchmark reads.
func benchSeed(b *testing.B, backend storage.Backend, size int) storage.Backend {
	b.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	if err := backend.WriteFile(context.Background(), "bench.rec", data); err != nil {
		b.Fatal(err)
	}
	return backend
}

// benchRead drives b.N whole-file reads through c and reports MB/s.
func benchRead(b *testing.B, c *peernet.Client, size int) {
	ctx := context.Background()
	b.ReportAllocs()
	p := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := c.ReadAt(ctx, "bench.rec", p, 0)
		if err != nil || n != size {
			b.Fatalf("read: n=%d err=%v", n, err)
		}
	}
}

// BenchmarkPeerRead measures one-request read latency/throughput over
// both transports at dataset-shard-ish sizes, client and server in one
// process (so B/op and allocs/op are both ends'). tcp and pipe serve a
// MemFS; tcp-file serves an OSFS over a plain TCP connection — the
// sendfile path on linux — and tcp-view the same OSFS over a wrapped
// one, which is the writev path: the pair prices sendfile against it.
func BenchmarkPeerRead(b *testing.B) {
	sizes := []int{4 << 10, 256 << 10, 4 << 20}

	for _, size := range sizes {
		size := size
		b.Run(fmt.Sprintf("pipe/%dKB", size>>10), func(b *testing.B) {
			srv := benchServer(b, size)
			c, err := peernet.NewClient(peernet.ClientConfig{
				Name: "peer:pipe",
				Dial: peernet.PipeDialer(srv),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			benchRead(b, c, size)
		})

		b.Run(fmt.Sprintf("tcp/%dKB", size>>10), func(b *testing.B) {
			_, c := peernet.ServeTCP(b, benchSeed(b, storage.NewMemFS("remote", 0), size), nil)
			benchRead(b, c, size)
		})
		b.Run(fmt.Sprintf("tcp-file/%dKB", size>>10), func(b *testing.B) {
			_, c := peernet.ServeTCP(b, benchFile(b, size), nil)
			benchRead(b, c, size)
		})
		b.Run(fmt.Sprintf("tcp-view/%dKB", size>>10), func(b *testing.B) {
			wrap := func(ln net.Listener) net.Listener { return peernet.PlainListener{Listener: ln} }
			_, c := peernet.ServeTCP(b, benchFile(b, size), wrap)
			benchRead(b, c, size)
		})
	}
}

// BenchmarkPeerStat measures the metadata round trip — the per-request
// floor under the protocol.
func BenchmarkPeerStat(b *testing.B) {
	srv := benchServer(b, 1024)
	c, err := peernet.NewClient(peernet.ClientConfig{
		Name: "peer:pipe",
		Dial: peernet.PipeDialer(srv),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stat(ctx, "bench.rec"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeerReadHedged prices the hedging machinery on the healthy
// path: a 2-replica tier reading through fast pipe transports, hedging
// armed. "off" is the same tier with hedging disabled, so the diff is
// the pure cost of arming a hedge timer per read (the unhealthy path —
// a hedge actually firing — is priced by the experiment, not a
// microbenchmark).
func BenchmarkPeerReadHedged(b *testing.B) {
	const size = 256 << 10
	build := func(b *testing.B, hedge bool) *peernet.Tier {
		ring, err := peernet.NewRing([]string{"self", "node1", "node2"}, 0)
		if err != nil {
			b.Fatal(err)
		}
		clients := map[string]*peernet.Client{}
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i)
		}
		for _, node := range []string{"node1", "node2"} {
			mem := storage.NewMemFS(node, 0)
			if err := mem.WriteFile(context.Background(), "bench.rec", data); err != nil {
				b.Fatal(err)
			}
			srv, err := peernet.NewServer(peernet.ServerConfig{Backend: mem})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close() })
			c, err := peernet.NewClient(peernet.ClientConfig{
				Name: "peer:" + node,
				Dial: peernet.PipeDialer(srv),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			clients[node] = c
		}
		tier, err := peernet.NewTierWithConfig(peernet.TierConfig{
			Self: "self", Ring: ring, Clients: clients, Replicas: 2,
			Hedge: peernet.HedgeConfig{Enabled: hedge, MinSamples: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		return tier
	}

	for _, mode := range []struct {
		name  string
		hedge bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			tier := build(b, mode.hedge)
			ctx := context.Background()
			p := make([]byte, size)
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := tier.ReadAt(ctx, "bench.rec", p, 0)
				if err != nil || n != size {
					b.Fatalf("read: n=%d err=%v", n, err)
				}
			}
		})
	}
}
