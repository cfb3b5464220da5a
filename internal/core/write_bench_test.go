package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"monarch/internal/pool"
	"monarch/internal/storage"
)

// benchWriteStack builds a write-enabled middleware over MemFS tiers,
// the PFS behind a Counting so the loop can say how many bytes crossed
// to it. journal=true adds a real on-disk journal (the WAL append is
// the dominant cost it measures); durability picks the ack path.
func benchWriteStack(b *testing.B, d Durability, journaled bool) (*Monarch, *storage.Counting) {
	b.Helper()
	ctx := context.Background()
	pfs := storage.NewCounting(storage.NewMemFS("pfs", 0))
	if err := pfs.WriteFile(ctx, "data/seed", bytes.Repeat([]byte{1}, 1024)); err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Levels:        []storage.Backend{storage.NewMemFS("ssd", 0), pfs},
		Pool:          pool.NewGoPool(4),
		FullFileFetch: true,
		Write: WriteConfig{
			Enabled:    true,
			Durability: func(string) Durability { return d },
		},
	}
	if journaled {
		cfg.Write.JournalPath = filepath.Join(b.TempDir(), "bench.journal")
	}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Init(ctx); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(m.Close)
	return m, pfs
}

// benchWriteLoop writes chunkSize-byte slices round-robin across a few
// checkpoint shards of four writes each — the ledger's bursty
// checkpoint shape — and reports the PFS bytes written per byte acked:
// 1 when every dirty range crosses once, 2–3 when every few writes push
// their whole file again. A full set of shards is flushed, removed and
// created afresh off the clock, so no write lands on a slot twice and
// the shards in memory stay a handful whatever b.N is.
func benchWriteLoop(b *testing.B, m *Monarch, pfs *storage.Counting, chunkSize int) {
	b.Helper()
	ctx := context.Background()
	const shards, slots = 4, 4
	shard := func(i int) string { return fmt.Sprintf("ckpt/s%d", i%shards) }
	rotate := func(first bool) {
		for i := 0; i < shards; i++ {
			if !first {
				if err := m.Flush(ctx, shard(i)); err != nil {
					b.Fatal(err)
				}
				if err := m.Remove(ctx, shard(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Create(ctx, shard(i), int64(slots*chunkSize)); err != nil {
				b.Fatal(err)
			}
		}
	}
	chunk := bytes.Repeat([]byte{0xC5}, chunkSize)
	b.SetBytes(int64(chunkSize))
	b.ReportAllocs()
	pfs.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(shards*slots) == 0 {
			b.StopTimer()
			rotate(i == 0)
			b.StartTimer()
		}
		off := int64((i/shards)%slots) * int64(chunkSize)
		if _, err := m.WriteAt(ctx, shard(i), chunk, off); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := m.Flush(ctx, ""); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(pfs.Counts().BytesWritten)/float64(b.N*chunkSize), "pfs-bytes/acked-byte")
}

// BenchmarkWriteThrough is the direct-PFS checkpoint baseline: every
// WriteAt pays the source-tier write before acking.
func BenchmarkWriteThrough(b *testing.B) {
	m, pfs := benchWriteStack(b, WriteThrough, false)
	benchWriteLoop(b, m, pfs, 256<<10)
}

// BenchmarkWriteBack acks on tier 0; the flush to the PFS runs behind
// the timer (retired in StopTimer's drain).
func BenchmarkWriteBack(b *testing.B) {
	m, pfs := benchWriteStack(b, WriteBack, false)
	benchWriteLoop(b, m, pfs, 256<<10)
}

// BenchmarkWriteBackJournaled adds the crash journal to the ack path:
// the WAL append (an on-disk file, no fsync) is the durability tax.
func BenchmarkWriteBackJournaled(b *testing.B) {
	m, pfs := benchWriteStack(b, WriteBack, true)
	benchWriteLoop(b, m, pfs, 256<<10)
}

// BenchmarkWriteBackSmall measures the fixed per-write overhead with a
// 4 KiB payload (metadata-log-style writes rather than shard bursts).
func BenchmarkWriteBackSmall(b *testing.B) {
	m, pfs := benchWriteStack(b, WriteBack, false)
	benchWriteLoop(b, m, pfs, 4<<10)
}

// BenchmarkFlush times one write-back flush of a whole file the PFS
// already holds — pieces of up to bufpool.MaxPooled bytes, each one PFS
// WriteAt into an OSFS directory — out of an OSFS tier 0, which lends
// windows of its mapping (view), and out of a MemFS one, whose pieces
// are copied into pooled buffers (copy). B/op is what a flush costs the
// heap: the copy side's whenever a GC has emptied the pool.
func BenchmarkFlush(b *testing.B) {
	ctx := context.Background()
	osfs := func(b *testing.B, name string) *storage.OSFS {
		o, err := storage.NewOSFS(name, b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(o.CloseIdle)
		return o
	}
	tiers := []struct {
		name string
		make func(*testing.B) storage.Backend
	}{
		{"view", func(b *testing.B) storage.Backend { return osfs(b, "ssd") }},
		{"copy", func(*testing.B) storage.Backend { return storage.NewMemFS("ssd", 0) }},
	}
	for _, size := range []int64{1 << 20, 16 << 20} {
		for _, tier := range tiers {
			b.Run(fmt.Sprintf("%dMiB/%s", size>>20, tier.name), func(b *testing.B) {
				m := writeBackStack(b, tier.make(b), osfs(b, "lustre"), "", 0)
				b.Cleanup(m.Close)
				if err := m.Create(ctx, "ckpt", size); err != nil {
					b.Fatal(err)
				}
				if _, err := m.WriteAt(ctx, "ckpt", bytes.Repeat([]byte{0xC5}, int(size)), 0); err != nil {
					b.Fatal(err)
				}
				if err := m.Flush(ctx, "ckpt"); err != nil {
					b.Fatal(err)
				}
				f, claim := m.writes.file("ckpt"), spans{{0, size}}
				b.SetBytes(size)
				b.ReportAllocs()
				for b.Loop() {
					if err := m.writes.flush(ctx, f, 0, claim, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
