package trace_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"monarch/internal/obs"
	"monarch/internal/trace"
)

// fixtureScript drives every kind and class a recorder can emit — and
// the three span kinds it ignores — into a capture at path. Run at the
// commit before the one-encoding change it wrote testdata/parent.bin.
func fixtureScript(t *testing.T, path string) {
	t.Helper()
	var clock int64
	rec, err := trace.New(trace.Config{
		Path:   path,
		Now:    func() int64 { clock += 250_000; return clock },
		Levels: []trace.Level{{Name: "ssd", Capacity: 1 << 20}, {Name: "peer"}, {Name: "lustre"}},
		Source: 2,
		Meta:   map[string]string{"copy_chunk": "256", "scale": "0.001", "placement_threads": "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.AddFiles([]trace.File{{Name: "data/a", Size: 1000}, {Name: "data/b", Size: 4096}, {Name: "data/c", Size: 300}})
	boom := errors.New("boom")
	us := time.Microsecond
	h := rec.HookSpan

	// Epoch 1: cold. a is read and fetched whole-file, b arrives in
	// chunks with a mid-copy hit, c is unplaceable and read ahead, d is
	// placed from its own full read, e fails.
	h(obs.Span{Kind: obs.SpanRead, File: "data/a", Tier: 2, Off: 0, Bytes: 500, Duration: 900 * us})
	h(obs.Span{Kind: obs.SpanPlacementEnqueue, File: "data/a", Tier: 0})
	h(obs.Span{Kind: obs.SpanRead, File: "data/a", Tier: 2, Off: 500, Bytes: 500, Duration: 800 * us})
	h(obs.Span{Kind: obs.SpanPlacement, File: "data/a", Tier: 0, Bytes: 1000, Duration: 3000 * us})
	h(obs.Span{Kind: obs.SpanRead, File: "data/b", Tier: 2, Off: 0, Bytes: 1024, Duration: 1200 * us})
	h(obs.Span{Kind: obs.SpanChunkCopy, File: "data/b", Tier: 0, Off: 0, Bytes: 2048, Duration: 2000 * us})
	h(obs.Span{Kind: obs.SpanRead, File: "data/b", Tier: 0, Off: 1024, Bytes: 1024, Flags: obs.FlagPartial, Duration: 20 * us})
	h(obs.Span{Kind: obs.SpanChunkCopy, File: "data/b", Tier: 0, Off: 2048, Bytes: 2048, Duration: 2100 * us})
	h(obs.Span{Kind: obs.SpanPlacement, File: "data/b", Tier: 0, Bytes: 4096, Duration: 5000 * us})
	h(obs.Span{Kind: obs.SpanRead, File: "data/c", Tier: 2, Off: 0, Bytes: 300, Duration: 700 * us})
	h(obs.Span{Kind: obs.SpanPlacement, File: "data/c", Tier: -1, Bytes: 300, Err: boom})
	h(obs.Span{Kind: obs.SpanRead, File: "data/c", Tier: 2, Off: 100, Bytes: 100, Flags: obs.FlagPartial, Duration: 5 * us})
	h(obs.Span{Kind: obs.SpanRead, File: "data/d", Tier: 2, Off: 0, Bytes: 64, Duration: 600 * us})
	h(obs.Span{Kind: obs.SpanPlacement, File: "data/d", Tier: 0, Bytes: 64, Flags: obs.FlagReuse, Duration: 100 * us})
	h(obs.Span{Kind: obs.SpanPlacement, File: "data/e", Tier: 0, Bytes: 128, Err: boom, Duration: 100 * us})
	rec.MarkEpoch(1)

	// Epoch 2: warm, with every other read class, the peer serve half,
	// tier-state changes and a checkpoint burst.
	h(obs.Span{Kind: obs.SpanRead, File: "data/a", Tier: 0, Off: 0, Bytes: 1000, Duration: 15 * us})
	h(obs.Span{Kind: obs.SpanRead, File: "data/b", Tier: 0, Off: 0, Bytes: 4096, Duration: 30 * us})
	h(obs.Span{Kind: obs.SpanRead, File: "data/b", Tier: 2, Off: 0, Bytes: 4096, Flags: obs.FlagFallback, Duration: 2500 * us})
	h(obs.Span{Kind: obs.SpanRead, File: "data/b", Tier: 0, Off: 0, Bytes: 0, Err: boom, Duration: 10 * us})
	h(obs.Span{Kind: obs.SpanRead, File: "data/p", Tier: 1, Off: 0, Bytes: 512, Flags: obs.FlagPeer, Req: 0xfeed0001, Duration: 150 * us})
	h(obs.Span{Kind: obs.SpanRead, File: "data/p", Tier: 1, Off: 512, Bytes: 512, Flags: obs.FlagPeer | obs.FlagHedged, Req: 0xfeed0002, Duration: 4000 * us})
	h(obs.Span{Kind: obs.SpanRead, File: "data/q", Tier: 2, Off: 0, Bytes: 256, Flags: obs.FlagPeerMiss, Req: 0xfeed0003, Duration: 1500 * us})
	h(obs.Span{Kind: obs.SpanPeerServe, File: "data/a", Tier: 0, Off: 0, Bytes: 1000, Req: 0xbeef0001, Duration: 40 * us})
	h(obs.Span{Kind: obs.SpanPeerServe, File: "data/zz", Tier: 0, Off: 0, Bytes: 0, Req: 0xbeef0002, Err: boom, Duration: 10 * us})
	h(obs.Span{Kind: obs.SpanTierProbe, Tier: 0, Duration: 10 * us})
	h(obs.Span{Kind: obs.SpanEvict, File: "data/a", Tier: 0, Bytes: 1000, Duration: 10 * us})
	rec.State(trace.ClassEvicted, "data/a", 0, 1000)
	rec.State(trace.ClassTierDown, "", 0, 0)
	rec.State(trace.ClassDemoted, "data/b", 0, 4096)
	rec.State(trace.ClassTierUp, "", 0, 0)
	h(obs.Span{Kind: obs.SpanWrite, File: "ckpt/s0", Tier: 2, Off: 0, Bytes: 2048, Duration: 2200 * us})
	h(obs.Span{Kind: obs.SpanWrite, File: "ckpt/s1", Tier: 0, Off: 0, Bytes: 2048, Flags: obs.FlagWriteBack, Req: 7, Duration: 25 * us})
	h(obs.Span{Kind: obs.SpanWrite, File: "ckpt/s1", Tier: 0, Off: 2048, Bytes: 2048, Flags: obs.FlagWriteBack, Duration: 25 * us})
	h(obs.Span{Kind: obs.SpanWrite, File: "ckpt/s2", Tier: 0, Off: 0, Bytes: 0, Err: boom, Duration: 25 * us})
	h(obs.Span{Kind: obs.SpanFlush, File: "ckpt/s1", Tier: 2, Bytes: 4096, Duration: 2600 * us})
	h(obs.Span{Kind: obs.SpanFlush, File: "ckpt/s1", Tier: 2, Bytes: 0, Err: boom, Duration: 2600 * us})
	h(obs.Span{Kind: obs.SpanRemove, File: "ckpt/s0", Tier: 2, Duration: 300 * us})
	rec.MarkEpoch(2)

	rec.AddSummary(map[string]int64{
		"placements": 3, "placed_bytes": 5160, "placement_skips": 1, "placement_errors": 1,
		"chunk_placements": 2, "partial_hits": 2, "partial_hit_bytes": 1124, "fallbacks": 1,
		"reads_tier_0": 3, "bytes_tier_0": 6120, "reads_tier_1": 2, "bytes_tier_1": 1024,
		"reads_tier_2": 8, "bytes_tier_2": 6840,
		"pfs_data_ops": 16,
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderReproducesParentFixture is the writing half of "the
// format did not move": the script that produced the committed capture
// at the parent commit produces the same bytes through today's
// classifier and encoder — under a name with no suffix to go by.
func TestRecorderReproducesParentFixture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capture")
	fixtureScript(t, path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the capture differs from the parent commit's: %d bytes, want %d", len(got), len(want))
	}
}
