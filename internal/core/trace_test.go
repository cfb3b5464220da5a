package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"monarch/internal/obs"
	"monarch/internal/trace"
)

// readAll drives reads of every fixture file through the middleware,
// epochs times, marking trace epoch boundaries.
func readAll(t *testing.T, f *fixture, nfiles, fileSize, epochs int) {
	t.Helper()
	ctx := context.Background()
	buf := make([]byte, fileSize)
	for e := 1; e <= epochs; e++ {
		for i := 0; i < nfiles; i++ {
			name := fileName(i)
			if _, err := f.m.ReadAt(ctx, name, buf, 0); err != nil {
				t.Fatalf("read %s: %v", name, err)
			}
		}
		f.waitIdle(t)
		f.m.MarkEpoch(e)
	}
}

// fileName mirrors newFixture's naming.
func fileName(i int) string { return fmt.Sprintf("f%03d", i) }

// TestTraceCaptureRoundTrip captures two epochs read whole-file at a
// time (the first read is reused by the copy) and in quarter-file
// sequential reads (the first read is a fetch-through: one source-level
// read event, three tier-0 reads behind it, a reuse placement),
// and checks the trace against Stats and the trailer — and that the
// source ops an analyzer derives from such a trace, one per source-level
// read plus one per placement that was not a reuse, are the ops the
// counted source measured. The third run streams the same files past a
// tier with room for none: unplaceable, they are read ahead, and the
// reads served from those buffers — partial hits booked on the source
// tier — are the one kind of source-level read event that is no source
// op (the identity in Stats.ReadAheads' comment).
func TestTraceCaptureRoundTrip(t *testing.T) {
	t.Run("whole-file reads", func(t *testing.T) { traceRoundTrip(t, 1, 0) })
	t.Run("fetch-through", func(t *testing.T) { traceRoundTrip(t, 4, 0) })
	t.Run("read-ahead", func(t *testing.T) { traceRoundTrip(t, 4, 1) })
}

func traceRoundTrip(t *testing.T, readsPerFile int, quota int64) {
	const nfiles, fileSize, epochs = 6, 4096, 2
	path := filepath.Join(t.TempDir(), "core.bin")
	f := newFixture(t, quota, nfiles, fileSize, func(c *Config) {
		c.TracePath = path
	})
	ctx := context.Background()
	buf := make([]byte, fileSize/readsPerFile)
	var opsAfter [epochs + 1]int64
	for e := 1; e <= epochs; e++ {
		for i := 0; i < nfiles; i++ {
			for off := 0; off < fileSize; off += len(buf) {
				if _, err := f.m.ReadAt(ctx, fileName(i), buf, int64(off)); err != nil {
					t.Fatalf("read %s at %d: %v", fileName(i), off, err)
				}
			}
		}
		f.waitIdle(t)
		f.m.MarkEpoch(e)
		opsAfter[e] = f.pfs.Counts().DataOps()
	}
	stats := f.m.Stats()
	f.m.Close()
	// Whether a read behind the first finds the copy in flight (a mid-copy
	// hit) or landed (a local one) is the pool's race; both are tier 0's.
	if readsPerFile > 1 && quota == 0 && (stats.FetchThroughs != nfiles || stats.ReadsServed[1] != nfiles) {
		t.Fatalf("%d fetch-throughs, %d reads at the source; want every file's first read and no other (%d)",
			stats.FetchThroughs, stats.ReadsServed[1], nfiles)
	}

	tr, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var aheadHits, priced int64
	pricer := trace.NewPricer(tr.Header)
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindRead && ev.Class == trace.ClassPartial && int(ev.Tier) == 1 {
			aheadHits++
		}
		cost := pricer.Price(ev)
		priced += cost.Foreground + cost.Background
	}
	ops, derived := opsAfter[epochs], stats.ReadsServed[1]-aheadHits+stats.Placements-stats.FullReadReuses
	if ops != derived || ops != priced {
		t.Fatalf("the source measured %d data ops, the counters and the trace derive %d, the pricer %d", ops, derived, priced)
	}
	if quota == 0 && (ops != nfiles || aheadHits != 0) {
		t.Fatalf("%d source data ops, %d read-ahead hits; want one op per file (%d) and none", ops, aheadHits, nfiles)
	}
	// Unplaceable: whether a read of the first epoch finds its file's
	// skipped placement settled, and arms, is the pool's race; the first
	// read of the second epoch always does.
	if quota != 0 && (stats.Placements != 0 || stats.ReadAheads < nfiles || aheadHits < 3*nfiles || ops-opsAfter[1] != nfiles) {
		t.Fatalf("%d placements, %d read-aheads, %d hits behind them, %d source ops in epoch 2; want none, at least %d and %d, and %d",
			stats.Placements, stats.ReadAheads, aheadHits, ops-opsAfter[1], nfiles, 3*nfiles, nfiles)
	}
	if !tr.Complete() {
		t.Fatal("trace has no trailer")
	}
	if len(tr.Files) != nfiles {
		t.Fatalf("trace defines %d files, want %d", len(tr.Files), nfiles)
	}
	for _, fl := range tr.Files {
		if fl.Size != fileSize {
			t.Fatalf("file %q size %d, want %d (Init should register sizes)", fl.Name, fl.Size, fileSize)
		}
	}

	var reads, places, epochMarks int64
	for _, ev := range tr.Events {
		switch ev.Kind {
		case trace.KindRead:
			reads++
		case trace.KindPlacement:
			places++
		case trace.KindEpoch:
			epochMarks++
		}
	}
	var wantReads int64
	for _, v := range stats.ReadsServed {
		wantReads += v
	}
	if reads != wantReads {
		t.Fatalf("trace records %d reads, stats say %d", reads, wantReads)
	}
	if places != stats.Placements+stats.PlacementSkips+stats.PlacementErrors {
		t.Fatalf("trace records %d placements, stats say %d", places,
			stats.Placements+stats.PlacementSkips+stats.PlacementErrors)
	}
	if epochMarks != epochs {
		t.Fatalf("epoch markers = %d, want %d", epochMarks, epochs)
	}

	// The trailer summary is the Stats flattening the replayer verifies
	// against.
	for key, want := range map[string]int64{
		"placements":   stats.Placements,
		"placed_bytes": stats.PlacedBytes,
		"reads_tier_0": stats.ReadsServed[0],
		"reads_tier_1": stats.ReadsServed[1],
		"bytes_tier_0": stats.BytesServed[0],
		"bytes_tier_1": stats.BytesServed[1],
	} {
		if got := tr.Summary[key]; got != want {
			t.Fatalf("trailer %s = %d, want %d", key, got, want)
		}
	}
	if tr.Stats["dropped"] != 0 {
		t.Fatalf("capture dropped %d events", tr.Stats["dropped"])
	}
}

// eventsTotal reads a monarch_events_total series from the registry.
func eventsTotal(t *testing.T, m *Monarch, kind string) int64 {
	t.Helper()
	v, ok := m.Registry().Snapshot().Value("monarch_events_total", obs.L("kind", kind))
	if !ok {
		t.Fatalf("monarch_events_total{kind=%q} not registered", kind)
	}
	return int64(v)
}

// TestTraceSamplingParity is the lock-step regression test: with
// sampling enabled the trace may thin plain read hits, but every
// event-worthy record must still match monarch_events_total exactly,
// and the recorder's accounting must balance.
func TestTraceSamplingParity(t *testing.T) {
	const nfiles, fileSize, epochs = 8, 4096, 3
	for _, sample := range []int{1, 5} {
		path := filepath.Join(t.TempDir(), "parity.bin")
		// Quota fits half the files and LRU churns them, so placements,
		// skips and evictions all fire; chunked placement adds chunk
		// copies and possibly mid-copy partial hits.
		f := newFixture(t, int64(nfiles/2*fileSize), nfiles, fileSize, func(c *Config) {
			c.TracePath = path
			c.TraceSample = sample
			c.ChunkSize = 1024
			c.Eviction = NewLRU()
		})
		readAll(t, f, nfiles, fileSize, epochs)
		rst := f.m.Tracer().Stats()
		f.m.Close()

		if rst.Seen != rst.Recorded+rst.SampledOut+rst.Dropped {
			t.Fatalf("sample=%d: accounting broken: %+v", sample, rst)
		}
		if rst.Dropped != 0 {
			t.Fatalf("sample=%d: dropped %d events", sample, rst.Dropped)
		}
		if sample > 1 && rst.SampledOut == 0 {
			t.Fatalf("sample=%d thinned nothing over %d events", sample, rst.Seen)
		}
		if sample == 1 && rst.SampledOut != 0 {
			t.Fatalf("sample=1 thinned %d events", rst.SampledOut)
		}

		tr, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[trace.Kind]int64{}
		classes := map[trace.Class]int64{}
		for _, ev := range tr.Events {
			kinds[ev.Kind]++
			if ev.Kind == trace.KindRead || ev.Kind == trace.KindState {
				classes[ev.Class]++
			}
		}

		placeEvents := eventsTotal(t, f.m, "placed") + eventsTotal(t, f.m, "skipped") + eventsTotal(t, f.m, "failed")
		if kinds[trace.KindPlacement] != placeEvents {
			t.Fatalf("sample=%d: trace has %d placement records, events_total says %d",
				sample, kinds[trace.KindPlacement], placeEvents)
		}
		if got, want := kinds[trace.KindChunkCopy], eventsTotal(t, f.m, "chunk-placed"); got != want {
			t.Fatalf("sample=%d: chunk copies %d vs events_total %d", sample, got, want)
		}
		if got, want := classes[trace.ClassPartial], eventsTotal(t, f.m, "partial-hit"); got != want {
			t.Fatalf("sample=%d: partial hits %d vs events_total %d", sample, got, want)
		}
		if got, want := classes[trace.ClassFallback], eventsTotal(t, f.m, "fallback"); got != want {
			t.Fatalf("sample=%d: fallbacks %d vs events_total %d", sample, got, want)
		}
		stateEvents := eventsTotal(t, f.m, "demoted") + eventsTotal(t, f.m, "evicted") +
			eventsTotal(t, f.m, "tier-down") + eventsTotal(t, f.m, "tier-up")
		if kinds[trace.KindState] != stateEvents {
			t.Fatalf("sample=%d: state records %d vs events_total %d", sample, kinds[trace.KindState], stateEvents)
		}
		if stateEvents == 0 {
			t.Fatalf("sample=%d: workload produced no evictions; parity test lost its teeth", sample)
		}

		// Sampling must account for exactly the plain hits it removed.
		stats := f.m.Stats()
		var totalReads int64
		for _, v := range stats.ReadsServed {
			totalReads += v
		}
		if got := kinds[trace.KindRead] + rst.SampledOut; got != totalReads {
			t.Fatalf("sample=%d: recorded %d + sampled-out %d != %d reads",
				sample, kinds[trace.KindRead], rst.SampledOut, totalReads)
		}

		// The registry view and the recorder agree.
		snap := f.m.Registry().Snapshot()
		if v, ok := snap.Value("monarch_trace_events_total", obs.L("disposition", "recorded")); !ok || int64(v) != rst.Recorded {
			t.Fatalf("sample=%d: registry recorded=%v ok=%v, recorder %d", sample, v, ok, rst.Recorded)
		}
		if v, ok := snap.Value("monarch_trace_events_total", obs.L("disposition", "sampled-out")); !ok || int64(v) != rst.SampledOut {
			t.Fatalf("sample=%d: registry sampled-out=%v ok=%v, recorder %d", sample, v, ok, rst.SampledOut)
		}
	}
}

// TestTraceOverheadPathUnconfigured locks the zero-cost default: no
// TracePath means no tracer, no span hook allocation beyond the
// configured one, and MarkEpoch/Tracer stay safe.
func TestTraceOverheadPathUnconfigured(t *testing.T) {
	f := newFixture(t, 0, 2, 128, nil)
	if f.m.Tracer() != nil {
		t.Fatal("tracer exists without TracePath")
	}
	f.m.MarkEpoch(1) // must not panic
	buf := make([]byte, 128)
	if _, err := f.m.ReadAt(context.Background(), "f000", buf, 0); err != nil {
		t.Fatal(err)
	}
}
