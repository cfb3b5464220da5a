package trace

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"monarch/internal/obs"
)

// capture writes a small, representative trace through a Recorder and
// reads it back.
func capture(t *testing.T, path string, sample int) *Trace {
	t.Helper()
	var clock int64
	rec, err := New(Config{
		Path:   path,
		Sample: sample,
		Now:    func() int64 { clock += 1000; return clock },
		Levels: []Level{{Name: "ssd", Capacity: 1 << 30}, {Name: "lustre"}},
		Source: 1,
		Meta:   map[string]string{"scale": "1", "copy_chunk": "4194304"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.AddFiles([]File{{Name: "a", Size: 100}, {Name: "b", Size: 200}})

	rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "a", Tier: 1, Off: 0, Bytes: 50, Duration: time.Millisecond})
	rec.HookSpan(obs.Span{Kind: obs.SpanPlacement, File: "a", Tier: 0, Bytes: 100})
	rec.HookSpan(obs.Span{Kind: obs.SpanChunkCopy, File: "b", Tier: 0, Off: 64, Bytes: 32, Duration: time.Microsecond})
	rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "a", Tier: 0, Off: 50, Bytes: 50, Duration: 10 * time.Microsecond})
	rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "b", Tier: 0, Off: 0, Bytes: 10,
		Flags: obs.FlagPartial, Duration: time.Microsecond})
	// A file never registered: interned lazily with unknown size.
	rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "c", Tier: 1, Bytes: 5})
	rec.MarkEpoch(1)
	rec.HookSpan(obs.Span{Kind: obs.SpanEvict, File: "b", Tier: 0, Bytes: 200, Duration: time.Microsecond})
	rec.AddSummary(map[string]int64{"placements": 1})
	rec.AddSummary(map[string]int64{"pfs_data_ops": 42})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func checkCapture(t *testing.T, tr *Trace) {
	t.Helper()
	if tr.Header.Version != Version || tr.Header.Clock != "virtual" || tr.Header.Source != 1 {
		t.Fatalf("header = %+v", tr.Header)
	}
	if len(tr.Header.Levels) != 2 || tr.Header.Levels[0].Name != "ssd" || tr.Header.Levels[0].Capacity != 1<<30 {
		t.Fatalf("levels = %+v", tr.Header.Levels)
	}
	if tr.Header.Meta["copy_chunk"] != "4194304" {
		t.Fatalf("meta = %v", tr.Header.Meta)
	}
	if len(tr.Files) != 3 || tr.Name(1) != "a" || tr.Size(2) != 200 || tr.Size(3) != -1 {
		t.Fatalf("files = %+v", tr.Files)
	}
	if !tr.Complete() {
		t.Fatal("trace has no trailer")
	}
	if tr.Summary["placements"] != 1 || tr.Summary["pfs_data_ops"] != 42 {
		t.Fatalf("summary = %v", tr.Summary)
	}
	if tr.Stats["seen"] != 8 || tr.Stats["recorded"] != 8 || tr.Stats["dropped"] != 0 {
		t.Fatalf("stats = %v", tr.Stats)
	}

	want := []struct {
		kind  Kind
		class Class
		file  string
		tier  int8
		off   int64
		len   int64
	}{
		{KindRead, ClassPFS, "a", 1, 0, 50},
		{KindPlacement, ClassFetch, "a", 0, 0, 100},
		{KindChunkCopy, ClassNone, "b", 0, 64, 32},
		{KindRead, ClassLocal, "a", 0, 50, 50},
		{KindRead, ClassPartial, "b", 0, 0, 10},
		{KindRead, ClassPFS, "c", 1, 0, 5},
		{KindEpoch, ClassNone, "", -1, 0, 1},
		{KindState, ClassEvicted, "b", 0, 0, 200},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(tr.Events), len(want), tr.Events)
	}
	var prevT int64
	for i, w := range want {
		ev := tr.Events[i]
		if ev.Kind != w.kind || ev.Class != w.class || ev.Tier != w.tier || ev.Off != w.off || ev.Len != w.len {
			t.Fatalf("event %d = %+v, want %+v", i, ev, w)
		}
		if tr.Name(ev.File) != w.file {
			t.Fatalf("event %d file = %q, want %q", i, tr.Name(ev.File), w.file)
		}
		if ev.T <= prevT {
			t.Fatalf("event %d timestamp %d not increasing (prev %d)", i, ev.T, prevT)
		}
		prevT = ev.T
	}
	// Latency buckets: 1ms lands in the decade bucket covering 1e-3.
	if got := tr.Events[0].Lat; LatBucketBound(got) < 1e-3 {
		t.Fatalf("1ms read bucketed at %d (bound %g)", got, LatBucketBound(got))
	}
}

func TestRoundTripBinary(t *testing.T) {
	// The encoding is the recorder's, not the path's: no suffix selects it.
	checkCapture(t, capture(t, filepath.Join(t.TempDir(), "t.bin"), 1))
	checkCapture(t, capture(t, filepath.Join(t.TempDir(), "t.trace"), 1))
}

// TestSamplingPolicy locks the rule sampling must follow: only plain
// local/PFS read hits are thinned; partial hits, errors, placements,
// chunk copies, epochs and state changes always record.
func TestSamplingPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.bin")
	rec, err := New(Config{Path: path, Sample: 10, Levels: []Level{{Name: "ssd"}, {Name: "pfs"}}, Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	const hits = 100
	for i := 0; i < hits; i++ {
		rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "f", Tier: 0, Bytes: 1})
	}
	rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "f", Tier: 0, Bytes: 1, Flags: obs.FlagPartial})
	rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "f", Tier: 1, Bytes: 1, Flags: obs.FlagFallback})
	rec.HookSpan(obs.Span{Kind: obs.SpanPlacement, File: "f", Tier: 0, Bytes: 1})
	rec.HookSpan(obs.Span{Kind: obs.SpanChunkCopy, File: "f", Tier: 0, Bytes: 1})
	rec.MarkEpoch(1)
	rec.HookSpan(obs.Span{Kind: obs.SpanDemote, File: "f", Tier: 0, Bytes: 1})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	st := rec.Stats()
	if st.Seen != st.Recorded+st.SampledOut+st.Dropped {
		t.Fatalf("invariant broken: %+v", st)
	}
	if st.SampledOut != hits-hits/10 {
		t.Fatalf("sampled out %d of %d hits, want %d", st.SampledOut, hits, hits-hits/10)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d", st.Dropped)
	}

	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Kind]int{}
	classes := map[Class]int{}
	for _, ev := range tr.Events {
		counts[ev.Kind]++
		classes[ev.Class]++
	}
	if counts[KindRead] != hits/10+2 {
		t.Fatalf("reads recorded = %d, want %d sampled + 2 unsampled", counts[KindRead], hits/10)
	}
	if classes[ClassPartial] != 1 || classes[ClassFallback] != 1 {
		t.Fatalf("event-worthy reads were sampled out: %v", classes)
	}
	if counts[KindPlacement] != 1 || counts[KindChunkCopy] != 1 || counts[KindEpoch] != 1 || counts[KindState] != 1 {
		t.Fatalf("non-read events were sampled out: %v", counts)
	}
}

// TestFallbackCauseIsNotAFailure: a fallback read span carries its
// failed first attempt in Err; the read is still a fallback the source
// served, and only a source failure joined to the cause is an error.
func TestFallbackCauseIsNotAFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.bin")
	rec, err := New(Config{Path: path, Levels: []Level{{Name: "ssd"}, {Name: "pfs"}}, Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	cause := &obs.FallbackError{Tier: 0, Err: errors.New("tier fault")}
	rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "f", Tier: 1, Bytes: 1, Flags: obs.FlagFallback, Err: cause})
	rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "f", Tier: 1, Flags: obs.FlagFallback,
		Err: errors.Join(errors.New("pfs down"), cause)})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 || tr.Events[0].Class != ClassFallback || tr.Events[1].Class != ClassError {
		t.Fatalf("events %v; want a fallback, then an error", tr.Events)
	}
}

func TestRingOverflowDropsAndCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "o.bin")
	rec, err := New(Config{Path: path, Buffer: 4, Levels: []Level{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the drainer's input at bay by flooding from many goroutines;
	// with a 4-slot ring some of 10k events must drop, none may block.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1250; i++ {
				rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "f", Tier: 0, Bytes: 1})
			}
		}()
	}
	wg.Wait()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Seen != 10000 {
		t.Fatalf("seen = %d", st.Seen)
	}
	if st.Seen != st.Recorded+st.SampledOut+st.Dropped {
		t.Fatalf("invariant broken: %+v", st)
	}
	if st.Written != st.Recorded {
		t.Fatalf("written %d != recorded %d after Close", st.Written, st.Recorded)
	}
	tr, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(tr.Events)) != st.Recorded {
		t.Fatalf("file holds %d events, recorder claims %d", len(tr.Events), st.Recorded)
	}
	if tr.Stats["dropped"] != st.Dropped {
		t.Fatalf("trailer dropped = %d, stats = %d", tr.Stats["dropped"], st.Dropped)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.HookSpan(obs.Span{Kind: obs.SpanRead})
	r.MarkEpoch(1)
	r.AddFiles([]File{{Name: "x"}})
	r.AddSummary(map[string]int64{"a": 1})
	if st := r.Stats(); st != (RecorderStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIsIdempotentAndDropsLateEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.bin")
	rec, err := New(Config{Path: path, Levels: []Level{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "f", Tier: 0, Bytes: 1})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "f", Tier: 0, Bytes: 1})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Dropped != 1 || st.Recorded != 1 {
		t.Fatalf("post-close accounting = %+v", st)
	}
}

func TestInstrumentExportsCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "i.bin")
	rec, err := New(Config{Path: path, Sample: 2, Levels: []Level{{Name: "a"}, {Name: "b"}}, Source: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	reg := obs.NewRegistry()
	rec.Instrument(reg)
	for i := 0; i < 4; i++ {
		rec.HookSpan(obs.Span{Kind: obs.SpanRead, File: "f", Tier: 0, Bytes: 1})
	}
	snap := reg.Snapshot()
	if v, ok := snap.Value("monarch_trace_events_total", obs.L("disposition", "recorded")); !ok || v != 2 {
		t.Fatalf("recorded counter = %v ok=%v", v, ok)
	}
	if v, ok := snap.Value("monarch_trace_events_total", obs.L("disposition", "sampled-out")); !ok || v != 2 {
		t.Fatalf("sampled-out counter = %v ok=%v", v, ok)
	}
}

func TestLatBucketMonotone(t *testing.T) {
	durs := []time.Duration{0, time.Microsecond, 50 * time.Microsecond,
		time.Millisecond, 300 * time.Millisecond, time.Second, time.Minute}
	var prev uint8
	for i, d := range durs {
		b := LatBucket(d)
		if i > 0 && b < prev {
			t.Fatalf("bucket(%v) = %d < bucket(prev) = %d", d, b, prev)
		}
		prev = b
	}
	if LatBucketBound(LatBucket(time.Minute)) != LatBucketBound(255) {
		t.Fatalf("overflow duration should land in the last bucket")
	}
}
