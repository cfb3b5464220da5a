package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"monarch/internal/trace"
	"monarch/internal/trace/analyze"
	"monarch/internal/trace/replay"
)

// FuzzTrace feeds arbitrary bytes through everything that consumes a
// capture from outside: Read, then Analyze and a faithful Run of what
// decoded. None may panic, whatever the file says, and none may
// allocate past a small multiple of the input — a length, a tier or a
// count in the file is a claim, not a budget.
func FuzzTrace(f *testing.F) {
	fixture, err := os.ReadFile("testdata/parent.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(fixture[:len(fixture)/2])
	f.Add([]byte("MTRB1\n\xff\xff\xff\x7f"))
	f.Add([]byte(`{"monarch_trace":2}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := trace.Read(bytes.NewReader(data))
		if err == nil {
			a := analyze.Analyze(tr, analyze.Options{})
			// A replay's time is the capture's to spend (a trace of a
			// million source ops takes a million simulated ops); its memory
			// is not.
			if a.PFSOps >= 0 && a.PFSOps < 1<<16 {
				if rep, err := replay.Run(tr, replay.Options{Mode: replay.Faithful, Workers: 4}); err == nil && rep.PFSOps != a.PFSOps {
					t.Fatalf("replay priced %d PFS ops, the analyzer %d", rep.PFSOps, a.PFSOps)
				}
			}
		}
		runtime.ReadMemStats(&after)
		// 256 KiB covers the reader's and the sim's fixed buffers; 64x
		// the input covers a decoded event (40 bytes from 41) held by the
		// trace, the analysis and the replay at once.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+64*len(data)); grew > bound {
			t.Fatalf("%d input bytes made the pipeline allocate %d (bound %d)", len(data), grew, bound)
		}
	})
}

// TestCorruptTierIsAnError is the reproducer FuzzTrace's corpus keeps:
// a chunk copy and a fetch naming tier 7 of 3 used to index the
// replay's device table from inside the simulation and panic.
func TestCorruptTierIsAnError(t *testing.T) {
	for _, kind := range []trace.Kind{trace.KindChunkCopy, trace.KindPlacement, trace.KindRead} {
		tr, err := trace.ReadFile("testdata/parent.bin")
		if err != nil {
			t.Fatal(err)
		}
		class := trace.ClassNone
		switch kind {
		case trace.KindPlacement:
			class = trace.ClassFetch
		case trace.KindRead:
			class = trace.ClassLocal
		}
		base := tr.Events[:len(tr.Events):len(tr.Events)]
		for _, tier := range []int8{7, -1, -128} {
			tr.Events = append(base,
				trace.Event{T: 1, File: 5, Kind: kind, Class: class, Tier: tier, Len: 64})
			if rep, err := replay.Run(tr, replay.Options{Mode: replay.Faithful}); err == nil {
				t.Errorf("%s on tier %d of %d replayed: %+v", kind, tier, len(tr.Header.Levels), rep)
			}
			analyze.Analyze(tr, analyze.Options{}) // must not care
		}
	}
	// A count is a claim too: an exabyte fetched in 256-byte requests.
	tr, err := trace.ReadFile("testdata/parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	tr.Events = append(tr.Events, trace.Event{T: 1, File: 5, Kind: trace.KindPlacement, Class: trace.ClassFetch, Len: 1 << 60})
	if _, err := replay.Run(tr, replay.Options{Mode: replay.Faithful}); err == nil {
		t.Error("a 2^52-request fetch replayed")
	}
	// Through the decoder too: the 41-byte record appended to a capture.
	data, err := os.ReadFile("testdata/parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 41)
	rec[0], rec[13], rec[15] = 1, byte(trace.KindChunkCopy), 7
	path := filepath.Join(t.TempDir(), "corrupt")
	if err := os.WriteFile(path, append(data, rec...), 0o644); err != nil {
		t.Fatal(err)
	}
	if tr, err = trace.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Run(tr, replay.Options{Mode: replay.Faithful}); err == nil {
		t.Fatal("a capture whose last chunk copy names tier 7 of 3 replayed")
	}
}

// TestFixtureReplaysFaithfully: the fixture covers every kind and
// class, its trailer says what the analyzer derives, and faithful
// replay agrees with both — write, flush and remove events included.
func TestFixtureReplaysFaithfully(t *testing.T) {
	tr, err := trace.ReadFile("testdata/parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	a := analyze.Analyze(tr, analyze.Options{})
	rep, err := replay.Run(tr, replay.Options{Mode: replay.Faithful})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 || rep.PFSOps != a.PFSOps || a.PFSOps != a.RecordedPFSOps || a.PFSOps != 16 {
		t.Fatalf("replay %d PFS ops (mismatches %v), analyzer %d, capture %d; want 16 everywhere",
			rep.PFSOps, rep.Mismatches, a.PFSOps, a.RecordedPFSOps)
	}
}
