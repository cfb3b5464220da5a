package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

func openCollect(t *testing.T, path string, opts Options) (*Journal, []Record) {
	t.Helper()
	var got []Record
	j, err := Open(path, opts, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, got
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal", "m.journal")
	j, got := openCollect(t, path, Options{Meta: map[string]string{"node": "a"}})
	if len(got) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(got))
	}
	recs := []Record{
		{Kind: 1, Off: 1 << 20, Name: "ckpt/shard-0"},
		{Kind: 2, Off: 0, Name: "ckpt/shard-0", Data: []byte("hello checkpoint")},
		{Kind: 2, Off: 16, Name: "ckpt/shard-0", Data: bytes.Repeat([]byte{0xAB}, 4096)},
		{Kind: 3, Name: "ckpt/shard-0"},
		{Kind: 4, Name: "ckpt/old", Data: nil},
	}
	for _, r := range recs {
		if _, err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := j.Stats()
	if st.Appends != int64(len(recs)) {
		t.Fatalf("Appends = %d, want %d", st.Appends, len(recs))
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, got := openCollect(t, path, Options{})
	defer j2.Close()
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		want := recs[i]
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		if r.Kind != want.Kind || r.Off != want.Off || r.Name != want.Name || !bytes.Equal(r.Data, want.Data) {
			t.Errorf("record %d mismatch: %+v", i, r)
		}
	}
	if st := j2.Stats(); st.Replayed != len(recs) || st.TruncatedBytes != 0 {
		t.Fatalf("clean reopen stats: %+v", st)
	}
	// Seq continues past the replayed records.
	if _, err := j2.Append(Record{Kind: 2, Name: "x"}); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if j2.seq != uint64(len(recs)+1) {
		t.Fatalf("seq after reopen append = %d, want %d", j2.seq, len(recs)+1)
	}
}

// TestTruncateAtEveryOffset is the torn-tail harness: it cuts the file
// at every byte offset past the header and asserts that replay yields
// an intact prefix of the appended records — never a torn, corrupted,
// or phantom record — and that the journal is usable for appends after
// recovery.
func TestTruncateAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	j, _ := openCollect(t, full, Options{})
	recs := []Record{
		{Kind: 1, Off: 64, Name: "a"},
		{Kind: 2, Off: 0, Name: "a", Data: []byte("0123456789abcdef")},
		{Kind: 2, Off: 16, Name: "a", Data: bytes.Repeat([]byte{7}, 100)},
		{Kind: 3, Name: "a"},
	}
	// boundaries[i] = file size after i records.
	boundaries := []int64{j.Stats().Size}
	for _, r := range recs {
		if _, err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
		boundaries = append(boundaries, j.Stats().Size)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	blob, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	header := boundaries[0]
	for cut := header; cut <= int64(len(blob)); cut++ {
		// How many whole records survive a cut at this offset?
		wantN := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				wantN = i
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.journal", cut))
		if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		j, err := Open(path, Options{}, func(r Record) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if len(got) != wantN {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), wantN)
		}
		for i, r := range got {
			want := recs[i]
			if r.Kind != want.Kind || r.Off != want.Off || r.Name != want.Name || !bytes.Equal(r.Data, want.Data) {
				t.Fatalf("cut %d: record %d torn: %+v", cut, i, r)
			}
		}
		wantTorn := cut - boundaries[wantN]
		if st := j.Stats(); st.TruncatedBytes != wantTorn {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, st.TruncatedBytes, wantTorn)
		}
		// The journal must be append-ready after recovery.
		if _, err := j.Append(Record{Kind: 9, Name: "post-crash"}); err != nil {
			t.Fatalf("cut %d: Append after recovery: %v", cut, err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		// And a further reopen sees the survivors plus the new record.
		j2, got2 := openCollect(t, path, Options{})
		if len(got2) != wantN+1 || got2[len(got2)-1].Name != "post-crash" {
			t.Fatalf("cut %d: second reopen replayed %d records", cut, len(got2))
		}
		j2.Close()
		os.Remove(path)
	}
}

// TestCorruptMidFile flips a byte inside the first record's payload:
// the CRC must reject it, and because appends are sequential the torn
// tail starts there — everything from that record on is discarded.
func TestCorruptMidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.journal")
	j, _ := openCollect(t, path, Options{})
	hdr := j.Stats().Size
	for i := 0; i < 3; i++ {
		if _, err := j.Append(Record{Kind: 2, Name: "f", Data: bytes.Repeat([]byte{byte(i)}, 32)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	blob, _ := os.ReadFile(path)
	blob[hdr+recPrefix+2] ^= 0xFF // inside record 0's name/data
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, got := openCollect(t, path, Options{})
	defer j2.Close()
	if len(got) != 0 {
		t.Fatalf("replayed %d records after mid-file corruption, want 0", len(got))
	}
	if st := j2.Stats(); st.TruncatedBytes == 0 {
		t.Fatal("corruption did not truncate")
	}
}

func TestRejectsBadMagicAndVersion(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	os.WriteFile(bad, []byte("MTRB1\nnot a journal"), 0o644)
	if _, err := Open(bad, Options{}, nil); err == nil {
		t.Fatal("Open accepted a non-journal file")
	}
}

func TestAppendBounds(t *testing.T) {
	j, _ := openCollect(t, filepath.Join(t.TempDir(), "m.journal"), Options{})
	defer j.Close()
	if _, err := j.Append(Record{Name: string(make([]byte, MaxName+1))}); err == nil {
		t.Fatal("oversized name accepted")
	}
	if _, err := j.Append(Record{Name: "x", Data: make([]byte, MaxData+1)}); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.journal")
	j, _ := openCollect(t, path, Options{})
	for i := 0; i < 10; i++ {
		if _, err := j.Append(Record{Kind: 2, Name: "f", Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	live := []Record{
		{Kind: 5, Name: "heat/a", Off: 3, Data: []byte("snapshot")},
		{Kind: 5, Name: "heat/b", Off: 3},
	}
	if err := j.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Appends after compaction land after the live set and keep
	// monotonically increasing seqs.
	if _, err := j.Append(Record{Kind: 2, Name: "post"}); err != nil {
		t.Fatalf("Append after Compact: %v", err)
	}
	j.Close()
	j2, got := openCollect(t, path, Options{})
	defer j2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	if got[0].Name != "heat/a" || !bytes.Equal(got[0].Data, []byte("snapshot")) || got[2].Name != "post" {
		t.Fatalf("unexpected replay after compaction: %+v", got)
	}
	if got[2].Seq <= got[1].Seq {
		t.Fatalf("seqs regressed across compaction: %d then %d", got[1].Seq, got[2].Seq)
	}
}

func TestClosedErrors(t *testing.T) {
	j, _ := openCollect(t, filepath.Join(t.TempDir(), "m.journal"), Options{})
	j.Close()
	if _, err := j.Append(Record{Name: "x"}); err != ErrClosed {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := j.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestReplayErrorStopsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.journal")
	j, _ := openCollect(t, path, Options{})
	j.Append(Record{Kind: 1, Name: "a"})
	j.Close()
	wantErr := fmt.Errorf("boom")
	if _, err := Open(path, Options{}, func(Record) error { return wantErr }); err != wantErr {
		t.Fatalf("Open = %v, want replay error", err)
	}
}

func TestSyncMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.journal")
	j, err := Open(path, Options{Sync: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(Record{Kind: 2, Name: "f", Data: []byte("x")}); err != nil {
		t.Fatalf("Append with Sync: %v", err)
	}
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	j.Close()
}

// TestAppendReusesItsScratch: a warm 256 KiB Append allocates nothing
// the size of its payload — the record is encoded into a buffer the
// journal keeps — while a record past maxScratch does not pin its size,
// and the records around it replay byte-identical.
func TestAppendReusesItsScratch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.journal")
	j, _ := openCollect(t, path, Options{})
	rec := Record{Kind: 2, Off: 4096, Name: "ckpt/shard-0", Data: bytes.Repeat([]byte{0xC5}, 256<<10)}
	appendRec := func() {
		if _, err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	appendRec() // grows the scratch once
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, appendRec)
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perOp >= 4<<10 || allocs > 1 {
		t.Fatalf("a warm 256 KiB Append allocates %d B in %.0f allocations, want < 4 KiB", perOp, allocs)
	}

	huge := Record{Kind: 2, Name: "ckpt/huge", Data: bytes.Repeat([]byte{0x5A}, maxScratch+1)}
	small := Record{Kind: 2, Off: 7, Name: "ckpt/small", Data: []byte("tail")}
	for _, r := range []Record{huge, small} {
		if _, err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if cap(j.scratch) > maxScratch {
		t.Fatalf("the journal kept a %d B scratch after an outsized record", cap(j.scratch))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, got := openCollect(t, path, Options{})
	defer j2.Close()
	want := append(slices.Repeat([]Record{rec}, runs+2), huge, small)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if w := want[i]; r.Seq != uint64(i+1) || r.Kind != w.Kind || r.Off != w.Off || r.Name != w.Name || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("record %d replayed as kind %d off %d name %q (%d B), want kind %d off %d name %q (%d B)",
				i, r.Kind, r.Off, r.Name, len(r.Data), w.Kind, w.Off, w.Name, len(w.Data))
		}
	}
}
