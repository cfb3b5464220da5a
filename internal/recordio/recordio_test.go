package recordio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestPadAndRecordSize(t *testing.T) {
	cases := map[int64]int64{0: 0, 1: 3, 2: 2, 3: 1, 4: 0, 5: 3, 100: 0}
	for n, want := range cases {
		if got := Pad(n); got != want {
			t.Errorf("Pad(%d) = %d, want %d", n, got, want)
		}
	}
	if RecordSize(5) != 8+5+3 {
		t.Fatalf("RecordSize(5) = %d", RecordSize(5))
	}
}

// encode frames each payload in place, as a shard builder does, and
// returns the records back to back. A record's bytes start out 0xFF, so
// padding Frame did not zero shows.
func encode(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		rec := bytes.Repeat([]byte{0xFF}, int(RecordSize(int64(len(p)))))
		copy(rec[HeaderSize:], p)
		if err := Frame(rec, int64(len(p))); err != nil {
			panic(err)
		}
		out = append(out, rec...)
	}
	return out
}

func TestFrameExactFraming(t *testing.T) {
	raw := encode([]byte("hello"))
	if int64(len(raw)) != RecordSize(5) {
		t.Fatalf("size = %d", len(raw))
	}
	if binary.LittleEndian.Uint32(raw[:4]) != Magic {
		t.Fatal("magic missing")
	}
	if binary.LittleEndian.Uint32(raw[4:8]) != 5 {
		t.Fatal("length wrong")
	}
	if string(raw[8:13]) != "hello" {
		t.Fatal("payload wrong")
	}
	if raw[13] != 0 || raw[14] != 0 || raw[15] != 0 {
		t.Fatal("padding not zeroed")
	}
}

func TestRoundtrip(t *testing.T) {
	records := [][]byte{[]byte("a"), {}, []byte("abcd"), bytes.Repeat([]byte{7}, 1000)}
	raw := encode(records...)
	if want := (8 + 4) + 8 + (8 + 4) + (8 + 1000); len(raw) != want {
		t.Fatalf("stream is %d bytes, want %d", len(raw), want)
	}
	r := NewReader(bytes.NewReader(raw))
	for i, want := range records {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestRoundtripProperty(t *testing.T) {
	err := quick.Check(func(payloads [][]byte) bool {
		raw := encode(payloads...)
		idx, err := BuildIndex(raw)
		if err != nil || len(idx) != len(payloads) {
			return false
		}
		r := NewReader(bytes.NewReader(raw))
		for i, want := range payloads {
			if r.Offset() != idx[i].Offset {
				return false
			}
			got, err := r.Next()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err = r.Next()
		return err == io.EOF
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReaderDetectsBadMagic(t *testing.T) {
	raw := encode([]byte("data"))
	raw[0] ^= 0xFF
	if _, err := NewReader(bytes.NewReader(raw)).Next(); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v", err)
	}
	if _, err := BuildIndex(raw); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("index: %v", err)
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	raw := encode([]byte("data-data"))
	for _, cut := range []int{4, 10, len(raw) - 1} {
		if _, err := NewReader(bytes.NewReader(raw[:cut])).Next(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if _, err := BuildIndex(raw[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("index cut %d: %v", cut, err)
		}
	}
}

func TestReaderRejectsMultiPart(t *testing.T) {
	var raw [8]byte
	binary.LittleEndian.PutUint32(raw[:4], Magic)
	binary.LittleEndian.PutUint32(raw[4:], 1<<29) // cflag = 1, length 0
	if _, err := NewReader(bytes.NewReader(raw[:])).Next(); !errors.Is(err, ErrMultiPart) {
		t.Fatalf("got %v", err)
	}
	if _, err := BuildIndex(raw[:]); !errors.Is(err, ErrMultiPart) {
		t.Fatalf("index: %v", err)
	}
}

func TestFrameRejectsOversizedRecord(t *testing.T) {
	rec := make([]byte, HeaderSize) // Frame refuses before it touches the record
	if err := Frame(rec, 1<<29); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v", err)
	}
	if !bytes.Equal(rec, make([]byte, HeaderSize)) {
		t.Fatal("a refused Frame wrote to the record")
	}
}

func TestBuildIndexOffsets(t *testing.T) {
	sizes := []int{3, 0, 8, 5}
	var payloads [][]byte
	for _, n := range sizes {
		payloads = append(payloads, make([]byte, n))
	}
	raw := encode(payloads...)
	idx, err := BuildIndex(raw)
	if err != nil || len(idx) != 4 {
		t.Fatalf("idx=%v err=%v", idx, err)
	}
	off := int64(0)
	for i, e := range idx {
		if e.Offset != off || e.Length != int64(sizes[i]) {
			t.Fatalf("entry %d = %+v", i, e)
		}
		off = e.End()
	}
	if off != int64(len(raw)) {
		t.Fatalf("index ends at %d, stream is %d", off, len(raw))
	}
}

func BenchmarkFrame(b *testing.B) {
	rec := make([]byte, RecordSize(64<<10+1))
	b.SetBytes(64<<10 + 1)
	for i := 0; i < b.N; i++ {
		if err := Frame(rec, 64<<10+1); err != nil {
			b.Fatal(err)
		}
	}
}
