package tfrecord

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestMaskedCRCKnownVector(t *testing.T) {
	// The empty-payload masked CRC is a stable constant of the format:
	// crc32c("") = 0, masked = rotr15(0) + 0xa282ead8.
	if got := MaskedCRC(nil); got != 0xa282ead8 {
		t.Fatalf("MaskedCRC(nil) = %#x, want 0xa282ead8", got)
	}
	// Regression vector computed from TensorFlow's implementation
	// definition: crc32c("a") = 0xc1d04330.
	crcA := uint32(0xc1d04330)
	want := ((crcA >> 15) | (crcA << 17)) + 0xa282ead8
	if got := MaskedCRC([]byte("a")); got != want {
		t.Fatalf("MaskedCRC(a) = %#x, want %#x", got, want)
	}
}

// encode frames each payload in place, as a shard builder does, and
// returns the records back to back.
func encode(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		rec := make([]byte, RecordSize(int64(len(p))))
		copy(rec[HeaderSize:], p)
		Frame(rec)
		out = append(out, rec...)
	}
	return out
}

func TestFrameProducesExactFraming(t *testing.T) {
	payload := []byte("hello")
	raw := encode(payload)
	if int64(len(raw)) != RecordSize(int64(len(payload))) {
		t.Fatalf("file size %d, want %d", len(raw), RecordSize(5))
	}
	if binary.LittleEndian.Uint64(raw[:8]) != 5 {
		t.Fatal("length header wrong")
	}
	if binary.LittleEndian.Uint32(raw[8:12]) != MaskedCRC(raw[:8]) {
		t.Fatal("length CRC wrong")
	}
	if !bytes.Equal(raw[12:17], payload) {
		t.Fatal("payload wrong")
	}
	if binary.LittleEndian.Uint32(raw[17:21]) != MaskedCRC(payload) {
		t.Fatal("data CRC wrong")
	}
}

func TestRoundtripMultipleRecords(t *testing.T) {
	records := [][]byte{[]byte("one"), {}, []byte("three"), bytes.Repeat([]byte{0xAB}, 10000)}
	raw := encode(records...)
	if want := 3 + 0 + 5 + 10000 + 4*Overhead; len(raw) != want {
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
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestRoundtripProperty(t *testing.T) {
	err := quick.Check(func(payloads [][]byte) bool {
		r := NewReader(bytes.NewReader(encode(payloads...)))
		for _, want := range payloads {
			got, err := r.Next()
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err := r.Next()
		return err == io.EOF
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func corruptedShard(t *testing.T, flip int) []byte {
	t.Helper()
	raw := encode([]byte("payload"))
	raw[flip] ^= 0xFF
	return raw
}

func TestReaderDetectsLengthCorruption(t *testing.T) {
	raw := corruptedShard(t, 9) // inside length CRC
	_, err := NewReader(bytes.NewReader(raw)).Next()
	if !errors.Is(err, ErrBadLengthCRC) {
		t.Fatalf("got %v", err)
	}
}

func TestReaderDetectsDataCorruption(t *testing.T) {
	raw := corruptedShard(t, 13) // inside payload
	_, err := NewReader(bytes.NewReader(raw)).Next()
	if !errors.Is(err, ErrBadDataCRC) {
		t.Fatalf("got %v", err)
	}
}

func TestReaderDetectsTruncation(t *testing.T) {
	raw := encode([]byte("payload"))
	for _, cut := range []int{4, 14, len(raw) - 1} {
		_, err := NewReader(bytes.NewReader(raw[:cut])).Next()
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: got %v", cut, err)
		}
	}
}

func TestReaderVerifyDisabled(t *testing.T) {
	raw := corruptedShard(t, 13) // payload corrupted, CRC stale
	r := NewReader(bytes.NewReader(raw))
	r.Verify = false
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len("payload") {
		t.Fatalf("len = %d", len(got))
	}
}

func TestReaderRejectsImplausibleLength(t *testing.T) {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], 1<<50)
	binary.LittleEndian.PutUint32(hdr[8:12], MaskedCRC(hdr[:8]))
	_, err := NewReader(bytes.NewReader(hdr[:])).Next()
	if err == nil {
		t.Fatal("expected error for huge length")
	}
}

func TestBuildIndex(t *testing.T) {
	sizes := []int{100, 0, 250, 7}
	var payloads [][]byte
	for _, n := range sizes {
		payloads = append(payloads, make([]byte, n))
	}
	raw := encode(payloads...)
	idx, err := BuildIndex(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(sizes) {
		t.Fatalf("index has %d entries", len(idx))
	}
	off := int64(0)
	for i, e := range idx {
		if e.Offset != off || e.Length != int64(sizes[i]) {
			t.Fatalf("entry %d = %+v, want offset %d length %d", i, e, off, sizes[i])
		}
		if e.End() != off+int64(sizes[i])+Overhead {
			t.Fatalf("entry %d End = %d", i, e.End())
		}
		off = e.End()
	}
	if idx.TotalBytes() != int64(len(raw)) {
		t.Fatalf("TotalBytes = %d, want %d", idx.TotalBytes(), len(raw))
	}
}

func TestBuildIndexEmpty(t *testing.T) {
	idx, err := BuildIndex(nil)
	if err != nil || len(idx) != 0 || idx.TotalBytes() != 0 {
		t.Fatalf("idx=%v err=%v", idx, err)
	}
}

func TestBuildIndexCorruption(t *testing.T) {
	raw := corruptedShard(t, 9)
	if _, err := BuildIndex(raw); !errors.Is(err, ErrBadLengthCRC) {
		t.Fatalf("got %v", err)
	}
	raw = encode([]byte("abc"))
	if _, err := BuildIndex(raw[:len(raw)-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v", err)
	}
}

func TestIndexMatchesReaderOffsets(t *testing.T) {
	err := quick.Check(func(sizes []uint16) bool {
		var payloads [][]byte
		for _, s := range sizes {
			payloads = append(payloads, make([]byte, int(s)%5000))
		}
		raw := encode(payloads...)
		idx, err := BuildIndex(raw)
		if err != nil || len(idx) != len(sizes) {
			return false
		}
		r := NewReader(bytes.NewReader(raw))
		for _, e := range idx {
			if r.Offset() != e.Offset {
				return false
			}
			if _, err := r.Next(); err != nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFrame(b *testing.B) {
	rec := make([]byte, RecordSize(64*1024))
	b.SetBytes(64 * 1024)
	for i := 0; i < b.N; i++ {
		Frame(rec)
	}
}

func BenchmarkReader(b *testing.B) {
	payload := make([]byte, 64*1024)
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = payload
	}
	raw := encode(payloads...)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			b.StopTimer()
			r := NewReader(bytes.NewReader(raw))
			b.StartTimer()
			for j := 0; j < 64 && i+j < b.N; j++ {
				if _, err := r.Next(); err != nil {
					b.Fatal(err)
				}
			}
			i += 63
		}
	}
}
