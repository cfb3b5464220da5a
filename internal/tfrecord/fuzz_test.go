package tfrecord

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the record reader: it must never
// panic and must either parse records consistently with BuildIndex or
// report a typed corruption error.
func FuzzReader(f *testing.F) {
	// Seed corpus: valid streams and near-miss corruptions.
	valid := encode([]byte("record-one"), nil, bytes.Repeat([]byte{0xAB}, 300))
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:5])
	corrupted := append([]byte(nil), valid...)
	corrupted[9] ^= 0xFF
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, idxErr := BuildIndex(data)

		r := NewReader(bytes.NewReader(data))
		var records int
		var readErr error
		for {
			payload, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err
				break
			}
			if records < len(idx) && int64(len(payload)) != idx[records].Length {
				t.Fatalf("record %d: reader length %d, index %d",
					records, len(payload), idx[records].Length)
			}
			records++
		}
		// BuildIndex and Reader must agree on whether the stream is
		// fully valid.
		if idxErr == nil && readErr != nil {
			t.Fatalf("index accepted stream the reader rejected: %v", readErr)
		}
		if idxErr == nil && records != len(idx) {
			t.Fatalf("reader found %d records, index %d", records, len(idx))
		}
	})
}
