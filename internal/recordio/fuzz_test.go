package recordio

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the RecordIO reader: no panics,
// and agreement with BuildIndex on stream validity.
func FuzzReader(f *testing.F) {
	valid := encode([]byte("one"), nil, bytes.Repeat([]byte{9}, 100))
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:6])
	corrupted := append([]byte(nil), valid...)
	corrupted[0] ^= 1
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		idx, idxErr := BuildIndex(data)
		r := NewReader(bytes.NewReader(data))
		records := 0
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
		if idxErr == nil && readErr != nil {
			t.Fatalf("index accepted stream the reader rejected: %v", readErr)
		}
		if idxErr == nil && records != len(idx) {
			t.Fatalf("reader found %d records, index %d", records, len(idx))
		}
	})
}
