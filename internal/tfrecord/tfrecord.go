// Package tfrecord implements TensorFlow's TFRecord container format.
//
// The paper's datasets are ImageNet converted to TFRecords — "optimized
// data formats [that] pack several small-sized files into a single,
// larger one" (§I). MONARCH's headline epoch-1 optimisation (fetch the
// *whole* record file when the framework asks for a slice of it) only
// makes sense against this format, so the reproduction implements it
// for real: examples and tests read and write byte-compatible TFRecord
// files.
//
// On-disk layout of each record:
//
//	uint64 length        (little endian)
//	uint32 masked_crc32c(length)
//	byte   data[length]
//	uint32 masked_crc32c(data)
//
// where masked_crc32c(x) = rotr15(crc32c(x)) + 0xa282ead8, matching
// TensorFlow's record writer.
package tfrecord

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Overhead is the framing overhead per record in bytes.
const Overhead = HeaderSize + 4

// HeaderSize is the framing before each payload: the length and its CRC.
const HeaderSize = 8 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Corruption errors returned by Reader.
var (
	// ErrBadLengthCRC reports a corrupted length header.
	ErrBadLengthCRC = errors.New("tfrecord: length CRC mismatch")
	// ErrBadDataCRC reports corrupted record payload.
	ErrBadDataCRC = errors.New("tfrecord: data CRC mismatch")
	// ErrTruncated reports a record cut short by EOF.
	ErrTruncated = errors.New("tfrecord: truncated record")
)

// MaskedCRC computes TensorFlow's masked CRC32-Castagnoli of data.
func MaskedCRC(data []byte) uint32 {
	crc := crc32.Checksum(data, castagnoli)
	return ((crc >> 15) | (crc << 17)) + 0xa282ead8
}

// Frame writes one record's framing in place around its payload. rec
// is the whole record: RecordSize(n) bytes, at least Overhead, with the
// n-byte payload at rec[HeaderSize:]. Frame fills in the length, its CRC
// and the payload's CRC after it.
func Frame(rec []byte) {
	n := len(rec) - Overhead
	binary.LittleEndian.PutUint64(rec, uint64(n))
	binary.LittleEndian.PutUint32(rec[8:], MaskedCRC(rec[:8]))
	binary.LittleEndian.PutUint32(rec[HeaderSize+n:], MaskedCRC(rec[HeaderSize:HeaderSize+n]))
}

// RecordSize returns the on-disk footprint of a payload of n bytes.
func RecordSize(n int64) int64 { return n + Overhead }

// Reader iterates records from an io.Reader.
type Reader struct {
	r      *bufio.Reader
	offset int64
	// Verify controls CRC checking; disabled it still parses framing.
	Verify bool
}

// NewReader wraps r with CRC verification enabled.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16), Verify: true}
}

// Next returns the next record payload, or io.EOF cleanly at the end of
// the stream. The returned slice is freshly allocated.
func (r *Reader) Next() ([]byte, error) {
	var hdr [HeaderSize]byte
	n, err := io.ReadFull(r.r, hdr[:])
	if err == io.EOF && n == 0 {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: header at offset %d", ErrTruncated, r.offset)
	}
	length := binary.LittleEndian.Uint64(hdr[:8])
	if r.Verify && binary.LittleEndian.Uint32(hdr[8:12]) != MaskedCRC(hdr[:8]) {
		return nil, fmt.Errorf("%w at offset %d", ErrBadLengthCRC, r.offset)
	}
	if length > 1<<40 {
		return nil, fmt.Errorf("tfrecord: implausible record length %d at offset %d", length, r.offset)
	}
	data, err := readPayload(r.r, int64(length))
	if err != nil {
		return nil, fmt.Errorf("%w: payload at offset %d", ErrTruncated, r.offset)
	}
	var foot [4]byte
	if _, err := io.ReadFull(r.r, foot[:]); err != nil {
		return nil, fmt.Errorf("%w: footer at offset %d", ErrTruncated, r.offset)
	}
	if r.Verify && binary.LittleEndian.Uint32(foot[:]) != MaskedCRC(data) {
		return nil, fmt.Errorf("%w at offset %d", ErrBadDataCRC, r.offset)
	}
	r.offset += int64(length) + Overhead
	return data, nil
}

// Offset returns the stream offset of the next record.
func (r *Reader) Offset() int64 { return r.offset }

// readPayload reads exactly n bytes, growing the buffer incrementally
// so a corrupted length field cannot force a huge up-front allocation.
func readPayload(r io.Reader, n int64) ([]byte, error) {
	const chunk = 1 << 20
	capHint := n
	if capHint > chunk {
		capHint = chunk
	}
	data := make([]byte, 0, capHint)
	for int64(len(data)) < n {
		want := n - int64(len(data))
		if want > chunk {
			want = chunk
		}
		data = append(data, make([]byte, want)...)
		if _, err := io.ReadFull(r, data[int64(len(data))-want:]); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Entry locates one record inside a shard file.
type Entry struct {
	Offset int64 // offset of the record header
	Length int64 // payload length (without framing)
}

// End returns the offset one past the record's footer.
func (e Entry) End() int64 { return e.Offset + e.Length + Overhead }

// Index lists the records of a shard in file order. TensorFlow keeps an
// equivalent structure implicitly by reading shards sequentially; the
// simulation uses the explicit index to know which 256 KiB pread
// touches which record.
type Index []Entry

// BuildIndex scans a serialized shard and returns its index.
func BuildIndex(data []byte) (Index, error) {
	var idx Index
	off := int64(0)
	for off < int64(len(data)) {
		if off+12 > int64(len(data)) {
			return nil, fmt.Errorf("%w: header at offset %d", ErrTruncated, off)
		}
		length := int64(binary.LittleEndian.Uint64(data[off : off+8]))
		if binary.LittleEndian.Uint32(data[off+8:off+12]) != MaskedCRC(data[off:off+8]) {
			return nil, fmt.Errorf("%w at offset %d", ErrBadLengthCRC, off)
		}
		if off+length+Overhead > int64(len(data)) {
			return nil, fmt.Errorf("%w: payload at offset %d", ErrTruncated, off)
		}
		payload := data[off+12 : off+12+length]
		if binary.LittleEndian.Uint32(data[off+12+length:off+length+Overhead]) != MaskedCRC(payload) {
			return nil, fmt.Errorf("%w at offset %d", ErrBadDataCRC, off)
		}
		idx = append(idx, Entry{Offset: off, Length: length})
		off += length + Overhead
	}
	return idx, nil
}

// TotalBytes returns the serialized size of all indexed records.
func (idx Index) TotalBytes() int64 {
	if len(idx) == 0 {
		return 0
	}
	last := idx[len(idx)-1]
	return last.End()
}
