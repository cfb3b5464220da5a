// Package recordio implements MXNet's RecordIO container format, the
// second packed dataset format the paper's introduction names next to
// TFRecords ("optimized data formats, such as TensorFlow's TFRecords,
// MXNet's RecordIO, and HDF5, pack several small-sized files into a
// single, larger one").
//
// MONARCH is format-agnostic — it moves whole files between tiers — so
// supporting a second real on-disk format demonstrates that nothing in
// the middleware depends on TFRecord framing.
//
// On-disk layout of each record:
//
//	uint32 magic   = 0xced7230a           (little endian)
//	uint32 lrecord = cflag<<29 | length   (cflag = continuation flag)
//	byte   data[length]
//	byte   pad[(4 - length%4) % 4]        (zero padding to 4-byte alignment)
//
// This implementation writes single-part records (cflag 0) and rejects
// multi-part records on read; MXNet only emits multi-part framing for
// records larger than the 2^29-byte field, far beyond image sizes.
package recordio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Magic is the per-record marker word.
const Magic uint32 = 0xced7230a

// HeaderSize is the fixed framing before each payload: the magic and
// the length.
const HeaderSize = 8

// maxLength is the largest payload a single-part record can hold.
const maxLength = 1<<29 - 1

// Errors returned by Reader.
var (
	// ErrBadMagic reports a corrupted or misaligned record boundary.
	ErrBadMagic = errors.New("recordio: bad magic")
	// ErrTruncated reports a record cut short by EOF.
	ErrTruncated = errors.New("recordio: truncated record")
	// ErrMultiPart reports an unsupported continuation record.
	ErrMultiPart = errors.New("recordio: multi-part records unsupported")
	// ErrTooLarge reports a payload exceeding the length field.
	ErrTooLarge = errors.New("recordio: record exceeds 2^29-1 bytes")
)

// Pad returns the number of zero bytes appended after a payload of n
// bytes.
func Pad(n int64) int64 { return (4 - n%4) % 4 }

// RecordSize returns the on-disk footprint of a payload of n bytes.
func RecordSize(n int64) int64 { return HeaderSize + n + Pad(n) }

// Frame writes one record's framing in place around its n-byte payload.
// rec is the whole record: RecordSize(n) bytes with the payload at
// rec[HeaderSize:]. Frame fills in the magic and the length and zeroes
// the padding. A payload longer than a single-part record holds is
// ErrTooLarge, and rec is left as it was.
func Frame(rec []byte, n int64) error {
	if n > maxLength {
		return ErrTooLarge
	}
	binary.LittleEndian.PutUint32(rec, Magic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(n))
	clear(rec[HeaderSize+n:])
	return nil
}

// Reader iterates records.
type Reader struct {
	r      *bufio.Reader
	offset int64
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next payload, or io.EOF cleanly at stream end.
func (r *Reader) Next() ([]byte, error) {
	var hdr [HeaderSize]byte
	n, err := io.ReadFull(r.r, hdr[:])
	if err == io.EOF && n == 0 {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: header at offset %d", ErrTruncated, r.offset)
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != Magic {
		return nil, fmt.Errorf("%w at offset %d", ErrBadMagic, r.offset)
	}
	lrecord := binary.LittleEndian.Uint32(hdr[4:])
	if cflag := lrecord >> 29; cflag != 0 {
		return nil, fmt.Errorf("%w (cflag %d at offset %d)", ErrMultiPart, cflag, r.offset)
	}
	length := int64(lrecord & maxLength)
	data, err := readPayload(r.r, length)
	if err != nil {
		return nil, fmt.Errorf("%w: payload at offset %d", ErrTruncated, r.offset)
	}
	if pad := Pad(length); pad > 0 {
		var buf [3]byte
		if _, err := io.ReadFull(r.r, buf[:pad]); err != nil {
			return nil, fmt.Errorf("%w: padding at offset %d", ErrTruncated, r.offset)
		}
	}
	r.offset += RecordSize(length)
	return data, nil
}

// Offset returns the stream offset of the next record.
func (r *Reader) Offset() int64 { return r.offset }

// readPayload reads exactly n bytes, growing the buffer incrementally
// so a corrupted length field cannot force a huge up-front allocation.
func readPayload(r io.Reader, n int64) ([]byte, error) {
	const chunk = 1 << 20
	data := make([]byte, 0, min64(n, chunk))
	for int64(len(data)) < n {
		want := min64(n-int64(len(data)), chunk)
		data = append(data, make([]byte, want)...)
		if _, err := io.ReadFull(r, data[int64(len(data))-want:]); err != nil {
			return nil, err
		}
	}
	return data, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Entry locates one record in a serialized stream.
type Entry struct {
	Offset int64 // record header offset
	Length int64 // payload length
}

// End returns the offset one past the record (including padding).
func (e Entry) End() int64 { return e.Offset + RecordSize(e.Length) }

// BuildIndex scans a serialized stream and returns its record index.
func BuildIndex(data []byte) ([]Entry, error) {
	var idx []Entry
	off := int64(0)
	for off < int64(len(data)) {
		if off+HeaderSize > int64(len(data)) {
			return nil, fmt.Errorf("%w: header at offset %d", ErrTruncated, off)
		}
		if binary.LittleEndian.Uint32(data[off:off+4]) != Magic {
			return nil, fmt.Errorf("%w at offset %d", ErrBadMagic, off)
		}
		lrecord := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if lrecord>>29 != 0 {
			return nil, fmt.Errorf("%w at offset %d", ErrMultiPart, off)
		}
		e := Entry{Offset: off, Length: int64(lrecord & maxLength)}
		if e.End() > int64(len(data)) {
			return nil, fmt.Errorf("%w: payload at offset %d", ErrTruncated, off)
		}
		idx = append(idx, e)
		off = e.End()
	}
	return idx, nil
}
