// Package tfexample implements the tf.Example payload format carried
// inside TFRecord shards. The paper's datasets are "ImageNet converted
// into TFRecords" — i.e. every record is a serialized tf.Example
// protocol-buffer message holding the encoded image bytes plus labels.
//
// The package is a minimal, dependency-free implementation of the
// protobuf wire format restricted to the three message types involved:
//
//	message BytesList { repeated bytes value = 1; }
//	message FloatList { repeated float value = 1 [packed = true]; }
//	message Int64List { repeated int64 value = 1 [packed = true]; }
//	message Feature   { oneof kind {
//	    BytesList bytes_list = 1; FloatList float_list = 2;
//	    Int64List int64_list = 3; } }
//	message Features  { map<string, Feature> feature = 1; }
//	message Example   { Features features = 1; }
//
// Marshal is deterministic (features sorted by name), and Unmarshal
// tolerates unknown fields, so real TensorFlow-produced records decode.
package tfexample

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Feature is one named value list; exactly one of the three lists
// should be set (protobuf oneof semantics — Marshal picks the first
// non-nil in Bytes, Ints, Floats order).
type Feature struct {
	Bytes  [][]byte
	Ints   []int64
	Floats []float32
}

// Example is a tf.Example: a map from feature name to value list.
type Example map[string]Feature

// Common errors.
var (
	// ErrMalformed reports a wire-format violation.
	ErrMalformed = errors.New("tfexample: malformed message")
)

// wire types
const (
	wtVarint = 0
	wtI64    = 1
	wtLen    = 2
	wtI32    = 5
)

func appendVarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendTag(b []byte, field int, wt int) []byte {
	return appendVarint(b, uint64(field)<<3|uint64(wt))
}

func appendBytesField(b []byte, field int, data []byte) []byte {
	b = appendTag(b, field, wtLen)
	b = appendVarint(b, uint64(len(data)))
	return append(b, data...)
}

// marshalFeature encodes the Feature submessage.
func marshalFeature(f Feature) []byte {
	var inner []byte
	switch {
	case f.Bytes != nil:
		var bl []byte
		for _, v := range f.Bytes {
			bl = appendBytesField(bl, 1, v)
		}
		inner = appendBytesField(nil, 1, bl) // bytes_list = 1
	case f.Ints != nil:
		var packed []byte
		for _, v := range f.Ints {
			packed = appendVarint(packed, uint64(v))
		}
		il := appendBytesField(nil, 1, packed)
		inner = appendBytesField(nil, 3, il) // int64_list = 3
	case f.Floats != nil:
		var packed []byte
		for _, v := range f.Floats {
			packed = binary.LittleEndian.AppendUint32(packed, math.Float32bits(v))
		}
		fl := appendBytesField(nil, 1, packed)
		inner = appendBytesField(nil, 2, fl) // float_list = 2
	}
	return inner
}

// Marshal serializes the example deterministically.
func Marshal(ex Example) []byte {
	names := make([]string, 0, len(ex))
	for name := range ex {
		names = append(names, name)
	}
	sort.Strings(names)

	var features []byte
	for _, name := range names {
		// map entry: key = 1 (string), value = 2 (Feature)
		var entry []byte
		entry = appendBytesField(entry, 1, []byte(name))
		entry = appendBytesField(entry, 2, marshalFeature(ex[name]))
		features = appendBytesField(features, 1, entry)
	}
	// Example.features = 1
	return appendBytesField(nil, 1, features)
}

// reader is a tiny wire-format cursor.
type reader struct {
	b   []byte
	pos int
}

func (r *reader) done() bool { return r.pos >= len(r.b) }

func (r *reader) varint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, ErrMalformed
	}
	r.pos += n
	return v, nil
}

func (r *reader) tag() (field int, wt int, err error) {
	v, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) {
		return nil, ErrMalformed
	}
	out := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

// skip advances past a field of the given wire type.
func (r *reader) skip(wt int) error {
	switch wt {
	case wtVarint:
		_, err := r.varint()
		return err
	case wtI64:
		if len(r.b)-r.pos < 8 {
			return ErrMalformed
		}
		r.pos += 8
		return nil
	case wtLen:
		_, err := r.bytes()
		return err
	case wtI32:
		if len(r.b)-r.pos < 4 {
			return ErrMalformed
		}
		r.pos += 4
		return nil
	default:
		return fmt.Errorf("%w: wire type %d", ErrMalformed, wt)
	}
}

// Unmarshal parses a serialized tf.Example.
func Unmarshal(data []byte) (Example, error) {
	ex := Example{}
	r := &reader{b: data}
	for !r.done() {
		field, wt, err := r.tag()
		if err != nil {
			return nil, err
		}
		if field == 1 && wt == wtLen { // features
			fb, err := r.bytes()
			if err != nil {
				return nil, err
			}
			if err := parseFeatures(fb, ex); err != nil {
				return nil, err
			}
			continue
		}
		if err := r.skip(wt); err != nil {
			return nil, err
		}
	}
	return ex, nil
}

func parseFeatures(data []byte, ex Example) error {
	r := &reader{b: data}
	for !r.done() {
		field, wt, err := r.tag()
		if err != nil {
			return err
		}
		if field == 1 && wt == wtLen { // map entry
			entry, err := r.bytes()
			if err != nil {
				return err
			}
			name, feat, err := parseEntry(entry)
			if err != nil {
				return err
			}
			ex[name] = feat
			continue
		}
		if err := r.skip(wt); err != nil {
			return err
		}
	}
	return nil
}

func parseEntry(data []byte) (string, Feature, error) {
	r := &reader{b: data}
	var name string
	var feat Feature
	for !r.done() {
		field, wt, err := r.tag()
		if err != nil {
			return "", feat, err
		}
		switch {
		case field == 1 && wt == wtLen:
			b, err := r.bytes()
			if err != nil {
				return "", feat, err
			}
			name = string(b)
		case field == 2 && wt == wtLen:
			b, err := r.bytes()
			if err != nil {
				return "", feat, err
			}
			feat, err = parseFeature(b)
			if err != nil {
				return "", feat, err
			}
		default:
			if err := r.skip(wt); err != nil {
				return "", feat, err
			}
		}
	}
	return name, feat, nil
}

func parseFeature(data []byte) (Feature, error) {
	var f Feature
	r := &reader{b: data}
	for !r.done() {
		field, wt, err := r.tag()
		if err != nil {
			return f, err
		}
		if wt != wtLen {
			if err := r.skip(wt); err != nil {
				return f, err
			}
			continue
		}
		body, err := r.bytes()
		if err != nil {
			return f, err
		}
		switch field {
		case 1: // bytes_list
			if err := parseList(body, func(rr *reader) error {
				v, err := rr.bytes()
				if err != nil {
					return err
				}
				f.Bytes = append(f.Bytes, append([]byte(nil), v...))
				return nil
			}, wtLen); err != nil {
				return f, err
			}
		case 2: // float_list (packed or unpacked)
			if err := parseFloatList(body, &f); err != nil {
				return f, err
			}
		case 3: // int64_list (packed or unpacked)
			if err := parseInt64List(body, &f); err != nil {
				return f, err
			}
		}
	}
	return f, nil
}

// parseList iterates "repeated" fields numbered 1 of the given wire
// type inside a list message.
func parseList(data []byte, fn func(*reader) error, wantWT int) error {
	r := &reader{b: data}
	for !r.done() {
		field, wt, err := r.tag()
		if err != nil {
			return err
		}
		if field == 1 && wt == wantWT {
			if err := fn(r); err != nil {
				return err
			}
			continue
		}
		if err := r.skip(wt); err != nil {
			return err
		}
	}
	return nil
}

func parseInt64List(data []byte, f *Feature) error {
	r := &reader{b: data}
	for !r.done() {
		field, wt, err := r.tag()
		if err != nil {
			return err
		}
		switch {
		case field == 1 && wt == wtLen: // packed
			packed, err := r.bytes()
			if err != nil {
				return err
			}
			pr := &reader{b: packed}
			for !pr.done() {
				v, err := pr.varint()
				if err != nil {
					return err
				}
				f.Ints = append(f.Ints, int64(v))
			}
		case field == 1 && wt == wtVarint: // unpacked
			v, err := r.varint()
			if err != nil {
				return err
			}
			f.Ints = append(f.Ints, int64(v))
		default:
			if err := r.skip(wt); err != nil {
				return err
			}
		}
	}
	return nil
}

func parseFloatList(data []byte, f *Feature) error {
	r := &reader{b: data}
	for !r.done() {
		field, wt, err := r.tag()
		if err != nil {
			return err
		}
		switch {
		case field == 1 && wt == wtLen: // packed
			packed, err := r.bytes()
			if err != nil {
				return err
			}
			if len(packed)%4 != 0 {
				return ErrMalformed
			}
			for i := 0; i < len(packed); i += 4 {
				f.Floats = append(f.Floats,
					math.Float32frombits(binary.LittleEndian.Uint32(packed[i:])))
			}
		case field == 1 && wt == wtI32: // unpacked
			if len(r.b)-r.pos < 4 {
				return ErrMalformed
			}
			f.Floats = append(f.Floats,
				math.Float32frombits(binary.LittleEndian.Uint32(r.b[r.pos:])))
			r.pos += 4
		default:
			if err := r.skip(wt); err != nil {
				return err
			}
		}
	}
	return nil
}

// ImageExample builds the canonical ImageNet-style record: encoded
// image bytes, an integer class label, and the source file name.
func ImageExample(image []byte, label int64, filename string) Example {
	return Example{
		"image/encoded":     {Bytes: [][]byte{image}},
		"image/class/label": {Ints: []int64{label}},
		"image/filename":    {Bytes: [][]byte{[]byte(filename)}},
	}
}

// MarshalToSize marshals an ImageExample whose serialized form is
// exactly size bytes, by sizing the embedded image. It fails if size is
// too small to hold the fixed fields, or falls in a gap: the image sits
// inside four length-prefixed messages, so where one more image byte
// carries a length varint past 127 or 16383 the serialized size steps by
// two or more and the sizes in between have no (canonical) encoding.
// The error names the nearest sizes that do.
func MarshalToSize(label int64, filename string, size int, fill byte) ([]byte, error) {
	// Serialized size is strictly increasing in the image length, in
	// steps of one except at the varint boundaries: walk from an estimate
	// a few bytes short, and stop when the walk turns round.
	overhead := len(Marshal(ImageExample(nil, label, filename)))
	imgLen := size - overhead - 8 // generous slack for length varints
	if imgLen < 0 {
		imgLen = 0
	}
	img := make([]byte, imgLen)
	for i := range img {
		img[i] = fill
	}
	below := -1 // the size one image byte fewer serialized to, once the walk has grown
	for {
		out := Marshal(ImageExample(img, label, filename))
		switch {
		case len(out) == size:
			return out, nil
		case len(out) < size:
			below = len(out)
			img = append(img, fill)
		case len(img) == 0:
			return nil, fmt.Errorf("tfexample: size %d too small (fixed fields need %d)",
				size, len(out))
		case below >= 0:
			return nil, fmt.Errorf("tfexample: no encoding of exactly %d bytes: an image of %d bytes serializes to %d, of %d bytes to %d",
				size, len(img)-1, below, len(img), len(out))
		default:
			img = img[:len(img)-1]
		}
	}
}
