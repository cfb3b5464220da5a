package tfexample

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestRoundtripAllFeatureKinds(t *testing.T) {
	ex := Example{
		"image/encoded":     {Bytes: [][]byte{[]byte("jpegdata"), []byte("more")}},
		"image/class/label": {Ints: []int64{42, -7, 0}},
		"image/aspect":      {Floats: []float32{1.5, -0.25}},
	}
	data := Marshal(ex)
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("features = %d", len(got))
	}
	if !bytes.Equal(got["image/encoded"].Bytes[0], []byte("jpegdata")) ||
		!bytes.Equal(got["image/encoded"].Bytes[1], []byte("more")) {
		t.Fatalf("bytes feature: %+v", got["image/encoded"])
	}
	ints := got["image/class/label"].Ints
	if len(ints) != 3 || ints[0] != 42 || ints[1] != -7 || ints[2] != 0 {
		t.Fatalf("ints feature: %v", ints)
	}
	floats := got["image/aspect"].Floats
	if len(floats) != 2 || floats[0] != 1.5 || floats[1] != -0.25 {
		t.Fatalf("floats feature: %v", floats)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	ex := Example{
		"b": {Ints: []int64{1}},
		"a": {Ints: []int64{2}},
		"c": {Bytes: [][]byte{[]byte("x")}},
	}
	if !bytes.Equal(Marshal(ex), Marshal(ex)) {
		t.Fatal("marshal not deterministic")
	}
}

func TestEmptyExample(t *testing.T) {
	data := Marshal(Example{})
	got, err := Unmarshal(data)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v err %v", got, err)
	}
	// Completely empty input is a valid empty message too.
	got, err = Unmarshal(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("nil input: %v err %v", got, err)
	}
}

func TestRoundtripProperty(t *testing.T) {
	err := quick.Check(func(img []byte, label int64, name string) bool {
		ex := Example{
			"image/encoded":     {Bytes: [][]byte{img}},
			"image/class/label": {Ints: []int64{label}},
			"image/filename":    {Bytes: [][]byte{[]byte(name)}},
		}
		got, err := Unmarshal(Marshal(ex))
		if err != nil {
			return false
		}
		return bytes.Equal(got["image/encoded"].Bytes[0], img) &&
			got["image/class/label"].Ints[0] == label &&
			string(got["image/filename"].Bytes[0]) == name
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalToleratesUnknownFields(t *testing.T) {
	// Hand-build an Example with an extra unknown field 9 (varint) at
	// the top level and inside the Feature.
	var b []byte
	b = appendTag(b, 9, wtVarint)
	b = appendVarint(b, 123)
	b = append(b, Marshal(Example{"k": {Ints: []int64{5}}})...)
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got["k"].Ints[0] != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	valid := Marshal(Example{"k": {Bytes: [][]byte{bytes.Repeat([]byte{1}, 50)}}})
	cases := [][]byte{
		valid[:len(valid)-10],          // truncated payload
		append([]byte{0xFF}, valid...), // bogus leading tag/varint
		{0x0A, 0xFF, 0xFF, 0xFF, 0xFF}, // length longer than buffer
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: corruption accepted", i)
		}
	}
}

func TestUnpackedListsDecode(t *testing.T) {
	// Some writers emit unpacked repeated scalars; build one by hand:
	// Feature{int64_list{value: 7 (unpacked varint)}}.
	var il []byte
	il = appendTag(il, 1, wtVarint)
	il = appendVarint(il, 7)
	var feat []byte
	feat = appendBytesField(feat, 3, il)
	var entry []byte
	entry = appendBytesField(entry, 1, []byte("n"))
	entry = appendBytesField(entry, 2, feat)
	var features []byte
	features = appendBytesField(features, 1, entry)
	msg := appendBytesField(nil, 1, features)

	got, err := Unmarshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got["n"].Ints[0] != 7 {
		t.Fatalf("got %+v", got)
	}
}

func TestImageExampleShape(t *testing.T) {
	ex := ImageExample([]byte("img"), 3, "f.jpg")
	if string(ex["image/encoded"].Bytes[0]) != "img" ||
		ex["image/class/label"].Ints[0] != 3 ||
		string(ex["image/filename"].Bytes[0]) != "f.jpg" {
		t.Fatalf("%+v", ex)
	}
}

func TestMarshalToSizeExact(t *testing.T) {
	for _, size := range []int{90, 100, 127, 128, 129, 1000, 16384, 16385} {
		out, err := MarshalToSize(7, "shard/rec-1", size, 0xAB)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(out) != size {
			t.Fatalf("size %d: got %d bytes", size, len(out))
		}
		ex, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if ex["image/class/label"].Ints[0] != 7 {
			t.Fatalf("size %d: label lost", size)
		}
	}
}

func TestMarshalToSizeTooSmall(t *testing.T) {
	if _, err := MarshalToSize(1, "some/very/long/filename.jpg", 10, 0); err == nil {
		t.Fatal("expected error for impossible size")
	}
}

func TestMarshalToSizeProperty(t *testing.T) {
	err := quick.Check(func(label int64, raw uint16) bool {
		size := int(raw%5000) + 90
		out, err := MarshalToSize(label, "f", size, 1)
		if err != nil {
			return isGap(label, "f", size, err)
		}
		return len(out) == size
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// isGap reports whether err is MarshalToSize's "no encoding of exactly
// size bytes" — and true: the two image lengths it names are adjacent
// and serialize to sizes that straddle size.
func isGap(label int64, filename string, size int, err error) bool {
	var n0, s0, n1, s1, got int
	if _, serr := fmt.Sscanf(err.Error(),
		"tfexample: no encoding of exactly %d bytes: an image of %d bytes serializes to %d, of %d bytes to %d",
		&got, &n0, &s0, &n1, &s1); serr != nil {
		return false
	}
	return got == size && n1 == n0+1 && s0 < size && size < s1 &&
		len(Marshal(ImageExample(make([]byte, n0), label, filename))) == s0 &&
		len(Marshal(ImageExample(make([]byte, n1), label, filename))) == s1
}

// TestMarshalToSizeTerminates walks every size a record can have, under
// labels whose varints are 1, 1, 10 and 6 bytes: each call returns —
// MarshalToSize(0, "f", 130, 1) used to oscillate between 129 and 131
// for ever — with exactly size bytes that decode, or with an error that
// is true: the size is below the fixed fields, or in a gap.
func TestMarshalToSizeTerminates(t *testing.T) {
	deadline := time.Now().Add(30 * time.Second)
	for _, label := range []int64{0, 1, -1, 1 << 40} {
		floor := len(Marshal(ImageExample(nil, label, "f")))
		gaps := 0
		for size := 0; size <= 8192; size++ {
			out, err := MarshalToSize(label, "f", size, 1)
			switch {
			case err == nil && len(out) != size:
				t.Fatalf("label %d size %d: got %d bytes", label, size, len(out))
			case err == nil:
				if ex, uerr := Unmarshal(out); uerr != nil || ex["image/class/label"].Ints[0] != label {
					t.Fatalf("label %d size %d: does not decode: %v", label, size, uerr)
				}
			case size < floor:
			case isGap(label, "f", size, err):
				gaps++
			default:
				t.Fatalf("label %d size %d (fixed fields %d): %v", label, size, floor, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("label %d: still at size %d after 30 s", label, size)
			}
		}
		// Four nested length prefixes cross 127 within a few bytes of
		// each other; none reaches 16383 below 8192.
		if gaps == 0 || gaps > 8 {
			t.Errorf("label %d: %d sizes in 0…8192 have no encoding; want the few around the 1→2-byte varint boundary", label, gaps)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	ex := ImageExample(bytes.Repeat([]byte{1}, 100<<10), 3, "f.jpg")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Marshal(ex)
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	data := Marshal(ImageExample(bytes.Repeat([]byte{1}, 100<<10), 3, "f.jpg"))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
