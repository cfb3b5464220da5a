package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestReadRefusesOtherVersions: the record layout belongs to the
// version, so a header that is not this reader's must fail up front
// with a clear error instead of being mis-parsed (a version-1 binary
// capture had 32-byte records; read as 40-byte ones it would decode
// into garbage events).
func TestReadRefusesOtherVersions(t *testing.T) {
	for _, v := range []int{1, Version + 1} {
		hdr, err := json.Marshal(Header{Version: v, Clock: "wall", Levels: []Level{{Name: "ssd"}}})
		if err != nil {
			t.Fatal(err)
		}
		var bin bytes.Buffer
		bin.Write(binMagic)
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(hdr)))
		bin.Write(n[:])
		bin.Write(hdr)
		bin.WriteByte(tagEvent)
		bin.Write(make([]byte, 32)) // one version-1-sized record
		_, err = Read(&bin)
		want := fmt.Sprintf("unsupported trace version %d", v)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: err = %v, want %q", v, err, want)
		}
	}
}

// TestParentFixtureDecodes: testdata/parent.bin was written by the
// recorder of the commit before the one-encoding change (the script is
// fixtureScript in fixture_test.go) and parent.json is that commit's
// decode of it. The format did not move: today's reader yields the same
// Header, Files, Events, Summary and Stats.
func TestParentFixtureDecodes(t *testing.T) {
	tr, err := ReadFile("testdata/parent.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(tr, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/parent.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("the parent commit's capture decodes differently now:\n%s", got)
	}
}

// TestReadRefusesJSONLines: the retired text encoding gets an error
// that names it, not a parse failure.
func TestReadRefusesJSONLines(t *testing.T) {
	_, err := Read(strings.NewReader(`{"monarch_trace":2,"clock":"wall","levels":[{"name":"ssd"}]}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "JSON-lines") || !strings.Contains(err.Error(), "-events") {
		t.Fatalf("err = %v; want one that names the retired encoding and the -events rendering", err)
	}
	if _, err := Read(strings.NewReader("garbage")); err == nil || !strings.Contains(err.Error(), "not a monarch trace") {
		t.Fatalf("garbage: err = %v", err)
	}
}

// binTrace frames a header and raw record bytes the way the encoder does.
func binTrace(t *testing.T, h Header, records ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := newEncoder(&buf)
	if err := e.header(h); err != nil {
		t.Fatal(err)
	}
	e.flush()
	for _, r := range records {
		buf.Write(r)
	}
	return buf.Bytes()
}

// TestReadBoundsHostileLengths: a length prefix is the file's claim.
// Ten bytes that promise a 2 GiB header must cost an error, not 2 GiB.
func TestReadBoundsHostileLengths(t *testing.T) {
	hostile := map[string][]byte{
		"header":     []byte("MTRB1\n\xff\xff\xff\x7f"),
		"definition": binTrace(t, Header{Version: Version}, []byte{tagDefine, 0xff, 0xff, 0xff, 0x7f}),
		"trailer":    binTrace(t, Header{Version: Version}, []byte{tagTrailer, 0xff, 0xff, 0xff, 0x7f}),
		// Under the cap, but the bytes never arrive.
		"short": binTrace(t, Header{Version: Version}, []byte{tagTrailer, 0x00, 0x00, 0x08, 0x00, 'x'}),
	}
	for name, data := range hostile {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a %d-byte file with a hostile length decoded", name, len(data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: reading %d bytes allocated %d", name, len(data), grew)
		}
	}
	levels := make([]Level, maxLevels+1)
	if _, err := Read(bytes.NewReader(binTrace(t, Header{Version: Version, Levels: levels}))); err == nil {
		t.Errorf("a header of %d levels decoded; Event.Tier cannot name them", len(levels))
	}
}

// TestReadRefusesUndefinedFile: the recorder defines a file before the
// first event that names it, so an ID past the table is corruption. 0
// stays "no file".
func TestReadRefusesUndefinedFile(t *testing.T) {
	event := func(file uint32) []byte {
		var buf bytes.Buffer
		e := newEncoder(&buf)
		e.event(Event{T: 1, File: file, Kind: KindRead, Class: ClassLocal})
		e.flush()
		return buf.Bytes()
	}
	h := Header{Version: Version, Levels: []Level{{Name: "ssd"}}}
	if tr, err := Read(bytes.NewReader(binTrace(t, h, event(0)))); err != nil || len(tr.Events) != 1 {
		t.Fatalf("file 0: %v", err)
	}
	_, err := Read(bytes.NewReader(binTrace(t, h, event(1))))
	if err == nil || !strings.Contains(err.Error(), "names file 1") {
		t.Fatalf("undefined file: err = %v", err)
	}
}
