package peernet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// writeFrame emits one frame the way both ends build theirs: the header
// from appendHeader, the payload behind it. The payload may be nil.
func writeFrame(w io.Writer, code byte, payload []byte) error {
	return writeFrameID(w, code, 0, payload)
}

// writeFrameID is writeFrame for a request stamped with an ID.
func writeFrameID(w io.Writer, code byte, req uint64, payload []byte) error {
	b, err := appendHeader(nil, code, req, len(payload))
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, payload...))
	return err
}

// FuzzFrame throws arbitrary bytes at the wire decode path: the frame
// reader first, then every payload parser against each decoded frame,
// then the client's response reader with destinations of several sizes
// (fuzzResponse). The invariants are "no panic" and "no unbounded
// allocation" — malformed lengths, truncated frames and oversize
// payloads must come back as errors. The seed corpus in testdata/fuzz/FuzzFrame pins the
// regressions found while developing the codec.
func FuzzFrame(f *testing.F) {
	// Well-formed frames, so the fuzzer starts from parseable inputs.
	f.Add([]byte{0, 0, 0, 1, OpPing})
	f.Add([]byte{0, 0, 0, 1, OpList})
	var read []byte
	read = appendReadReq(read, "data/shard-0001.rec", 4096, 65536)
	var frame bytes.Buffer
	writeFrame(&frame, OpRead, read)
	f.Add(frame.Bytes())
	var list bytes.Buffer
	writeFrame(&list, StatusOK, appendListResp(nil, []listEntry{
		{name: "a.rec", size: 10}, {name: "b.rec", size: 20},
	}))
	f.Add(list.Bytes())
	var usage bytes.Buffer
	writeFrame(&usage, StatusOK, appendUsageResp(nil, 1<<30, 1<<20))
	f.Add(usage.Bytes())
	// Mutation ops: a WRITE (name + raw data payload), an empty-data
	// WRITE, a REMOVE, and a WRITE whose name length overruns the
	// payload — parseString must bound-check before slicing data off.
	var write bytes.Buffer
	writeFrame(&write, OpWrite, append(appendString(nil, "ckpt/shard-0"), []byte("checkpoint bytes")...))
	f.Add(write.Bytes())
	var writeEmpty bytes.Buffer
	writeFrame(&writeEmpty, OpWrite, appendString(nil, "empty"))
	f.Add(writeEmpty.Bytes())
	var remove bytes.Buffer
	writeFrame(&remove, OpRemove, appendString(nil, "ckpt/old"))
	f.Add(remove.Bytes())
	f.Add([]byte{0, 0, 0, 4, OpWrite, 0xff, 0xff, 'x'})
	// Heartbeat payloads: a gossiped view, an empty view, and the
	// count-overrun shape that parseHeartbeat must bound-check.
	var hb bytes.Buffer
	writeFrame(&hb, OpPing, appendHeartbeat(nil, "node0", []HeartbeatEntry{
		{Node: "node1", Age: 0}, {Node: "node2", Age: 1500 * time.Millisecond},
	}))
	f.Add(hb.Bytes())
	var hbEmpty bytes.Buffer
	writeFrame(&hbEmpty, OpPing, appendHeartbeat(nil, "solo", nil))
	f.Add(hbEmpty.Bytes())
	var hbBad bytes.Buffer
	writeFrame(&hbBad, OpPing, []byte{0, 1, 's', 0xff, 0xff, 0xff, 0xff})
	f.Add(hbBad.Bytes())
	// A STATS response and an ID-stamped request: the version byte,
	// JSON body and the 8-byte correlation ID all sit on the decode
	// path.
	var stats bytes.Buffer
	statsPayload, _ := appendStatsResp(nil, NodeStats{
		Node:   "node0",
		Gossip: []GossipEntry{{Node: "node1", State: "alive"}},
		Jobs:   map[string]JobCounters{"resnet": {ReadsServed: 3, Hits: 2}},
	})
	writeFrame(&stats, StatusOK, statsPayload)
	f.Add(stats.Bytes())
	var reqID bytes.Buffer
	writeFrameID(&reqID, OpRead, 0xdeadbeefcafe, read)
	f.Add(reqID.Bytes())
	var statsReq bytes.Buffer
	writeFrameID(&statsReq, OpStats, 1, nil)
	f.Add(statsReq.Bytes())
	// Malformed shapes: zero length, huge length, truncated body, an
	// ID flag with fewer than 8 ID bytes behind it, a bad STATS version.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 1, 0, OpStat, 0, 50, 'a', 'b'})
	f.Add([]byte{0, 0, 0, 4, OpRead | 0x40, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 3, StatusOK, 0xff, '{'})
	// What only the response reader refuses: a body one byte longer than
	// any destination tried, a length past MaxFrame behind a status, a
	// request op and an ID-flagged status where a status belongs, and an
	// OK body that stops short of its prefix.
	f.Add(append([]byte{0, 0, 0, 66, StatusOK}, make([]byte, 65)...))
	f.Add([]byte{0x04, 0, 0, 1, StatusOK, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 3, OpRead, 1, 2})
	f.Add([]byte{0, 0, 0, 3, StatusOK | flagReqID, 1, 2})
	f.Add([]byte{0, 0, 0, 9, StatusOK, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzResponse(t, data)
		r := bytes.NewReader(data)
		var hdr [13]byte
		for {
			code, req, payload, err := readFrame(r, &hdr)
			if err != nil {
				break
			}
			// The ID flag must be stripped from decoded codes, and an
			// absent ID decodes as zero.
			if code&0x80 == 0 && code&0x40 != 0 {
				t.Fatalf("undecoded request-ID flag on code %#x", code)
			}
			_ = req
			// A decoded frame's length prefix can never exceed what the
			// input held.
			if len(payload)+1 > len(data) {
				t.Fatalf("payload %d bytes from %d input bytes", len(payload), len(data))
			}
			_ = code
			// Run every parser over the payload; they must error or
			// succeed, never panic, regardless of which op the payload
			// was really for.
			if s, rest, err := parseString(payload); err == nil {
				if len(s)+len(rest) > len(payload) {
					t.Fatal("parseString conjured bytes")
				}
			}
			fuzzInternedRead(t, payload)
			if entries, err := parseListResp(payload); err == nil {
				for _, e := range entries {
					if len(e.name) > len(payload) {
						t.Fatal("parseListResp conjured a name")
					}
				}
			}
			parseUsageResp(payload)
			parseI64(payload)
			parseU32(payload)
			if sender, entries, err := parseHeartbeat(payload); err == nil {
				if len(sender) > len(payload) || len(entries) > len(payload) {
					t.Fatal("parseHeartbeat conjured data")
				}
			}
			if ns, err := parseStatsResp(payload); err == nil {
				if len(ns.Node) > len(payload) {
					t.Fatal("parseStatsResp conjured a node name")
				}
			}
		}
	})
}

// fuzzResponse drives readResponse over data with destinations of
// several sizes, the last one no destination at all. Whatever the bytes
// say, the reader writes nothing past dst, takes nothing from the
// length prefix alone (a body comes back only if the input held all of
// it), fails only with errMalformed or a short stream, and says
// errMalformed for a body longer than dst and for a code that is not a
// status.
func fuzzResponse(t *testing.T, data []byte) {
	const guard = 0xA5
	for _, size := range []int{0, 1, 16, 64, -1} {
		buf := bytes.Repeat([]byte{guard}, 64+8)
		var dst []byte
		if size >= 0 {
			dst = buf[:size]
		}
		var hdr [5]byte
		r := bytes.NewReader(data)
		status, body, err := readResponse(r, &hdr, dst)
		for _, b := range buf[max(size, 0):] {
			if b != guard {
				t.Fatalf("dst of %d bytes: wrote past it", size)
			}
		}
		if err != nil {
			if !errors.Is(err, errMalformed) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("dst of %d bytes: error %v is neither malformed nor a short stream", size, err)
			}
			if body != nil && len(data) >= 5 && errors.Is(err, errMalformed) {
				t.Fatalf("dst of %d bytes: a malformed response returned %d bytes", size, len(body))
			}
			if len(data) < 5 {
				continue
			}
			n, code := binary.BigEndian.Uint32(data), data[4]
			wantMalformed := n == 0 || n > MaxFrame || code&0x80 == 0 || code&flagReqID != 0 ||
				(code == StatusOK && size >= 0 && int(n-1) > size)
			if wantMalformed != errors.Is(err, errMalformed) {
				t.Fatalf("dst of %d bytes, prefix %d, code %#x: error %v", size, n, code, err)
			}
			continue
		}
		if status&0x80 == 0 || status&flagReqID != 0 {
			t.Fatalf("accepted code %#x as a status", status)
		}
		if len(body)+5 > len(data) {
			t.Fatalf("body of %d bytes from %d input bytes", len(body), len(data))
		}
		if status == StatusOK && size >= 0 {
			if len(body) > size || (len(body) > 0 && &body[0] != &dst[0]) {
				t.Fatalf("dst of %d bytes: an OK body of %d bytes, or not in dst", size, len(body))
			}
			if !bytes.Equal(body, data[5:5+len(body)]) {
				t.Fatal("OK body differs from the bytes on the wire")
			}
		} else {
			putPayload(body)
		}
	}
}

// FuzzRoundtrip checks encode→decode identity for request/response
// payloads built from fuzzed fields.
func FuzzRoundtrip(f *testing.F) {
	f.Add("data/x.rec", int64(0), uint32(1024))
	f.Add("", int64(-1), uint32(0))
	f.Fuzz(func(t *testing.T, name string, off int64, n uint32) {
		if len(name) > 0xffff {
			name = name[:0xffff]
		}
		if n > maxData {
			n = maxData
		}
		payload := appendReadReq(nil, name, off, n)
		var buf bytes.Buffer
		if err := writeFrame(&buf, OpRead, payload); err != nil {
			t.Fatal(err)
		}
		var hdr [13]byte
		code, _, got, err := readFrame(&buf, &hdr)
		if err != nil || code != OpRead {
			t.Fatalf("decode: code=%#x err=%v", code, err)
		}
		rq, err := fuzzInternedRead(t, got)
		if err != nil {
			t.Fatal(err)
		}
		if rq.name != name || rq.off != off || rq.n != n {
			t.Fatalf("roundtrip mismatch: %+v", rq)
		}
	})
}

// fuzzInternedRead parses a READ payload without an intern table, then
// twice through one fresh table — a miss, then a hit — and fails unless
// all three agree, error included. It returns the table-free parse.
func fuzzInternedRead(t *testing.T, payload []byte) (readReq, error) {
	t.Helper()
	want, werr := parseReadReq(payload, nil)
	names := make(internTable)
	for _, pass := range []string{"miss", "hit"} {
		got, err := parseReadReq(payload, names)
		if got != want || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("interned parse (%s) = %+v, %v; table-free %+v, %v", pass, got, err, want, werr)
		}
	}
	return want, werr
}

// FuzzHeartbeat checks encode→decode identity for gossiped views built
// from fuzzed fields, and that the decoder never accepts trailing junk.
func FuzzHeartbeat(f *testing.F) {
	f.Add("node0", "node1", int64(0), "node2", int64(1500))
	f.Add("", "", int64(-1), "", int64(1<<40))
	f.Fuzz(func(t *testing.T, sender, n1 string, age1 int64, n2 string, age2 int64) {
		if len(sender) > 0xffff {
			sender = sender[:0xffff]
		}
		if len(n1) > 0xffff {
			n1 = n1[:0xffff]
		}
		if len(n2) > 0xffff {
			n2 = n2[:0xffff]
		}
		entries := []HeartbeatEntry{
			{Node: n1, Age: time.Duration(age1) * time.Millisecond},
			{Node: n2, Age: time.Duration(age2) * time.Millisecond},
		}
		payload := appendHeartbeat(nil, sender, entries)
		gotSender, got, err := parseHeartbeat(payload)
		if err != nil {
			t.Fatalf("decode of encoded view: %v", err)
		}
		if gotSender != sender || len(got) != len(entries) {
			t.Fatalf("roundtrip: sender=%q entries=%d", gotSender, len(got))
		}
		for i := range entries {
			// Ages travel as u64 nanos, clamped at zero on encode
			// (negative silence does not exist).
			want := entries[i].Age
			if want < 0 {
				want = 0
			}
			if got[i].Node != entries[i].Node || got[i].Age != want {
				t.Fatalf("entry %d: got %+v want {%s %v}", i, got[i], entries[i].Node, want)
			}
		}
		if _, _, err := parseHeartbeat(append(payload, 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	})
}

// TestFrameRejectsOversize pins the MaxFrame guard on both sides.
func TestFrameRejectsOversize(t *testing.T) {
	var hdr [13]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	hdr[4] = StatusOK
	if _, _, _, err := readFrame(bytes.NewReader(hdr[:5]), new([13]byte)); !errors.Is(err, errMalformed) {
		t.Fatalf("oversize length: readFrame returned %v", err)
	}
	if _, _, err := readResponse(bytes.NewReader(hdr[:5]), new([5]byte), nil); !errors.Is(err, errMalformed) {
		t.Fatalf("oversize length: readResponse returned %v", err)
	}
	if err := writeFrame(&bytes.Buffer{}, OpWrite, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversize write accepted")
	}
}
