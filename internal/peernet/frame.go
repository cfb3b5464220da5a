// Package peernet serves a node's tier-0 cache to sibling nodes over a
// length-prefixed binary wire protocol, and consumes sibling caches
// through a storage.Backend client — the "peer tier" that slots into
// the MONARCH hierarchy between local SSD and the PFS.
//
// The wire format is one frame per request and one per response:
//
//	| u32 length (big-endian) | u8 code | payload (length-1 bytes) |
//
// The code byte is an Op for requests and a Status for responses;
// the two ranges are disjoint so a desynchronised stream fails loudly
// instead of misparsing. Strings travel as u16 length + bytes,
// integers as big-endian fixed width. Frames are capped at MaxFrame;
// decoders reject anything larger before allocating.
package peernet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"monarch/internal/bufpool"
)

// MaxFrame bounds one frame (code byte + payload). Large reads are
// split client-side into maxData-sized requests, so the cap is a
// protocol sanity limit, not a file-size limit.
const MaxFrame = 64 << 20

// maxData is the largest byte range the client asks for in one READ
// frame; response = 1 code byte + payload must stay under MaxFrame.
const maxData = 4 << 20

// Op codes sent by clients. The high bit is clear; Status codes have
// it set.
const (
	// OpPing checks liveness; empty payload, empty OK response. A
	// non-empty payload is a piggybacked membership heartbeat (see
	// appendHeartbeat); servers with a Membership answer with their own
	// view, servers without answer empty — old and new nodes interoperate.
	OpPing byte = 0x01
	// OpStat requests file metadata; payload = name, response = i64 size.
	OpStat byte = 0x02
	// OpList requests the full listing; empty payload, response =
	// u32 count + count×(name, i64 size).
	OpList byte = 0x03
	// OpRead requests a byte range; payload = name + i64 off + u32 n,
	// response payload = the bytes read (short at EOF, empty past it).
	OpRead byte = 0x04
	// OpWrite creates or replaces a file; payload = name + data.
	OpWrite byte = 0x05
	// OpRemove deletes a file; payload = name.
	OpRemove byte = 0x06
	// OpUsage requests quota accounting; response = i64 capacity +
	// i64 used.
	OpUsage byte = 0x07
	// OpStats requests the node's observability snapshot; empty payload,
	// response = u8 version + JSON-encoded NodeStats (see stats.go).
	// Servers without a stats source answer StatusInvalid, so old and
	// new nodes interoperate.
	OpStats byte = 0x08
)

// flagReqID marks a request frame that carries a correlation ID: when
// the bit is set on an op code, 8 big-endian bytes of request ID sit
// between the code byte and the payload. The bit is outside both the
// op range (0x01–0x08) and the status range (0x80–0x87), so a server
// that predates it would see an unknown op and answer StatusInvalid
// instead of misparsing. Responses never carry the bit: a response is
// matched to its request by the synchronous framing, not by ID.
const flagReqID byte = 0x40

// Status codes returned by servers. Each maps onto the storage sentinel
// the client re-wraps, so errors.Is works across the wire.
const (
	// StatusOK carries the operation's result payload.
	StatusOK byte = 0x80
	// StatusNotExist maps to storage.ErrNotExist.
	StatusNotExist byte = 0x81
	// StatusExist maps to storage.ErrExist.
	StatusExist byte = 0x82
	// StatusNoSpace maps to storage.ErrNoSpace.
	StatusNoSpace byte = 0x83
	// StatusReadOnly maps to storage.ErrReadOnly.
	StatusReadOnly byte = 0x84
	// StatusInvalid reports a malformed or rejected request (bad name,
	// unparseable payload, unknown op).
	StatusInvalid byte = 0x85
	// StatusCanceled maps to context.Canceled.
	StatusCanceled byte = 0x86
	// StatusInternal reports any other backend failure.
	StatusInternal byte = 0x87
)

// errMalformed tags every decode failure so the fuzz target (and the
// server's request loop) can distinguish protocol garbage from I/O
// errors.
var errMalformed = errors.New("peernet: malformed frame")

// appendHeader appends the header of a frame of n payload bytes: the
// length, the code and — flagReqID set on the code — a non-zero req.
// Both ends build every frame they send through it: one MaxFrame guard.
func appendHeader(b []byte, code byte, req uint64, n int) ([]byte, error) {
	if n+1 > MaxFrame {
		return b, fmt.Errorf("peernet: frame payload %d bytes exceeds MaxFrame", n)
	}
	if req == 0 {
		return append(binary.BigEndian.AppendUint32(b, uint32(n+1)), code), nil
	}
	b = append(binary.BigEndian.AppendUint32(b, uint32(n+9)), code|flagReqID)
	return binary.BigEndian.AppendUint64(b, req), nil
}

// readFrame decodes one frame from r, its header through hdr (the
// connection's scratch: a local array would escape through r on every
// call). Payloads up to bufpool.MaxPooled come from the buffer pool —
// the caller hands them back with putPayload once parsed (every
// in-tree decode copies what it keeps: strings via parseString,
// WriteFile data via the backend's own copy). Larger payloads are
// freshly allocated, growing in bounded steps so a hostile length
// prefix cannot force a huge allocation before the stream runs dry.
func readFrame(r io.Reader, hdr *[13]byte) (code byte, req uint64, payload []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 {
		return 0, 0, nil, fmt.Errorf("%w: zero length", errMalformed)
	}
	if n > MaxFrame {
		return 0, 0, nil, fmt.Errorf("%w: length %d exceeds MaxFrame", errMalformed, n)
	}
	if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
		return 0, 0, nil, err
	}
	code = hdr[4]
	n--
	if code&0x80 == 0 && code&flagReqID != 0 {
		// A request frame carrying a correlation ID: 8 ID bytes sit
		// between the code byte and the payload.
		if n < 8 {
			return 0, 0, nil, fmt.Errorf("%w: truncated request ID", errMalformed)
		}
		if _, err := io.ReadFull(r, hdr[5:]); err != nil {
			return 0, 0, nil, err
		}
		req = binary.BigEndian.Uint64(hdr[5:])
		code &^= flagReqID
		n -= 8
	}
	body, err := readBounded(r, int(n))
	if err != nil {
		return 0, 0, nil, err
	}
	return code, req, body, nil
}

// readResponse decodes one response frame from r, its header in one
// Read through hdr. An OK body is read straight into dst when the
// caller gave one (a READ's range) and returned as a prefix of it; a
// longer body is malformed before a byte of it is read, so nothing is
// written past dst or allocated for it. Any other body — an error's
// message, a response without a dst — is a payload as from readFrame.
// A code that is not a status means the stream is out of step.
func readResponse(r io.Reader, hdr *[5]byte, dst []byte) (status byte, body []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	status = hdr[4]
	switch {
	case n == 0:
		return 0, nil, fmt.Errorf("%w: zero length", errMalformed)
	case n > MaxFrame:
		return 0, nil, fmt.Errorf("%w: length %d exceeds MaxFrame", errMalformed, n)
	case status&0x80 == 0 || status&flagReqID != 0:
		return 0, nil, fmt.Errorf("%w: code 0x%02x in a response", errMalformed, status)
	}
	n--
	if status != StatusOK || dst == nil {
		body, err = readBounded(r, int(n))
		return status, body, err
	}
	if int(n) > len(dst) {
		return 0, nil, fmt.Errorf("%w: %d-byte body for a %d-byte read", errMalformed, n, len(dst))
	}
	_, err = io.ReadFull(r, dst[:n])
	return status, dst[:n], err
}

// readBounded reads exactly n bytes. Sizes the pool covers borrow a
// pooled buffer (a hostile length prefix can pin at most one maximal
// pool class per connection, and the buffer is recycled either way);
// larger reads grow incrementally so the prefix alone cannot force a
// near-MaxFrame allocation before the stream runs dry.
func readBounded(r io.Reader, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if n <= bufpool.MaxPooled {
		buf := bufpool.Get(n)
		if _, err := io.ReadFull(r, buf); err != nil {
			bufpool.Put(buf)
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, 0, 64<<10)
	for len(buf) < n {
		chunk := min(n-len(buf), 1<<20)
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// putPayload recycles a frame payload obtained from readFrame. Safe on
// nil and on payloads that outgrew the pool (bufpool discards those).
func putPayload(p []byte) { bufpool.Put(p) }

// appendString encodes s as u16 length + bytes.
func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// parseString decodes a string, returning the remainder of p.
func parseString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("%w: truncated string length", errMalformed)
	}
	n := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < n {
		return "", nil, fmt.Errorf("%w: truncated string body", errMalformed)
	}
	return string(p[:n]), p[n:], nil
}

// parseI64 decodes a big-endian int64, returning the remainder.
func parseI64(p []byte) (int64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("%w: truncated int64", errMalformed)
	}
	return int64(binary.BigEndian.Uint64(p)), p[8:], nil
}

// parseU32 decodes a big-endian uint32, returning the remainder.
func parseU32(p []byte) (uint32, []byte, error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("%w: truncated uint32", errMalformed)
	}
	return binary.BigEndian.Uint32(p), p[4:], nil
}

// readReq is the decoded payload of an OpRead frame.
type readReq struct {
	name string
	off  int64
	n    uint32
}

// appendReadReq encodes a READ request payload.
func appendReadReq(b []byte, name string, off int64, n uint32) []byte {
	b = appendString(b, name)
	b = binary.BigEndian.AppendUint64(b, uint64(off))
	return binary.BigEndian.AppendUint32(b, n)
}

// parseReadReq decodes a READ request payload.
func parseReadReq(p []byte) (readReq, error) {
	var rq readReq
	var err error
	if rq.name, p, err = parseString(p); err != nil {
		return rq, err
	}
	if rq.off, p, err = parseI64(p); err != nil {
		return rq, err
	}
	if rq.n, p, err = parseU32(p); err != nil {
		return rq, err
	}
	if rq.n > maxData {
		return rq, fmt.Errorf("%w: read of %d bytes exceeds per-request cap", errMalformed, rq.n)
	}
	if len(p) != 0 {
		return rq, fmt.Errorf("%w: %d trailing bytes after READ request", errMalformed, len(p))
	}
	return rq, nil
}

// listEntry is one (name, size) pair in a LIST response.
type listEntry struct {
	name string
	size int64
}

// appendListResp encodes a LIST response payload.
func appendListResp(b []byte, entries []listEntry) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = appendString(b, e.name)
		b = binary.BigEndian.AppendUint64(b, uint64(e.size))
	}
	return b
}

// parseListResp decodes a LIST response payload.
func parseListResp(p []byte) ([]listEntry, error) {
	count, p, err := parseU32(p)
	if err != nil {
		return nil, err
	}
	// Every entry is at least 10 bytes (2-byte name length + 8-byte
	// size); reject counts the payload cannot possibly hold before
	// allocating for them.
	if int64(count)*10 > int64(len(p)) {
		return nil, fmt.Errorf("%w: list count %d exceeds payload", errMalformed, count)
	}
	entries := make([]listEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		var e listEntry
		if e.name, p, err = parseString(p); err != nil {
			return nil, err
		}
		if e.size, p, err = parseI64(p); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after LIST response", errMalformed, len(p))
	}
	return entries, nil
}

// appendHeartbeat encodes a heartbeat payload (piggybacked on OpPing
// requests and their OK responses): sender name + u32 count +
// count×(node, u64 age-nanos). Ages, not timestamps, travel on the
// wire so peers never need synchronised clocks: the receiver rebases
// each age onto its own clock at decode time.
func appendHeartbeat(b []byte, sender string, entries []HeartbeatEntry) []byte {
	b = appendString(b, sender)
	b = binary.BigEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = appendString(b, e.Node)
		age := e.Age
		if age < 0 {
			age = 0
		}
		b = binary.BigEndian.AppendUint64(b, uint64(age))
	}
	return b
}

// parseHeartbeat decodes a heartbeat payload.
func parseHeartbeat(p []byte) (sender string, entries []HeartbeatEntry, err error) {
	if sender, p, err = parseString(p); err != nil {
		return "", nil, err
	}
	count, p, err := parseU32(p)
	if err != nil {
		return "", nil, err
	}
	// Every entry is at least 10 bytes (2-byte name length + 8-byte
	// age); reject counts the payload cannot possibly hold.
	if int64(count)*10 > int64(len(p)) {
		return "", nil, fmt.Errorf("%w: heartbeat count %d exceeds payload", errMalformed, count)
	}
	entries = make([]HeartbeatEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		var e HeartbeatEntry
		if e.Node, p, err = parseString(p); err != nil {
			return "", nil, err
		}
		var age int64
		if age, p, err = parseI64(p); err != nil {
			return "", nil, err
		}
		if age < 0 {
			return "", nil, fmt.Errorf("%w: negative heartbeat age", errMalformed)
		}
		e.Age = time.Duration(age)
		entries = append(entries, e)
	}
	if len(p) != 0 {
		return "", nil, fmt.Errorf("%w: %d trailing bytes after heartbeat", errMalformed, len(p))
	}
	return sender, entries, nil
}

// appendUsageResp encodes a USAGE response payload.
func appendUsageResp(b []byte, capacity, used int64) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(capacity))
	return binary.BigEndian.AppendUint64(b, uint64(used))
}

// parseUsageResp decodes a USAGE response payload.
func parseUsageResp(p []byte) (capacity, used int64, err error) {
	if capacity, p, err = parseI64(p); err != nil {
		return 0, 0, err
	}
	if used, p, err = parseI64(p); err != nil {
		return 0, 0, err
	}
	if len(p) != 0 {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes after USAGE response", errMalformed, len(p))
	}
	return capacity, used, nil
}
