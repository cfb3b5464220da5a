package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The one encoding: magic "MTRB1\n", a length-prefixed JSON header,
// then tagged records — tag 1 a fixed-size 40-byte event, tag 2 a file
// definition, tag 3 a length-prefixed JSON trailer. Definitions always
// precede the first event referencing them. Everything is
// little-endian. A header of any other version is refused on read: the
// record layout is the version's. For a greppable view of a capture,
// render it: monarch-inspect trace -events.
var binMagic = []byte("MTRB1\n")

const (
	tagEvent   = 1
	tagDefine  = 2
	tagTrailer = 3

	// maxBlob bounds a header, definition or trailer on read. The
	// recorder writes a few hundred bytes of each.
	maxBlob = 1 << 20
	// maxLevels is what Event.Tier, an int8, can name.
	maxLevels = 127
)

// encoder writes the encoding to a buffered sink.
type encoder struct {
	w   *bufio.Writer
	rec [41]byte // tag + 40-byte event (v2 layout)
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: bufio.NewWriterSize(w, 1<<16)}
}

// blob writes a length-prefixed payload.
func (e *encoder) blob(data []byte) error {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(data)))
	if _, err := e.w.Write(n[:]); err != nil {
		return err
	}
	_, err := e.w.Write(data)
	return err
}

func (e *encoder) header(h Header) error {
	data, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if _, err := e.w.Write(binMagic); err != nil {
		return err
	}
	return e.blob(data)
}

func (e *encoder) define(f File) error {
	buf := make([]byte, 12, 12+len(f.Name))
	binary.LittleEndian.PutUint32(buf[0:], f.ID)
	binary.LittleEndian.PutUint64(buf[4:], uint64(f.Size))
	if err := e.w.WriteByte(tagDefine); err != nil {
		return err
	}
	return e.blob(append(buf, f.Name...))
}

func (e *encoder) event(ev Event) error {
	b := e.rec[:]
	b[0] = tagEvent
	binary.LittleEndian.PutUint64(b[1:], uint64(ev.T))
	binary.LittleEndian.PutUint32(b[9:], ev.File)
	b[13] = byte(ev.Kind)
	b[14] = byte(ev.Class)
	b[15] = byte(ev.Tier)
	b[16] = ev.Lat
	binary.LittleEndian.PutUint64(b[17:], uint64(ev.Off))
	binary.LittleEndian.PutUint64(b[25:], uint64(ev.Len))
	binary.LittleEndian.PutUint64(b[33:], ev.Req)
	_, err := e.w.Write(b)
	return err
}

func (e *encoder) trailer(t Trailer) error {
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	if err := e.w.WriteByte(tagTrailer); err != nil {
		return err
	}
	return e.blob(data)
}

func (e *encoder) flush() error { return e.w.Flush() }

// --- reading ---

// Trace is a fully decoded capture.
type Trace struct {
	Header  Header
	Files   []File // dense, Files[i].ID == i+1
	Events  []Event
	Summary map[string]int64 // middleware counters from the trailer
	Stats   map[string]int64 // recorder accounting from the trailer
}

// Complete reports whether the trace ends with a trailer (a clean
// Close) — replays refuse incomplete captures because there is nothing
// to verify against.
func (t *Trace) Complete() bool { return t.Summary != nil }

// Name resolves a file ID ("" for 0 or unknown IDs).
func (t *Trace) Name(id uint32) string {
	if id == 0 || int(id) > len(t.Files) {
		return ""
	}
	return t.Files[id-1].Name
}

// Size resolves a file ID's recorded size (-1 when unknown).
func (t *Trace) Size(id uint32) int64 {
	if id == 0 || int(id) > len(t.Files) {
		return -1
	}
	return t.Files[id-1].Size
}

// ReadFile loads and decodes a trace.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return t, nil
}

// readBlob reads one length-prefixed payload. The length is the
// file's word: it is capped, and the buffer grows with the bytes that
// actually arrive, so a short file cannot make the reader allocate
// what it claims to hold.
func readBlob(br *bufio.Reader) ([]byte, error) {
	var n [4]byte
	if _, err := io.ReadFull(br, n[:]); err != nil {
		return nil, err
	}
	size := binary.LittleEndian.Uint32(n[:])
	if size > maxBlob {
		return nil, fmt.Errorf("%d-byte record exceeds the %d-byte bound", size, maxBlob)
	}
	buf, err := io.ReadAll(io.LimitReader(br, int64(size)))
	if err == nil && len(buf) < int(size) {
		err = io.ErrUnexpectedEOF
	}
	return buf, err
}

// Read decodes a trace from r. What it returns is well-formed: a
// header of this reader's version naming at most maxLevels levels,
// file IDs dense from 1, and no event naming a file not yet defined.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, _ := br.Peek(len(binMagic))
	if !bytes.Equal(head, binMagic) {
		if len(head) > 0 && head[0] == '{' {
			return nil, fmt.Errorf("not a binary trace: it looks like the retired JSON-lines encoding — capture again (every path is binary now); monarch-inspect trace -events renders a capture as text")
		}
		return nil, fmt.Errorf("not a monarch trace (no %q magic)", binMagic)
	}
	br.Discard(len(binMagic)) // just peeked: cannot fail
	t := &Trace{}
	hb, err := readBlob(br)
	if err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if err := json.Unmarshal(hb, &t.Header); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if t.Header.Version != Version {
		return nil, fmt.Errorf("unsupported trace version %d (this reader decodes version %d)", t.Header.Version, Version)
	}
	if n := len(t.Header.Levels); n > maxLevels {
		return nil, fmt.Errorf("header: %d levels (an event can name %d)", n, maxLevels)
	}
	var rec [40]byte
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagEvent:
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, fmt.Errorf("event record: %w", err)
			}
			ev := Event{
				T:     int64(binary.LittleEndian.Uint64(rec[0:])),
				File:  binary.LittleEndian.Uint32(rec[8:]),
				Kind:  Kind(rec[12]),
				Class: Class(rec[13]),
				Tier:  int8(rec[14]),
				Lat:   rec[15],
				Off:   int64(binary.LittleEndian.Uint64(rec[16:])),
				Len:   int64(binary.LittleEndian.Uint64(rec[24:])),
				Req:   binary.LittleEndian.Uint64(rec[32:]),
			}
			if int64(ev.File) > int64(len(t.Files)) {
				return nil, fmt.Errorf("event %d names file %d, %d defined so far", len(t.Events), ev.File, len(t.Files))
			}
			t.Events = append(t.Events, ev)
		case tagDefine:
			buf, err := readBlob(br)
			if err != nil {
				return nil, fmt.Errorf("file definition: %w", err)
			}
			if len(buf) < 12 {
				return nil, fmt.Errorf("file definition: short record (%d bytes)", len(buf))
			}
			f := File{
				ID:   binary.LittleEndian.Uint32(buf[0:]),
				Size: int64(binary.LittleEndian.Uint64(buf[4:])),
				Name: string(buf[12:]),
			}
			if f.ID != uint32(len(t.Files)+1) {
				return nil, fmt.Errorf("file definition %q out of order: id %d, want %d", f.Name, f.ID, len(t.Files)+1)
			}
			t.Files = append(t.Files, f)
		case tagTrailer:
			buf, err := readBlob(br)
			if err != nil {
				return nil, fmt.Errorf("trailer: %w", err)
			}
			var tr Trailer
			if err := json.Unmarshal(buf, &tr); err != nil {
				return nil, fmt.Errorf("trailer: %w", err)
			}
			t.Summary, t.Stats = tr.Summary, tr.Trace
		default:
			return nil, fmt.Errorf("unknown record tag %d", tag)
		}
	}
}
