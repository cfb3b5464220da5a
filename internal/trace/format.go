package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Two encodings share one logical layout: header, then interleaved
// file definitions and events (definitions always precede the first
// event referencing them), then a trailer.
//
// JSONL (default): one JSON object per line.
//
//	{"monarch_trace":2,"clock":"virtual",...}    header
//	{"file":{"id":1,"name":"shard-0","size":8}}  definition
//	{"t":12,"k":"read","f":1,"c":"pfs","tier":1,"lat":3,"off":0,"len":262144}
//	{"summary":{...},"trace":{...}}              trailer
//
// Binary (".bin" paths): magic "MTRB1\n", a length-prefixed JSON
// header, then tagged records — tag 1 a fixed-size 40-byte event, tag
// 2 a file definition, tag 3 a length-prefixed JSON trailer. Everything
// is little-endian. A header of any other version is refused on read:
// the record layout is the version's.
type encoder interface {
	header(h Header) error
	define(f File) error
	event(e Event) error
	trailer(t Trailer) error
	flush() error
}

// binMagic opens every binary trace.
var binMagic = []byte("MTRB1\n")

const (
	tagEvent   = 1
	tagDefine  = 2
	tagTrailer = 3
)

// --- JSONL ---

type jsonlEncoder struct {
	w   *bufio.Writer
	buf []byte
}

func newJSONLEncoder(w io.Writer) *jsonlEncoder {
	return &jsonlEncoder{w: bufio.NewWriterSize(w, 1<<16)}
}

func (e *jsonlEncoder) header(h Header) error {
	data, err := json.Marshal(h)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = e.w.Write(data)
	return err
}

func (e *jsonlEncoder) define(f File) error {
	data, err := json.Marshal(struct {
		File File `json:"file"`
	}{f})
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = e.w.Write(data)
	return err
}

// event hand-builds the line: the drainer calls it once per event, and
// reflection-based marshalling dominates the drain cost otherwise.
func (e *jsonlEncoder) event(ev Event) error {
	b := e.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, ev.T, 10)
	b = append(b, `,"k":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	if ev.File != 0 {
		b = append(b, `,"f":`...)
		b = strconv.AppendUint(b, uint64(ev.File), 10)
	}
	if c := ev.Class.String(); c != "" {
		b = append(b, `,"c":"`...)
		b = append(b, c...)
		b = append(b, '"')
	}
	if ev.Kind != KindEpoch {
		b = append(b, `,"tier":`...)
		b = strconv.AppendInt(b, int64(ev.Tier), 10)
		b = append(b, `,"lat":`...)
		b = strconv.AppendUint(b, uint64(ev.Lat), 10)
	}
	if ev.Off != 0 {
		b = append(b, `,"off":`...)
		b = strconv.AppendInt(b, ev.Off, 10)
	}
	if ev.Len != 0 {
		b = append(b, `,"len":`...)
		b = strconv.AppendInt(b, ev.Len, 10)
	}
	if ev.Req != 0 {
		b = append(b, `,"r":`...)
		b = strconv.AppendUint(b, ev.Req, 10)
	}
	b = append(b, '}', '\n')
	e.buf = b
	_, err := e.w.Write(b)
	return err
}

func (e *jsonlEncoder) trailer(t Trailer) error {
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = e.w.Write(data)
	return err
}

func (e *jsonlEncoder) flush() error { return e.w.Flush() }

// --- binary ---

type binEncoder struct {
	w   *bufio.Writer
	rec [41]byte // tag + 40-byte event (v2 layout)
}

func newBinEncoder(w io.Writer) *binEncoder {
	return &binEncoder{w: bufio.NewWriterSize(w, 1<<16)}
}

func (e *binEncoder) blob(tag byte, data []byte) error {
	if err := e.w.WriteByte(tag); err != nil {
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(data)))
	if _, err := e.w.Write(n[:]); err != nil {
		return err
	}
	_, err := e.w.Write(data)
	return err
}

func (e *binEncoder) header(h Header) error {
	if _, err := e.w.Write(binMagic); err != nil {
		return err
	}
	data, err := json.Marshal(h)
	if err != nil {
		return err
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(data)))
	if _, err := e.w.Write(n[:]); err != nil {
		return err
	}
	_, err = e.w.Write(data)
	return err
}

func (e *binEncoder) define(f File) error {
	buf := make([]byte, 0, 16+len(f.Name))
	var u4 [4]byte
	binary.LittleEndian.PutUint32(u4[:], f.ID)
	buf = append(buf, u4[:]...)
	var u8 [8]byte
	binary.LittleEndian.PutUint64(u8[:], uint64(f.Size))
	buf = append(buf, u8[:]...)
	buf = append(buf, f.Name...)
	return e.blob(tagDefine, buf)
}

func (e *binEncoder) event(ev Event) error {
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

func (e *binEncoder) trailer(t Trailer) error {
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return e.blob(tagTrailer, data)
}

func (e *binEncoder) flush() error { return e.w.Flush() }

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

// ReadFile loads and decodes a trace, auto-detecting the encoding.
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

// Read decodes a trace from r, auto-detecting the encoding by the
// binary magic.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(binMagic))
	if err == nil && bytes.Equal(head, binMagic) {
		return readBin(br)
	}
	return readJSONL(br)
}

// checkVersion refuses a header this reader was not written for,
// rather than mis-parse the records behind it.
func checkVersion(h Header) error {
	if h.Version != Version {
		return fmt.Errorf("unsupported trace version %d (this reader decodes version %d)", h.Version, Version)
	}
	return nil
}

func (t *Trace) addFile(f File) error {
	if f.ID != uint32(len(t.Files)+1) {
		return fmt.Errorf("file definition %q out of order: id %d, want %d", f.Name, f.ID, len(t.Files)+1)
	}
	t.Files = append(t.Files, f)
	return nil
}

func readBin(br *bufio.Reader) (*Trace, error) {
	if _, err := br.Discard(len(binMagic)); err != nil {
		return nil, err
	}
	readBlob := func() ([]byte, error) {
		var n [4]byte
		if _, err := io.ReadFull(br, n[:]); err != nil {
			return nil, err
		}
		buf := make([]byte, binary.LittleEndian.Uint32(n[:]))
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	t := &Trace{}
	hb, err := readBlob()
	if err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if err := json.Unmarshal(hb, &t.Header); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if err := checkVersion(t.Header); err != nil {
		return nil, err
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
			t.Events = append(t.Events, Event{
				T:     int64(binary.LittleEndian.Uint64(rec[0:])),
				File:  binary.LittleEndian.Uint32(rec[8:]),
				Kind:  Kind(rec[12]),
				Class: Class(rec[13]),
				Tier:  int8(rec[14]),
				Lat:   rec[15],
				Off:   int64(binary.LittleEndian.Uint64(rec[16:])),
				Len:   int64(binary.LittleEndian.Uint64(rec[24:])),
				Req:   binary.LittleEndian.Uint64(rec[32:]),
			})
		case tagDefine:
			buf, err := readBlob()
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
			if err := t.addFile(f); err != nil {
				return nil, err
			}
		case tagTrailer:
			buf, err := readBlob()
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

// jsonlLine is the union of every JSONL line shape; which pointers are
// set discriminates header / definition / event / trailer.
type jsonlLine struct {
	Version *int             `json:"monarch_trace"`
	File    *File            `json:"file"`
	Summary map[string]int64 `json:"summary"`
	Stats   map[string]int64 `json:"trace"`

	T    int64  `json:"t"`
	K    string `json:"k"`
	F    uint32 `json:"f"`
	C    string `json:"c"`
	Tier *int   `json:"tier"`
	Lat  uint8  `json:"lat"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	R    uint64 `json:"r"`
}

func readJSONL(br *bufio.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		switch {
		case l.Version != nil:
			if err := json.Unmarshal(raw, &t.Header); err != nil {
				return nil, fmt.Errorf("line %d: header: %w", lineNo, err)
			}
			if err := checkVersion(t.Header); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		case l.File != nil:
			if err := t.addFile(*l.File); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
		case l.Summary != nil || l.Stats != nil:
			t.Summary, t.Stats = l.Summary, l.Stats
		case l.K != "":
			k, ok := kindFromString(l.K)
			if !ok {
				return nil, fmt.Errorf("line %d: unknown event kind %q", lineNo, l.K)
			}
			c, ok := classFromString(l.C)
			if !ok {
				return nil, fmt.Errorf("line %d: unknown event class %q", lineNo, l.C)
			}
			tier := -1
			if l.Tier != nil {
				tier = *l.Tier
			}
			t.Events = append(t.Events, Event{
				T: l.T, File: l.F, Kind: k, Class: c,
				Tier: int8(tier), Lat: l.Lat, Off: l.Off, Len: l.Len, Req: l.R,
			})
		default:
			return nil, fmt.Errorf("line %d: unrecognised line", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.Header.Version == 0 {
		return nil, fmt.Errorf("not a monarch trace (no header)")
	}
	return t, nil
}
