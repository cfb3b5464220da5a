// Package journal implements a crash-safe, append-only write-ahead log
// used by the core write path (tier-0-acked write-back durability) and
// the heat-policy snapshot. It follows the trace binary-format
// conventions (internal/trace/format.go): a self-describing magic +
// length-prefixed JSON header, fixed-layout little-endian records, and
// replay-on-open — plus a per-record CRC so a torn tail left by kill -9
// is detected and truncated rather than replayed.
//
// On-disk layout:
//
//	| "MJNL1\n" | u32 headerLen | header JSON | record* |
//
// and each record is
//
//	| u8 kind | u64 seq | u64 off | u32 nameLen | u32 dataLen |
//	| name bytes | data bytes | u32 crc |
//
// with the CRC (Castagnoli) covering everything from kind through the
// last data byte. Integers are little-endian, matching the trace
// format. Record kinds are owned by the caller; the journal only
// enforces framing, ordering (seq is assigned monotonically by Append)
// and integrity.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Magic identifies a journal file; the trailing newline keeps
// accidental text-mode corruption detectable, as in the trace format.
const Magic = "MJNL1\n"

// Version is written into the header and checked on open.
const Version = 1

// Framing limits. Records above these bounds are rejected on append
// and treated as corruption on replay — the same decode-side defense
// the peernet frame reader uses.
const (
	MaxName = 64 << 10 // 64 KiB file names
	MaxData = 64 << 20 // 64 MiB payload per record
)

// maxScratch is the largest encode buffer Append keeps between calls;
// one outsized record must not pin its size for the journal's life.
const maxScratch = 4 << 20

// recPrefix is the fixed-size portion of a record before the variable
// name/data bytes: kind u8 + seq u64 + off u64 + nameLen u32 + dataLen u32.
const recPrefix = 1 + 8 + 8 + 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by Append/Sync/Compact after Close.
var ErrClosed = errors.New("journal: closed")

// Record is one journal entry. Kind and the use of Off/Name/Data are
// defined by the caller; Seq is assigned by Append and reported on
// replay.
type Record struct {
	Kind byte
	Seq  uint64
	Off  uint64
	Name string
	Data []byte
}

// header is the JSON blob after the magic.
type header struct {
	Version int               `json:"version"`
	Meta    map[string]string `json:"meta,omitempty"`
}

// Stats reports a journal's lifetime counters since Open.
type Stats struct {
	// Replayed is the number of intact records recovered on open;
	// TruncatedBytes the length of the torn tail discarded (0 on a
	// clean open).
	Replayed       int
	TruncatedBytes int64
	// Appends / AppendedBytes count records written since open.
	Appends       int64
	AppendedBytes int64
	// Compactions counts Compact calls; Size is the current file size.
	Compactions int64
	Size        int64
}

// Journal is an append-only log over a single file. Append is
// mutex-guarded and flushes to the OS file before returning, so an
// acknowledged append survives the death of this process (kill -9).
// With Sync enabled every append also fsyncs, extending durability to
// machine crashes at the cost of one disk flush per record.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	seq    uint64
	size   int64
	sync   bool
	closed bool
	// scratch is the encode buffer Append reuses under mu, so a warm
	// append allocates nothing the size of its payload.
	scratch []byte

	replayed       int
	truncatedBytes int64
	appends        int64
	appendedBytes  int64
	compactions    int64
}

// Options configure Open.
type Options struct {
	// Meta is stored in the header of a newly created journal
	// (informational; existing journals keep their header).
	Meta map[string]string
	// Sync fsyncs after every append (and after compaction). Without
	// it appends are durable against process death but not power loss.
	Sync bool
}

// Open opens (creating if absent) the journal at path, replays every
// intact record through fn in append order, truncates any torn tail,
// and leaves the journal positioned for appends. A nil fn discards the
// replayed records. If fn returns an error, Open stops and returns it
// with the file closed.
func Open(path string, opts Options, fn func(Record) error) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path, sync: opts.Sync}
	if err := j.load(opts, fn); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load validates or writes the header, replays records and truncates
// the torn tail (if any).
func (j *Journal) load(opts Options, fn func(Record) error) error {
	info, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if info.Size() == 0 {
		return j.writeHeader(opts.Meta)
	}

	r := &countingReader{r: j.f}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != Magic {
		return fmt.Errorf("journal: %s is not a journal (bad magic)", j.path)
	}
	var hlenBuf [4]byte
	if _, err := io.ReadFull(r, hlenBuf[:]); err != nil {
		return fmt.Errorf("journal: %s: truncated header length", j.path)
	}
	hlen := binary.LittleEndian.Uint32(hlenBuf[:])
	if hlen > 1<<20 {
		return fmt.Errorf("journal: %s: implausible header length %d", j.path, hlen)
	}
	hbuf := make([]byte, hlen)
	if _, err := io.ReadFull(r, hbuf); err != nil {
		return fmt.Errorf("journal: %s: truncated header", j.path)
	}
	var h header
	if err := json.Unmarshal(hbuf, &h); err != nil {
		return fmt.Errorf("journal: %s: header: %w", j.path, err)
	}
	if h.Version != Version {
		return fmt.Errorf("journal: %s: version %d, want %d", j.path, h.Version, Version)
	}

	// Replay. Any framing violation, short read, or CRC mismatch marks
	// the start of a torn tail: everything before it is intact (appends
	// are sequential), everything from it on is discarded.
	good := r.n
	for {
		rec, ok, err := readRecord(r)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
		j.replayed++
		if fn != nil {
			if err := fn(rec); err != nil {
				return err
			}
		}
		good = r.n
	}
	if torn := info.Size() - good; torn > 0 {
		j.truncatedBytes = torn
		if err := j.f.Truncate(good); err != nil {
			return fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := j.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.size = good
	return nil
}

// writeHeader initializes an empty file.
func (j *Journal) writeHeader(meta map[string]string) error {
	hbuf, err := json.Marshal(header{Version: Version, Meta: meta})
	if err != nil {
		return fmt.Errorf("journal: header: %w", err)
	}
	buf := make([]byte, 0, len(Magic)+4+len(hbuf))
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hbuf)))
	buf = append(buf, hbuf...)
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	j.size = int64(len(buf))
	return nil
}

// countingReader tracks how many bytes have been consumed, so replay
// knows the exact offset of the last intact record.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readRecord decodes one record. ok=false means a clean or torn end of
// log (EOF, short read, bounds violation, or CRC mismatch) — the
// caller truncates there. A non-nil error means the underlying reader
// itself failed.
func readRecord(r io.Reader) (Record, bool, error) {
	var prefix [recPrefix]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("journal: read: %w", err)
	}
	nameLen := binary.LittleEndian.Uint32(prefix[17:21])
	dataLen := binary.LittleEndian.Uint32(prefix[21:25])
	if nameLen > MaxName || dataLen > MaxData {
		return Record{}, false, nil
	}
	body := make([]byte, int(nameLen)+int(dataLen)+4)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Record{}, false, nil
		}
		return Record{}, false, fmt.Errorf("journal: read: %w", err)
	}
	crc := crc32.New(castagnoli)
	crc.Write(prefix[:])
	crc.Write(body[:len(body)-4])
	if crc.Sum32() != binary.LittleEndian.Uint32(body[len(body)-4:]) {
		return Record{}, false, nil
	}
	rec := Record{
		Kind: prefix[0],
		Seq:  binary.LittleEndian.Uint64(prefix[1:9]),
		Off:  binary.LittleEndian.Uint64(prefix[9:17]),
		Name: string(body[:nameLen]),
	}
	if dataLen > 0 {
		rec.Data = append([]byte(nil), body[nameLen:nameLen+dataLen]...)
	}
	return rec, true, nil
}

// encode appends the wire form of rec (with seq) to buf.
func encode(buf []byte, rec Record, seq uint64) []byte {
	start := len(buf)
	buf = append(buf, rec.Kind)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Off)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Name)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Data)))
	buf = append(buf, rec.Name...)
	buf = append(buf, rec.Data...)
	crc := crc32.Checksum(buf[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// Append writes one record and returns once the bytes have reached the
// OS file (surviving this process's death). Seq is assigned
// monotonically and returned — the record's Seq field is ignored on
// input — so callers can reference their own record in later ones (a
// flush record covering "everything up to seq N").
func (j *Journal) Append(rec Record) (uint64, error) {
	if len(rec.Name) > MaxName {
		return 0, fmt.Errorf("journal: name %d bytes exceeds %d", len(rec.Name), MaxName)
	}
	if len(rec.Data) > MaxData {
		return 0, fmt.Errorf("journal: record %d bytes exceeds %d", len(rec.Data), MaxData)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, ErrClosed
	}
	j.seq++
	buf := encode(j.scratch[:0], rec, j.seq)
	if j.scratch = buf; cap(buf) > maxScratch {
		j.scratch = nil
	}
	if _, err := j.f.Write(buf); err != nil {
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return 0, fmt.Errorf("journal: sync: %w", err)
		}
	}
	j.size += int64(len(buf))
	j.appends++
	j.appendedBytes += int64(len(buf))
	return j.seq, nil
}

// Sync forces an fsync regardless of the Sync option — callers use it
// at durability boundaries (checkpoint complete) without paying a
// per-record fsync.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Compact atomically rewrites the journal to contain exactly the live
// records, in order. On-disk seqs are renumbered from 1 but the
// in-memory counter keeps its high-water mark, so records appended
// after a compaction never reuse a seq handed out before it. The
// rewrite goes through a temp file + rename, so a crash mid-compaction
// leaves either the old or the new journal, never a hybrid.
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	hbuf, err := json.Marshal(header{Version: Version})
	if err != nil {
		return fmt.Errorf("journal: header: %w", err)
	}
	buf := make([]byte, 0, len(Magic)+4+len(hbuf))
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hbuf)))
	buf = append(buf, hbuf...)
	seq := uint64(0)
	for _, rec := range live {
		seq++
		buf = encode(buf, rec, seq)
	}
	tmp := j.path + ".compact"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compact: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	j.f.Close()
	j.f = f
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
	}
	if seq > j.seq {
		j.seq = seq
	}
	j.size = int64(len(buf))
	j.compactions++
	return nil
}

// Stats returns the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Replayed:       j.replayed,
		TruncatedBytes: j.truncatedBytes,
		Appends:        j.appends,
		AppendedBytes:  j.appendedBytes,
		Compactions:    j.compactions,
		Size:           j.size,
	}
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close flushes and closes the file. Further appends fail with
// ErrClosed. Safe to call twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return fmt.Errorf("journal: sync: %w", err)
	}
	return j.f.Close()
}
