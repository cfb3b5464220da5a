// Package storage defines the backend abstraction MONARCH tiers are
// built from, plus concrete in-memory and on-disk implementations and
// instrumentation wrappers.
//
// A Backend is the paper's "storage backend" (the thing a storage
// driver wraps): a flat namespace of files addressed by slash-separated
// relative names. All methods take a context so that simulated backends
// can charge virtual time to the calling simulation process; real
// backends ignore it except for cancellation.
package storage

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"monarch/internal/bufpool"
)

// Sentinel errors returned by backends. Wrap with %w so errors.Is works
// across instrumentation layers.
var (
	// ErrNotExist reports that the named file is absent.
	ErrNotExist = errors.New("storage: file does not exist")
	// ErrExist reports that the named file already exists.
	ErrExist = errors.New("storage: file already exists")
	// ErrNoSpace reports that a write would exceed the backend quota.
	ErrNoSpace = errors.New("storage: no space left on backend")
	// ErrReadOnly reports a mutation on a read-only backend.
	ErrReadOnly = errors.New("storage: backend is read-only")
	// ErrFault reports a memory fault under a view's bytes (View.Copy).
	ErrFault = errors.New("storage: fault under a mapped view")
)

// FileInfo describes one file in a backend namespace.
type FileInfo struct {
	Name string // slash-separated relative path
	Size int64  // bytes
}

// Backend is a flat file store. Implementations must be safe for
// concurrent use: MONARCH's placement thread pool writes while the
// framework reads.
type Backend interface {
	// Name identifies the backend in logs and stats ("ssd0", "lustre").
	Name() string
	// List returns every file, sorted by name.
	List(ctx context.Context) ([]FileInfo, error)
	// Stat returns metadata for one file.
	Stat(ctx context.Context, name string) (FileInfo, error)
	// ReadAt reads len(p) bytes at offset off; short reads at EOF return
	// the count read and io.EOF semantics are not used — n < len(p) with
	// nil error means the file ended.
	ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error)
	// ReadFile returns the whole content of name.
	ReadFile(ctx context.Context, name string) ([]byte, error)
	// WriteFile atomically creates or replaces name with data. Returns
	// ErrNoSpace if the quota would be exceeded.
	WriteFile(ctx context.Context, name string, data []byte) error
	// Remove deletes name, freeing its quota.
	Remove(ctx context.Context, name string) error
	// Capacity is the quota in bytes; 0 means unlimited.
	Capacity() int64
	// Used is the number of bytes currently stored.
	Used() int64
}

// RangeWriter is an optional Backend extension enabling chunked
// placement: a file is Allocated once at its final size (reserving
// quota and creating the name with unspecified contents), then filled
// by concurrent WriteAt calls. Readers may read any range that has
// already been written while other ranges are still in flight — this
// is what lets MONARCH serve partial hits mid-copy.
//
// Instrumentation wrappers (Faulty, Counting) forward these methods to
// the wrapped backend and return an error satisfying
// errors.Is(err, errors.ErrUnsupported) when it lacks them, so callers
// can fall back to whole-file WriteFile.
type RangeWriter interface {
	// Allocate reserves quota for name at size bytes and creates (or
	// replaces) it with unspecified contents. Returns ErrNoSpace when
	// the quota cannot accommodate the file.
	Allocate(ctx context.Context, name string, size int64) error
	// WriteAt writes len(p) bytes at offset off into a previously
	// Allocated file. Writes must stay within the allocated size; the
	// backend rejects writes past it so quota accounting stays exact.
	WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error)
}

// Releaser releases a borrowed resource. Implementations must be safe
// to call exactly once; Release after Release is a caller bug.
type Releaser interface {
	Release()
}

// View is a borrowed read-only window into a backend's bytes — the
// zero-copy result of ViewReader.ReadView. Data stays valid until
// Release is called and MUST NOT be written to or retained past
// Release; the backing store may be a shared in-memory buffer (MemFS,
// held under a per-file read lock), a read-only mapping of the file
// (OSFS; a store through Data faults) or, where a caller had to copy,
// pooled scratch (PooledView).
//
// A held view is a snapshot of the file it was taken from: replacing
// the name (WriteFile, Allocate) or removing it leaves Data's bytes
// exactly as they were, and only views taken afterwards see the new
// content. In-place range writes (RangeWriter.WriteAt) are the one
// exception — MemFS blocks them while a view is held, OSFS lets them
// show through — so callers do not hold views of files they are still
// filling.
type View struct {
	// Data is the requested range. Its length may be shorter than the
	// requested byte count when the file ends first (same short-read
	// semantics as Backend.ReadAt).
	Data []byte
	// R releases the view; nil means there is nothing to release.
	R Releaser
}

// Release returns the view's resources. Call it exactly once, after
// the last access to Data.
func (v View) Release() {
	if v.R != nil {
		v.R.Release()
	}
}

// Copy copies Data into p, as much as both hold, and returns the count.
// A fault under Data — a page the kernel cannot bring in behind a
// mapped view: a failing device, a file truncated from outside — is an
// error wrapping ErrFault, not a SIGBUS that ends the process: whoever
// copies a tier's view into its own buffer should copy it through here,
// so that the failure is the tier's, for its caller to recover from.
func (v View) Copy(p []byte) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("storage: copy from view: fault at %#x: %w", f.Addr(), ErrFault)
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	return copy(p, v.Data), nil
}

// ViewReader is an optional Backend extension: a zero-copy read fast
// path. ReadView returns a borrowed window of up to n bytes of name at
// off, skipping the copy into a caller buffer that ReadAt requires.
// MONARCH's read path uses it to serve fully-placed tier-0 hits
// copy-free; backends that cannot lend stable bytes simply don't
// implement it and callers fall through to ReadAt.
//
// Contract: the caller must Release the returned view exactly once,
// promptly — MemFS holds the file's read lock for the view's lifetime,
// so an unreleased view blocks writers to that file forever, and OSFS
// keeps a removed file's blocks allocated until its last view goes.
type ViewReader interface {
	// ReadView returns up to n bytes of name at offset off. off < 0 or
	// a missing name fail; off at-or-past EOF returns an empty (but
	// releasable) view, mirroring ReadAt's short-read semantics.
	//
	// An error satisfying errors.Is(err, errors.ErrUnsupported) refuses
	// this one read, not the backend: the bytes cannot be lent (a
	// wrapper over a backend without views, a platform without mmap, a
	// mapping the kernel would not grant) and the caller reads the
	// range through ReadAt instead. A refusal is not a failure.
	ReadView(ctx context.Context, name string, off, n int64) (View, error)
}

// pooledView releases a view's bufpool scratch buffer on Release. The
// releaser object itself is recycled through its own sync.Pool, so a
// buffered view costs zero allocations in steady state.
type pooledView struct{ buf []byte }

func (r *pooledView) Release() {
	bufpool.Put(r.buf)
	r.buf = nil
	pooledViews.Put(r)
}

var pooledViews = sync.Pool{New: func() any { return new(pooledView) }}

// PooledView wraps a bufpool buffer in a View lending its first used
// bytes; Release returns the buffer to bufpool. For callers (core's
// ReadView fall-through) that had to copy and still owe a View.
func PooledView(buf []byte, used int) View {
	r := pooledViews.Get().(*pooledView)
	r.buf = buf
	return View{Data: buf[:used], R: r}
}

// Pinger is an optional Backend extension: a cheap liveness check that
// does not mutate the backend. Recovery probes prefer it over the
// default one-byte write probe — a networked tier (the peer cache) is
// read-only from the prober's point of view, so a write probe would
// report it alive without ever touching the wire.
type Pinger interface {
	// Ping reports nil when the backend is able to serve requests.
	Ping(ctx context.Context) error
}

// Copier is an optional Backend extension: a whole-file copy fast path.
// MONARCH's placement handler prefers it when the destination tier
// supports it — simulated stores use it to move files without
// materialising contents; real backends may use it to stream instead of
// buffering whole files.
type Copier interface {
	// CopyFrom copies name (fully) from src into the receiver.
	CopyFrom(ctx context.Context, src Backend, name string) error
}

// Free returns the available quota of b, or a very large number when the
// backend is unlimited.
func Free(b Backend) int64 {
	if b.Capacity() <= 0 {
		return int64(1) << 62
	}
	return b.Capacity() - b.Used()
}

// ValidateName rejects names that escape the backend namespace. Backends
// call it at every entry point.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("storage: empty file name")
	}
	if name[0] == '/' {
		return fmt.Errorf("storage: absolute name %q", name)
	}
	// Reject path traversal; names are used as map keys and joined under
	// roots for osfs.
	for i := 0; i < len(name); i++ {
		if name[i] != '.' {
			continue
		}
		if (i == 0 || name[i-1] == '/') && i+1 < len(name) && name[i+1] == '.' &&
			(i+2 == len(name) || name[i+2] == '/') {
			return fmt.Errorf("storage: name %q contains parent traversal", name)
		}
	}
	return nil
}

// ReadRange is a helper implementing ReadAt semantics over an in-memory
// byte slice, shared by memfs and the simulated backends.
func ReadRange(data []byte, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	if off >= int64(len(data)) {
		return 0, nil
	}
	return copy(p, data[off:]), nil
}

// context cancellation helper shared by real backends.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
