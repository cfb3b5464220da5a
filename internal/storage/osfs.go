package storage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// TempPrefix starts the base name of every scratch file the stack
// writes beside data: OSFS's rename-into-place temp files and core's
// recovery-probe file. OSFS.List leaves such files out.
const TempPrefix = ".monarch-"

// maxCachedFDs bounds the per-backend table of open files — and with
// it the mappings the table keeps alive: a file lends views out of at
// most one mapping per table entry. Eviction is arbitrary (map order);
// a DL working set cycles through files fast enough that any warm
// entry helps and none is precious.
const maxCachedFDs = 64

// cachedFD is one reference-counted open inode: its descriptor and,
// once a view has been asked of it, a read-only mapping of its bytes.
// The table holds one reference, each in-flight read another, and each
// lent View one more until its Release — so invalidation (WriteFile,
// Allocate, Remove: each replaces or unlinks the inode) only drops the
// table's reference, and the descriptor is closed and the mapping
// unmapped when the last holder lets go.
type cachedFD struct {
	f    *os.File
	refs atomic.Int32
	// data is the whole-file mapping, built by the first view (see
	// mapped) and never replaced: OSFS never resizes an inode in place,
	// so its length is the file's size for as long as anyone holds it.
	data atomic.Pointer[[]byte]
	// refused is the error of a mapping the kernel would not make, kept
	// so the entry's later views are refused without a syscall.
	refused atomic.Pointer[error]
}

// Release implements Releaser: a lent View holds its mapping through a
// reference on the entry.
func (c *cachedFD) Release() {
	if c.refs.Add(-1) == 0 {
		c.unmap()
		c.f.Close()
	}
}

// FileWindow is what a View's Releaser also implements when Data is a
// window of an open file at the offset the view was asked for: until
// Release a sender may hand the kernel that descriptor (sendfile(2))
// in place of Data — with an explicit offset, never the file position:
// the descriptor is shared by every reader of the name.
type FileWindow interface{ File() *os.File }

// File implements FileWindow.
func (c *cachedFD) File() *os.File { return c.f }

// OSFS is a Backend rooted at a real directory. It is what a production
// deployment would point at an XFS mount on the compute node's SSD and
// at the dataset directory on the PFS.
//
// Reads go through a bounded table of open files: the seed's
// open-read-close per ReadAt cost three syscalls per operation, which
// dominated tier-0 hits. On unix the same entries lend views
// (ViewReader) as windows of a read-only shared mapping, so a view
// read costs a table lookup and no copy.
//
// The inode rule keeps both safe. OSFS never shrinks, truncates or
// rewrites an inode a reader may hold: WriteFile and Allocate build a
// fresh inode and rename it over the name, Remove unlinks, and each
// then drops the name's table entry. WriteAt alone mutates in place,
// within the size Allocate fixed. A descriptor or view that outlives
// its name therefore keeps the old inode's bytes (snapshot semantics,
// like MemFS) and no path inside OSFS can shrink a file under a live
// mapping. The directory belongs to OSFS: a truncate from outside is
// outside the contract, as it already is for quota accounting.
//
// The temp-name rule: a regular file whose base name starts with
// TempPrefix is scratch — the temp file a WriteFile or Allocate renames
// into place, a recovery probe's file — and List does not report it, so
// one a SIGKILL left behind is neither a dataset file nor quota in use.
// Writing or removing such a name through the backend charges and frees
// nothing either, so a probe that overwrites and removes a stale probe
// file leaves Used() where it was. Nothing unlinks such a file on open:
// another process's OSFS may be writing this directory (monarch-serve's
// plain mode serves one), and its live temp file is not stale. Dataset
// files cannot use the prefix.
type OSFS struct {
	name     string
	root     string
	capacity int64

	mu   sync.Mutex
	used int64

	fdMu sync.Mutex
	fds  map[string]*cachedFD
	// fdGen counts invalidations. An open that straddles one may hold
	// the replaced inode, so it serves its own read but is not cached.
	fdGen uint64
}

// NewOSFS creates a backend rooted at dir, which must exist. The quota
// (capacity 0 = unlimited) is enforced against bytes written through
// this backend plus whatever List finds at construction time.
func NewOSFS(name, dir string, capacity int64) (*OSFS, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("osfs %s: %w", name, err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("osfs %s: %s is not a directory", name, dir)
	}
	o := &OSFS{name: name, root: dir, capacity: capacity, fds: make(map[string]*cachedFD)}
	infos, err := o.List(context.Background())
	if err != nil {
		return nil, err
	}
	for _, fi := range infos {
		o.used += fi.Size
	}
	return o, nil
}

// Name implements Backend.
func (o *OSFS) Name() string { return o.name }

// Root returns the directory this backend is rooted at.
func (o *OSFS) Root() string { return o.root }

// Capacity implements Backend.
func (o *OSFS) Capacity() int64 { return o.capacity }

// Used implements Backend.
func (o *OSFS) Used() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.used
}

func (o *OSFS) path(name string) (string, error) {
	if err := ValidateName(name); err != nil {
		return "", err
	}
	return filepath.Join(o.root, filepath.FromSlash(name)), nil
}

// scratch reports whether name falls under the temp-name rule.
func scratch(name string) bool {
	return strings.HasPrefix(name[strings.LastIndexByte(name, '/')+1:], TempPrefix)
}

// List implements Backend by walking the root recursively, leaving out
// scratch files (the temp-name rule).
func (o *OSFS) List(ctx context.Context) ([]FileInfo, error) {
	var infos []FileInfo
	err := filepath.WalkDir(o.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if cerr := ctxErr(ctx); cerr != nil {
			return cerr
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), TempPrefix) {
			return nil // directories are walked into; scratch is not data
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(o.root, path)
		if err != nil {
			return err
		}
		infos = append(infos, FileInfo{Name: filepath.ToSlash(rel), Size: fi.Size()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("osfs %s: list: %w", o.name, err)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos, nil
}

// Stat implements Backend.
func (o *OSFS) Stat(ctx context.Context, name string) (FileInfo, error) {
	if err := ctxErr(ctx); err != nil {
		return FileInfo{}, err
	}
	path, err := o.path(name)
	if err != nil {
		return FileInfo{}, err
	}
	fi, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return FileInfo{}, fmt.Errorf("%s: stat %q: %w", o.name, name, ErrNotExist)
	}
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Name: name, Size: fi.Size()}, nil
}

// fd returns a referenced table entry for name, opening the file on a
// miss. The caller must Release it after use. A hit skips validating
// the name and building its path: this exact name passed both when the
// entry was inserted.
func (o *OSFS) fd(name string) (*cachedFD, error) {
	o.fdMu.Lock()
	if c, ok := o.fds[name]; ok {
		c.refs.Add(1)
		o.fdMu.Unlock()
		return c, nil
	}
	gen := o.fdGen
	o.fdMu.Unlock()
	path, err := o.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%s: read %q: %w", o.name, name, ErrNotExist)
	}
	if err != nil {
		return nil, err
	}
	c := &cachedFD{f: f}
	c.refs.Store(1) // the caller's
	o.fdMu.Lock()
	if old, ok := o.fds[name]; ok {
		// Lost an open race: keep the incumbent, close ours.
		old.refs.Add(1)
		o.fdMu.Unlock()
		c.Release()
		return old, nil
	}
	if o.fdGen != gen {
		// A name was invalidated while this open was in flight — maybe
		// this one, maybe after the open: c may be the replaced inode.
		// Good for this read (it raced the writer), not for the table.
		o.fdMu.Unlock()
		return c, nil
	}
	if len(o.fds) >= maxCachedFDs {
		for k, victim := range o.fds {
			delete(o.fds, k)
			defer victim.Release()
			break
		}
	}
	c.refs.Add(1) // the table's
	o.fds[name] = c
	o.fdMu.Unlock()
	return c, nil
}

// invalidate drops the table entry for name, if any, after the name's
// inode was replaced or unlinked; in-flight reads and held views finish
// against the old inode.
func (o *OSFS) invalidate(name string) {
	o.fdMu.Lock()
	o.fdGen++
	c, ok := o.fds[name]
	if ok {
		delete(o.fds, name)
	}
	o.fdMu.Unlock()
	if ok {
		c.Release()
	}
}

// CloseIdle empties the table: every descriptor no read is using is
// closed and every mapping no view holds is unmapped (the rest go when
// their last holder releases). Long-lived daemons can call it when a
// backend goes cold; tests use it to release temp-dir descriptors.
func (o *OSFS) CloseIdle() {
	o.fdMu.Lock()
	fds := o.fds
	o.fds = make(map[string]*cachedFD)
	o.fdMu.Unlock()
	for _, c := range fds {
		c.Release()
	}
}

// ReadAt implements Backend.
func (o *OSFS) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	c, err := o.fd(name)
	if err != nil {
		return 0, err
	}
	n, err := c.f.ReadAt(p, off)
	c.Release()
	if err == io.EOF {
		err = nil
	}
	if err != nil {
		// A failing descriptor (e.g. the device went away) must not be
		// served to the next read.
		o.invalidate(name)
	}
	return n, err
}

// ReadFile implements Backend.
func (o *OSFS) ReadFile(ctx context.Context, name string) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	path, err := o.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%s: read %q: %w", o.name, name, ErrNotExist)
	}
	return data, err
}

// WriteFile implements Backend. The write is atomic: data lands in a
// temp file first and is renamed into place, so concurrent readers
// never observe a torn file.
func (o *OSFS) WriteFile(ctx context.Context, name string, data []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	return o.replace(name, "write", int64(len(data)), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// Allocate implements RangeWriter: it reserves quota for name at size
// bytes and creates it as a sparse file of that length, ready for
// concurrent WriteAt calls. The file is a fresh inode renamed into
// place at its final size — never a resize of whatever the name held,
// which a reader may still have open or mapped. The fills that follow
// are in place: chunked placement relies on readers seeing written
// ranges mid-copy, and MONARCH only reads ranges it has already
// written.
func (o *OSFS) Allocate(ctx context.Context, name string, size int64) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("%s: allocate %q: negative size %d", o.name, name, size)
	}
	return o.replace(name, "allocate", size, func(f *os.File) error { return f.Truncate(size) })
}

// replace settles quota for name at size bytes, then swaps in a fresh
// inode (see swapIn). verb names the operation in the ErrNoSpace
// message.
func (o *OSFS) replace(name, verb string, size int64, fill func(*os.File) error) error {
	path, err := o.path(name)
	if err != nil {
		return err
	}

	o.mu.Lock()
	var old int64
	if fi, err := os.Stat(path); err == nil {
		old = fi.Size()
	}
	if scratch(name) {
		old, size = 0, 0 // never quota in use, whoever wrote what it replaces
	}
	newUsed := o.used - old + size
	if o.capacity > 0 && newUsed > o.capacity {
		free := o.capacity - o.used
		o.mu.Unlock()
		return fmt.Errorf("%s: %s %q (%d bytes, %d free): %w",
			o.name, verb, name, size, free, ErrNoSpace)
	}
	o.used = newUsed
	o.mu.Unlock()

	if err := swapIn(path, fill); err != nil {
		o.mu.Lock()
		o.used = o.used - size + old
		o.mu.Unlock()
		return err
	}
	// The rename swapped the inode: a cached entry would keep serving
	// the replaced content.
	o.invalidate(name)
	return nil
}

// swapIn has fill write a temp file beside path and renames it over
// path; on any failure the temp file is gone and path untouched.
func swapIn(path string, fill func(*os.File) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), TempPrefix+"*")
	if err != nil {
		return err
	}
	err = fill(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// WriteAt implements RangeWriter. The file must have been Allocated and
// the range must stay within the allocated size.
func (o *OSFS) WriteAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("%s: write %q: negative offset %d", o.name, name, off)
	}
	path, err := o.path(name)
	if err != nil {
		return 0, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("%s: write %q: %w", o.name, name, ErrNotExist)
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if off+int64(len(p)) > fi.Size() {
		return 0, fmt.Errorf("%s: write %q: range [%d,%d) past allocated size %d",
			o.name, name, off, off+int64(len(p)), fi.Size())
	}
	return f.WriteAt(p, off)
}

// Remove implements Backend.
func (o *OSFS) Remove(ctx context.Context, name string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	path, err := o.path(name)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%s: remove %q: %w", o.name, name, ErrNotExist)
	}
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil {
		return err
	}
	o.invalidate(name)
	if !scratch(name) {
		o.mu.Lock()
		o.used -= fi.Size()
		o.mu.Unlock()
	}
	return nil
}
