//go:build unix

package storage

import (
	"context"
	"errors"
	"fmt"
	"syscall"
)

// ReadView implements ViewReader: the view is a window of a read-only
// MAP_SHARED mapping of the whole file, made by the first view of the
// name and shared by every later one through the table entry. Nothing
// is copied and nothing allocated; the mapping goes when the table has
// dropped the entry and the last view is released, so a view outlives
// the file's Remove or replacement with its bytes intact (the inode
// rule, see OSFS).
//
// A file that cannot be mapped (its size does not fit an int, or the
// kernel refuses — ENOMEM at the process's map limit, a file system
// without mmap) refuses the read with errors.ErrUnsupported, and so does
// every later view of the entry, without a syscall or an allocation:
// core asks each warm ReadAt for a view before it falls back.
func (o *OSFS) ReadView(ctx context.Context, name string, off, n int64) (View, error) {
	if err := ctxErr(ctx); err != nil {
		return View{}, err
	}
	if n < 0 {
		return View{}, fmt.Errorf("%s: read %q: negative length %d", o.name, name, n)
	}
	if off < 0 {
		return View{}, fmt.Errorf("%s: read %q: negative offset %d", o.name, name, off)
	}
	c, err := o.fd(name, false)
	if err != nil {
		return View{}, err
	}
	data, err := c.mapped(o.name, name)
	if err != nil {
		c.Release()
		return View{}, err
	}
	rem := int64(len(data)) - off
	if rem <= 0 { // at or past EOF, or an empty file: nothing to hold
		c.Release()
		return View{}, nil
	}
	end := off + min(n, rem)
	return View{Data: data[off:end:end], R: c}, nil
}

// mapped returns the whole-file mapping, building it on first use, of
// the size the entry knows or else fstat finds. An empty file maps to
// nil: there is nothing to lend, and mmap rejects a zero length. A
// refusal, named after the backend and file, is kept and returned again
// by later calls.
func (c *cachedFD) mapped(backend, name string) ([]byte, error) {
	if p := c.data.Load(); p != nil {
		return *p, nil
	}
	if p := c.refused.Load(); p != nil {
		return nil, *p
	}
	size := c.size
	if size < 0 {
		fi, err := c.f.Stat()
		if err != nil {
			return nil, err
		}
		size = fi.Size()
	}
	if size == 0 {
		return nil, nil
	}
	var data []byte
	var err error
	if int64(int(size)) != size {
		err = fmt.Errorf("%d bytes exceed the address space", size)
	} else {
		data, err = syscall.Mmap(int(c.f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	}
	if err != nil {
		err = fmt.Errorf("%s: view %q: mmap: %v: %w", backend, name, err, errors.ErrUnsupported)
		c.refused.Store(&err)
		return nil, err
	}
	if !c.data.CompareAndSwap(nil, &data) {
		// Lost the race to map: one mapping per entry, drop ours.
		_ = syscall.Munmap(data) // fails only on a slice Mmap did not return
		return *c.data.Load(), nil
	}
	return data, nil
}

// unmap runs once, when the last reference is released.
func (c *cachedFD) unmap() {
	if p := c.data.Load(); p != nil {
		_ = syscall.Munmap(*p) // fails only on a slice Mmap did not return
	}
}
