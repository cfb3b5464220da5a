//go:build !unix

package storage

import (
	"context"
	"errors"
)

// ReadView implements ViewReader by refusing: without mmap a real file
// system cannot lend stable bytes, and callers read the range through
// ReadAt into their own scratch instead.
func (o *OSFS) ReadView(ctx context.Context, name string, off, n int64) (View, error) {
	return View{}, errors.ErrUnsupported
}

func (c *cachedFD) unmap() {}
