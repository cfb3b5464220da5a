//go:build !linux

package core

import "monarch/internal/storage"

// dropPageCache reports false: evicting a file from the page cache
// (posix_fadvise, mincore) is only wired up on linux.
func dropPageCache(o *storage.OSFS, names []string) (bool, error) { return false, nil }
