//go:build linux

package core

import (
	"os"
	"path/filepath"
	"syscall"
	"unsafe"

	"monarch/internal/storage"
)

// dropPageCache evicts the files names of o from the page cache, so the
// next read of each pages it in from the device. The mappings go first
// (CloseIdle: the kernel keeps a page a mapping holds), then each file
// is synced (a dirty page stays) and advised POSIX_FADV_DONTNEED. It
// reports false where the kernel kept a page of the first file anyway —
// tmpfs, whose page cache is the file.
func dropPageCache(o *storage.OSFS, names []string) (bool, error) {
	o.CloseIdle()
	for _, name := range names {
		f, err := os.Open(filepath.Join(o.Root(), name))
		if err != nil {
			return false, err
		}
		err = f.Sync()
		if err == nil {
			const fadvDontNeed = 4
			if _, _, e := syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, 0, fadvDontNeed, 0, 0); e != 0 {
				err = e
			}
		}
		f.Close()
		if err != nil {
			return false, err
		}
	}
	return evicted(filepath.Join(o.Root(), names[0]))
}

// evicted reports whether no page of path is in the page cache (mincore
// over a fresh mapping of it).
func evicted(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false, err
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(fi.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return false, err
	}
	defer syscall.Munmap(data)
	vec := make([]byte, (len(data)+os.Getpagesize()-1)/os.Getpagesize())
	if _, _, e := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&data[0])), uintptr(len(data)), uintptr(unsafe.Pointer(&vec[0]))); e != 0 {
		return false, e
	}
	for _, v := range vec {
		if v&1 != 0 {
			return false, nil
		}
	}
	return true, nil
}
