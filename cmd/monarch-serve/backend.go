package main

import (
	"context"
	"errors"
	"fmt"

	"monarch"

	"monarch/internal/storage"
)

// monarchBackend adapts a middleware instance to the storage.Backend
// surface the peernet server speaks, so remote reads flow through the
// full MONARCH read path — heating files, triggering placements and
// evictions, moving per-job counters — instead of hitting the cache
// directory raw. With writable set (-write), remote WRITE/REMOVE flow
// through the write path the same way: a WRITE is Create+WriteAt on
// the managed namespace (acked per the configured durability), a
// REMOVE tears the file down everywhere. Dataset files remain
// read-only in every mode.
type monarchBackend struct {
	m        *monarch.Monarch
	tier0    monarch.Backend
	writable bool
}

func (b *monarchBackend) Name() string    { return "tenant" }
func (b *monarchBackend) Capacity() int64 { return b.tier0.Capacity() }
func (b *monarchBackend) Used() int64     { return b.tier0.Used() }
func (b *monarchBackend) List(ctx context.Context) ([]storage.FileInfo, error) {
	return b.m.Files(), nil
}
func (b *monarchBackend) Stat(ctx context.Context, name string) (storage.FileInfo, error) {
	return b.m.Stat(name)
}
func (b *monarchBackend) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	return b.m.ReadAt(ctx, name, p, off)
}
func (b *monarchBackend) ReadFile(ctx context.Context, name string) ([]byte, error) {
	return b.m.ReadFull(ctx, name)
}
func (b *monarchBackend) WriteFile(ctx context.Context, name string, data []byte) error {
	if !b.writable {
		return storage.ErrReadOnly
	}
	// Whole-file PUT semantics, like every other backend: a WRITE of an
	// existing writable file replaces it. Dataset files fail the inner
	// Remove with ErrNotWritable, surfaced as read-only on the wire.
	err := b.m.Create(ctx, name, int64(len(data)))
	if errors.Is(err, storage.ErrExist) {
		if rerr := b.m.Remove(ctx, name); rerr != nil {
			return writeErr(rerr)
		}
		err = b.m.Create(ctx, name, int64(len(data)))
	}
	if err != nil {
		return writeErr(err)
	}
	if len(data) == 0 {
		return nil
	}
	_, err = b.m.WriteAt(ctx, name, data, 0)
	return writeErr(err)
}
func (b *monarchBackend) Remove(ctx context.Context, name string) error {
	if !b.writable {
		return storage.ErrReadOnly
	}
	err := b.m.Remove(ctx, name)
	if errors.Is(err, monarch.ErrNotWritable) {
		// Distinguish "no such file" (ErrNotExist on the wire) from
		// "that's the dataset" (read-only on the wire).
		if _, serr := b.m.Stat(name); serr != nil {
			return fmt.Errorf("%w: %s", storage.ErrNotExist, name)
		}
	}
	return writeErr(err)
}

// writeErr maps the middleware's write sentinels onto the storage
// sentinels the wire protocol can carry: a dataset file is read-only
// from a peer's point of view, not an internal error.
func writeErr(err error) error {
	if errors.Is(err, monarch.ErrNotWritable) {
		return fmt.Errorf("%w: %v", storage.ErrReadOnly, err)
	}
	return err
}
