package storage

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

func BenchmarkMemFSReadAt(b *testing.B) {
	ctx := context.Background()
	m := NewMemFS("m", 0)
	if err := m.WriteFile(ctx, "f", bytes.Repeat([]byte{1}, 1<<20)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReadAt(ctx, "f", buf, int64(i%4)*(256<<10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemFSWriteFile(b *testing.B) {
	ctx := context.Background()
	m := NewMemFS("m", 0)
	data := bytes.Repeat([]byte{2}, 256<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.WriteFile(ctx, "f", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountingOverhead(b *testing.B) {
	ctx := context.Background()
	c := NewCounting(NewMemFS("m", 0))
	if err := c.WriteFile(ctx, "f", bytes.Repeat([]byte{1}, 1<<20)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadAt(ctx, "f", buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOSFSReadAt(b *testing.B) {
	ctx := context.Background()
	o, err := NewOSFS("o", b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := o.WriteFile(ctx, "f", bytes.Repeat([]byte{1}, 1<<20)); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 256<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.ReadAt(ctx, "f", buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOSFSWriteAt is a checkpoint's chunk writes into an
// allocated 1 MiB file, warm: the file's descriptor is already open.
func BenchmarkOSFSWriteAt(b *testing.B) {
	ctx := context.Background()
	const size = 1 << 20
	for _, block := range []int{64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKB", block>>10), func(b *testing.B) {
			o, err := NewOSFS("o", b.TempDir(), 0)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(o.CloseIdle)
			if err := o.Allocate(ctx, "ckpt", size); err != nil {
				b.Fatal(err)
			}
			p := bytes.Repeat([]byte{3}, block)
			if _, err := o.WriteAt(ctx, "ckpt", p, 0); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(block))
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := o.WriteAt(ctx, "ckpt", p, int64(i%(size/block)*block)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkValidateName(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ValidateName("imagenet-100g.tfrecord-00017-of-01600"); err != nil {
			b.Fatal(err)
		}
	}
}
