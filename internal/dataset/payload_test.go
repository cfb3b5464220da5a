package dataset

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"monarch/internal/storage"
)

// serialPayload is the reference the lanes must reproduce: Payload as
// one xorshift64 sequence, a byte per step.
func serialPayload(id, length int) []byte {
	p := make([]byte, length)
	x := uint64(id)*0x9e3779b97f4a7c15 + 0x3c6ef372fe94f82a
	for i := range p {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
	return p
}

func TestFillMatchesSerialReference(t *testing.T) {
	const s, g = laneBytes, 8 * laneBytes
	check := func(id, length int) {
		t.Helper()
		got := make([]byte, length)
		fill(got, id)
		if want := serialPayload(id, length); !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("fill(id %d, length %d) differs from the serial reference first at byte %d", id, length, i)
		}
	}
	for _, length := range []int{0, 1, s - 1, s, s + 1, g - 1, g, g + 1, 3*g + 17} {
		for _, id := range []int{0, 1, -1, math.MaxInt, math.MinInt} {
			check(id, length)
		}
	}
	r := rand.New(rand.NewPCG(35, 1))
	for n := 0; n < 1000; n++ {
		id := int(r.Uint64())
		switch n {
		case 0:
			id = 0
		case 1:
			id = -1
		case 2:
			id = math.MaxInt
		}
		check(id, r.IntN(4*g))
	}
}

// benchRecordBytes is the benchmark's record size: 1 MiB shards of nine
// records each, 116 KiB of payload apiece.
const benchRecordBytes = 116 << 10

func BenchmarkPayload(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  func(id, length int) []byte
	}{{"lanes", Payload}, {"serial-reference", serialPayload}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(benchRecordBytes)
			id := 0
			for b.Loop() {
				c.gen(id, benchRecordBytes)
				id++
			}
		})
	}
}

// BenchmarkMaterializeBenchFull materialises the benchmark's full-size
// dataset (bench-full in TestMaterializeHashes) into MemFS.
func BenchmarkMaterializeBenchFull(b *testing.B) {
	ctx := context.Background()
	m, err := Plan(benchFull)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(m.TotalBytes())
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Materialize(ctx, storage.NewMemFS("m", 0), benchFull); err != nil {
			b.Fatal(err)
		}
	}
}
