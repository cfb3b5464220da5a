package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"monarch/internal/pool"
	"monarch/internal/storage"
)

// FuzzReadAt drives the middleware with arbitrary (offset, length,
// chunk-size) triples against a plain MemFS oracle holding the same
// content. Whatever tier serves the read — source, mid-copy chunks, or
// the placed copy — the result must be byte-identical to the oracle's
// pread, in both whole-file (chunkSize 0) and chunked mode. So must a run
// of adjacent reads of the file's unplaceable twin, the second of which
// reads ahead (whole-file mode) or does not (chunked).
func FuzzReadAt(f *testing.F) {
	f.Add(uint16(0), int64(0), uint16(0), uint16(0))
	f.Add(uint16(1), int64(0), uint16(1), uint16(1))
	f.Add(uint16(1000), int64(0), uint16(1000), uint16(256))  // full read, 4 chunks
	f.Add(uint16(1000), int64(999), uint16(10), uint16(256))  // clipped at EOF
	f.Add(uint16(1000), int64(1000), uint16(10), uint16(256)) // at EOF
	f.Add(uint16(1000), int64(2000), uint16(10), uint16(256)) // past EOF
	f.Add(uint16(1000), int64(-3), uint16(10), uint16(256))   // negative offset
	f.Add(uint16(1000), int64(200), uint16(112), uint16(256)) // chunk straddle
	f.Add(uint16(513), int64(512), uint16(1), uint16(512))    // short tail chunk
	f.Add(uint16(4096), int64(100), uint16(4000), uint16(1))  // 1-byte chunks
	f.Add(uint16(300), int64(0), uint16(300), uint16(7))      // odd chunk size
	f.Fuzz(func(t *testing.T, fileSize uint16, off int64, readLen, chunkSize uint16) {
		ctx := context.Background()
		content := chunkContent(0, int(fileSize))
		oracle := storage.NewMemFS("oracle", 0)
		pfs := storage.NewMemFS("lustre", 0)
		for _, b := range []*storage.MemFS{oracle, pfs} {
			if err := b.WriteFile(ctx, "f", content); err != nil {
				t.Fatal(err)
			}
			if err := b.WriteFile(ctx, "u", content); err != nil {
				t.Fatal(err)
			}
		}
		pfs.SetReadOnly(true)
		m, err := New(Config{
			Levels:        []storage.Backend{storage.NewMemFS("ssd", 0), pfs},
			Pool:          pool.NewGoPool(2),
			FullFileFetch: true,
			ChunkSize:     int64(chunkSize),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.Init(ctx); err != nil {
			t.Fatal(err)
		}

		checkAt := func(phase, name string, off int64) {
			got := make([]byte, readLen)
			want := make([]byte, readLen)
			gn, gerr := m.ReadAt(ctx, name, got, off)
			wn, werr := oracle.ReadAt(ctx, name, want, off)
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("%s: err=%v, oracle err=%v", phase, gerr, werr)
			}
			if gerr != nil {
				return
			}
			if gn != wn {
				t.Fatalf("%s: n=%d, oracle n=%d", phase, gn, wn)
			}
			if !bytes.Equal(got[:gn], want[:wn]) {
				t.Fatalf("%s: bytes differ from oracle", phase)
			}
		}
		check := func(phase string) { checkAt(phase, "f", off) }

		// First read lands while the background placement is (possibly)
		// mid-copy; the second read after Idle hits the placed copy.
		check("mid-flight")
		waitIdleM(t, m)
		check("settled")

		if u, _ := m.meta.get("u"); u.tryQueue() {
			u.markUnplaceable() // as a placement no tier had room for leaves it
		}
		for i := int64(0); i < 4; i++ {
			checkAt("unplaceable", "u", off+i*int64(readLen))
		}

		// The placed copy, if any, must be byte-identical to the source.
		if lvl, err := m.LevelOf("f"); err == nil && lvl == 0 && fileSize > 0 {
			got, err := m.ReadFull(ctx, "f")
			if err != nil || !bytes.Equal(got, content) {
				t.Fatalf("placed copy differs from source (err=%v)", err)
			}
		}
	})
}

// FuzzNamespace drives the metadata container and one entry's holder of
// bytes in flight with an arbitrary op tape: it must never panic, sizes
// must stay consistent, and the landed-prefix invariants must hold after
// every transition: 0 <= landed <= size, zero at publish, never falling
// while published nor moving once dropped; a prefix only while queued;
// and the read plan's lookup answers only inside the prefix.
func FuzzNamespace(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{1, 0, 0, 2, 1, 3, 5, 4, 0, 5, 0})
	f.Add([]byte{2, 9, 1, 9, 2, 9, 3, 9, 4, 9, 5, 9, 6, 9, 7, 9, 8, 9})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const levels = 3
		c := newMetadataContainer(levels)
		nf := 1
		if len(tape) > 0 {
			nf = 1 + int(tape[0])%4
		}
		infos := make([]storage.FileInfo, nf)
		for i := range infos {
			size := int64(i * 100)
			if len(tape) > i+1 {
				size = int64(tape[i+1]) * 3
			}
			infos[i] = storage.FileInfo{Name: fmt.Sprintf("f%02d", i), Size: size}
		}
		c.populate(infos, levels-1)
		if c.len() != nf {
			t.Fatalf("namespace has %d entries, want %d", c.len(), nf)
		}
		list := c.list()
		for i, fi := range list {
			if fi.Name != infos[i].Name || fi.Size != infos[i].Size {
				t.Fatalf("list[%d] = %+v, want %+v", i, fi, infos[i])
			}
		}

		// The read plan's lookup over bare levels: no breaker, and with
		// FullFileFetch off no holder but a landed prefix re-routes a read.
		pl := newPlacer(&Monarch{levels: []*driver{{level: 0}, {level: 1}, {level: 2}}})
		last := map[*fileEntry]*fetched{} // each entry's latest landed prefix
		for pc := 1; pc+1 < len(tape); pc += 2 {
			op, arg := tape[pc], int64(tape[pc+1])
			e, ok := c.get(fmt.Sprintf("f%02d", int(op/16)%nf))
			if !ok {
				t.Fatal("populated entry missing")
			}
			h, prev := e.landing(), last[e]
			var was, prevWas int64
			if h != nil {
				was = h.landed.Load()
			}
			if prev != nil {
				prevWas = prev.landed.Load()
			}
			switch op % 10 {
			case 0:
				e.tryQueue()
			case 1:
				e.markPlaced(int(arg) % levels)
			case 2:
				if e.currentState() == stateQueued { // a chunked copy lands on its queued attempt
					last[e] = e.land(0)
					if v := last[e].landed.Load(); v != 0 {
						t.Fatalf("landed prefix published at %d, not 0", v)
					}
				}
			case 3:
				if prev != nil {
					e.raise(prev, arg*3) // crosses every file size (≤ 765); prev may be dropped
				}
			case 4:
				e.clearChunks()
			case 5:
				end := min(arg+arg%97, e.size)
				if _, rt := pl.fetched(context.Background(), e, arg, arg%97, route{}); rt.kind == routeMidCopy {
					p := e.landing()
					switch {
					case p == nil || e.currentState() != stateQueued:
						t.Fatal("the lookup answered mid-copy outside stateQueued")
					case rt.d.level != 0:
						t.Fatalf("the lookup routed to level %d, the prefix lands on 0", rt.d.level)
					case end > p.landed.Load():
						t.Fatalf("the lookup answered [%d, %d) past the prefix %d", arg, end, p.landed.Load())
					}
				}
			case 6:
				e.markUnplaceable()
			case 7:
				e.cancelQueued()
			case 8:
				e.markDemoted(int(arg)%levels, levels-1)
			case 9:
				e.makeReplaceable()
			}
			p := e.landing()
			if p != nil && e.currentState() != stateQueued {
				t.Fatalf("landed prefix published in state %d", e.currentState())
			}
			if p != nil {
				if v := p.landed.Load(); v < 0 || v > e.size {
					t.Fatalf("landed %d outside [0, %d]", v, e.size)
				} else if p == h && v < was {
					t.Fatalf("landed prefix fell from %d to %d while published", was, v)
				}
			}
			if prev != nil && prev != h && prev.landed.Load() != prevWas {
				t.Fatal("a dropped landed prefix moved")
			}
			if e.size != infos[int(op/16)%nf].Size {
				t.Fatal("entry size changed")
			}
		}

		// The namespace itself must be unchanged by entry-state churn.
		if got := c.list(); len(got) != nf {
			t.Fatalf("namespace size drifted to %d", len(got))
		}
	})
}
