package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"monarch/internal/obs"
	"monarch/internal/storage"
)

// TestReadAtEdgeCases pins the pread contract at the boundaries, in
// whole-file and chunked mode and both before and after placement: the
// middleware must behave exactly like the backing store's ReadRange.
func TestReadAtEdgeCases(t *testing.T) {
	const fileSize = 1000 // 4 chunks of 256: last chunk is short
	want := chunkContent(0, fileSize)
	cases := []struct {
		name    string
		off     int64
		bufLen  int
		wantN   int
		wantErr bool
	}{
		{"full file", 0, fileSize, fileSize, false},
		{"interior range", 100, 50, 50, false},
		{"read at EOF", fileSize, 10, 0, false},
		{"read past EOF", fileSize + 5, 10, 0, false},
		{"range clipped at EOF", fileSize - 10, 50, 10, false},
		{"zero-length buffer", 0, 0, 0, false},
		{"zero-length buffer at EOF", fileSize, 0, 0, false},
		{"chunk-boundary straddle", 200, 112, 112, false}, // spans chunks 0 and 1
		{"exact chunk", 256, 256, 256, false},             // chunk 1 exactly
		{"tail into short chunk", 700, 300, 300, false},   // chunks 2 and 3
		{"negative offset", -1, 10, 0, true},
	}
	for _, chunkSize := range []int64{0, 256} {
		for _, placed := range []bool{false, true} {
			mode := fmt.Sprintf("chunk=%d/placed=%v", chunkSize, placed)
			t.Run(mode, func(t *testing.T) {
				m := newChunkStack(t, storage.NewMemFS("ssd", 0), 4, 1, fileSize,
					func(c *Config) { c.ChunkSize = chunkSize })
				ctx := context.Background()
				if placed {
					if _, err := m.ReadAt(ctx, "c000", make([]byte, 1), 0); err != nil {
						t.Fatal(err)
					}
					waitIdleM(t, m)
				}
				for _, tc := range cases {
					buf := make([]byte, tc.bufLen)
					n, err := m.ReadAt(ctx, "c000", buf, tc.off)
					if (err != nil) != tc.wantErr {
						t.Errorf("%s: err=%v wantErr=%v", tc.name, err, tc.wantErr)
						continue
					}
					if n != tc.wantN {
						t.Errorf("%s: n=%d want %d", tc.name, n, tc.wantN)
						continue
					}
					if err == nil && n > 0 && !bytes.Equal(buf[:n], want[tc.off:tc.off+int64(n)]) {
						t.Errorf("%s: bytes differ from source", tc.name)
					}
				}
			})
		}
	}
}

// TestConcurrentFirstRead races two goroutines on the same file's first
// read: both must get correct bytes and exactly one placement may run.
func TestConcurrentFirstRead(t *testing.T) {
	for _, chunkSize := range []int64{0, 256} {
		t.Run(fmt.Sprintf("chunk=%d", chunkSize), func(t *testing.T) {
			const fileSize = 1000
			m := newChunkStack(t, storage.NewMemFS("ssd", 0), 4, 1, fileSize,
				func(c *Config) { c.ChunkSize = chunkSize })
			ctx := context.Background()
			want := chunkContent(0, fileSize)
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, 100)
					n, err := m.ReadAt(ctx, "c000", buf, int64(g)*100)
					if err != nil {
						errs[g] = err
						return
					}
					if n != 100 || !bytes.Equal(buf[:n], want[g*100:g*100+n]) {
						errs[g] = fmt.Errorf("goroutine %d: wrong bytes (n=%d)", g, n)
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			waitIdleM(t, m)
			st := m.Stats()
			if st.Placements != 1 {
				t.Fatalf("placements = %d, want exactly 1", st.Placements)
			}
			if got, err := m.ReadFull(ctx, "c000"); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("placed content differs from source (err=%v)", err)
			}
		})
	}
}

// TestReadAtUnknownAndUninitialized pins the namespace error contract
// regardless of chunk mode.
func TestReadAtUnknownFileChunked(t *testing.T) {
	m := newChunkStack(t, storage.NewMemFS("ssd", 0), 1, 1, 100, nil)
	if _, err := m.ReadAt(context.Background(), "nope", make([]byte, 1), 0); err == nil {
		t.Fatal("expected ErrUnknownFile")
	}
}

// TestNegativeOffsetIsTheCallersError pins that a negative offset is
// refused as the caller's error before any tier is asked: it is booked
// as errors{stage="read"} with a failed read span, never as a tier
// failure, so it cannot trip tier 0's breaker and demote a placed file.
func TestNegativeOffsetIsTheCallersError(t *testing.T) {
	var spans []obs.Span
	var mu sync.Mutex
	f := newFixture(t, 0, 2, 100, func(c *Config) {
		c.Trace = func(s obs.Span) {
			mu.Lock()
			defer mu.Unlock()
			if s.Kind == obs.SpanRead && s.Off < 0 {
				spans = append(spans, s)
			}
		}
	})
	ctx := context.Background()
	p := make([]byte, 100)
	if _, err := f.m.ReadAt(ctx, "f000", p, 0); err != nil {
		t.Fatal(err)
	}
	f.waitIdle(t)
	if lvl, err := f.m.LevelOf("f000"); err != nil || lvl != 0 {
		t.Fatalf("warm read left f000 on level %d (err=%v), want 0", lvl, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.m.ReadAt(ctx, "f000", p[:10], -5); err == nil {
			t.Fatal("ReadAt at offset -5 succeeded")
		}
		if _, err := f.m.ReadView(ctx, "f000", -5, 10); err == nil {
			t.Fatal("ReadView at offset -5 succeeded")
		}
	}
	if st := f.m.Stats(); st.Fallbacks != 0 {
		t.Errorf("Fallbacks = %d, want 0", st.Fallbacks)
	}
	if s := f.m.TierState(0); s != TierHealthy {
		t.Errorf("tier 0 is %v, want healthy", s)
	}
	if lvl, err := f.m.LevelOf("f000"); err != nil || lvl != 0 {
		t.Errorf("f000 on level %d (err=%v), want still 0", lvl, err)
	}
	if n := errorsAt(f.m, "read"); n != 6 {
		t.Errorf("errors{stage=read} = %d, want 6", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(spans) != 6 {
		t.Fatalf("%d read spans at a negative offset, want 6", len(spans))
	}
	for _, s := range spans {
		if s.Err == nil || s.Flags&obs.FlagFallback != 0 {
			t.Errorf("span %+v: want a failed read without FlagFallback", s)
		}
	}
}
