package monarch_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"monarch"
)

// Example shows the paper's integration pattern end to end: a two-level
// hierarchy over a read-only source, reads through the middleware, and
// the automatic background promotion of touched files.
func Example() {
	ctx := context.Background()

	// The shared PFS holding the dataset (read-only from the job's view).
	pfs := monarch.NewMemFS("lustre", 0)
	_ = pfs.WriteFile(ctx, "shard-0", bytes.Repeat([]byte{'x'}, 1024))
	pfs.SetReadOnly(true)

	// The node-local fast tier with a quota.
	ssd := monarch.NewMemFS("ssd", 10<<20)

	m, err := monarch.New(monarch.Config{
		Levels:        []monarch.Backend{ssd, pfs},
		Pool:          monarch.NewPool(6),
		FullFileFetch: true,
	})
	if err != nil {
		panic(err)
	}
	defer m.Close()
	if err := m.Init(ctx); err != nil {
		panic(err)
	}

	// The framework's pread becomes a middleware ReadAt.
	buf := make([]byte, 256)
	n, _ := m.ReadAt(ctx, "shard-0", buf, 0)
	for !m.Idle() {
		time.Sleep(time.Millisecond)
	}
	lvl, _ := m.LevelOf("shard-0")
	fmt.Printf("read %d bytes; file now on level %d\n", n, lvl)
	// Output: read 256 bytes; file now on level 0
}

// ExampleMonarch_Stats shows the counters the experiments are built on.
func ExampleMonarch_Stats() {
	ctx := context.Background()
	pfs := monarch.NewMemFS("lustre", 0)
	_ = pfs.WriteFile(ctx, "a", make([]byte, 100))
	_ = pfs.WriteFile(ctx, "b", make([]byte, 100))
	pfs.SetReadOnly(true)
	m, _ := monarch.New(monarch.Config{
		Levels:        []monarch.Backend{monarch.NewMemFS("ssd", 0), pfs},
		Pool:          monarch.NewPool(2),
		FullFileFetch: true,
	})
	defer m.Close()
	_ = m.Init(ctx)

	buf := make([]byte, 100)
	_, _ = m.ReadAt(ctx, "a", buf, 0) // epoch 1: served by the PFS
	for !m.Idle() {
		time.Sleep(time.Millisecond)
	}
	_, _ = m.ReadAt(ctx, "a", buf, 0) // epoch 2: served by the SSD

	st := m.Stats()
	fmt.Printf("placements=%d reads[ssd]=%d reads[pfs]=%d\n",
		st.Placements, st.ReadsServed[0], st.ReadsServed[1])
	// Output: placements=1 reads[ssd]=1 reads[pfs]=1
}

// Example_traceHook collects the spans the middleware emits — one per
// decision — through Config.Trace: here the first read of a file and
// the background placement it schedules.
func Example_traceHook() {
	ctx := context.Background()
	pfs := monarch.NewMemFS("lustre", 0)
	_ = pfs.WriteFile(ctx, "shard", make([]byte, 64))
	pfs.SetReadOnly(true)
	var mu sync.Mutex
	var placements []monarch.Span
	m, _ := monarch.New(monarch.Config{
		Levels:        []monarch.Backend{monarch.NewMemFS("ssd", 0), pfs},
		Pool:          monarch.NewPool(1),
		FullFileFetch: true,
		// The hook runs on the instrumented path: keep it short.
		Trace: func(s monarch.Span) {
			if s.Kind == monarch.SpanPlacement {
				mu.Lock()
				placements = append(placements, s)
				mu.Unlock()
			}
		},
	})
	defer m.Close()
	_ = m.Init(ctx)
	_, _ = m.ReadAt(ctx, "shard", make([]byte, 64), 0)
	for !m.Idle() {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, s := range placements {
		fmt.Printf("%s %s tier=%d bytes=%d err=%v\n", s.Kind, s.File, s.Tier, s.Bytes, s.Err)
	}
	// Output: placement shard tier=0 bytes=64 err=<nil>
}

// Example_multiTier is the paper's §VI direction: a three-level
// hierarchy, RAM above SSD above the PFS. Placement walks down to the
// first tier with room, so files spill from the small fast tier to the
// larger one, and only the overflow stays on the PFS.
func Example_multiTier() {
	ctx := context.Background()
	pfs := monarch.NewMemFS("lustre", 0)
	for i := 0; i < 12; i++ {
		_ = pfs.WriteFile(ctx, fmt.Sprintf("shard-%02d", i), make([]byte, 1024))
	}
	pfs.SetReadOnly(true)
	ram := monarch.NewMemFS("ram", 3*1024) // 3 files
	ssd := monarch.NewMemFS("ssd", 5*1024) // 5 more
	m, _ := monarch.New(monarch.Config{
		Levels:        []monarch.Backend{ram, ssd, pfs},
		Pool:          monarch.NewPool(6),
		FullFileFetch: true,
	})
	defer m.Close()
	_ = m.Init(ctx)

	buf := make([]byte, 1024)
	for _, fi := range m.Files() {
		_, _ = m.ReadAt(ctx, fi.Name, buf, 0)
	}
	for !m.Idle() {
		time.Sleep(time.Millisecond)
	}
	perLevel := make([]int, 3)
	for _, fi := range m.Files() {
		lvl, _ := m.LevelOf(fi.Name)
		perLevel[lvl]++
	}
	st := m.Stats()
	fmt.Printf("ram %d, ssd %d, lustre %d; placements %d, skips %d, evictions %d\n",
		perLevel[0], perLevel[1], perLevel[2], st.Placements, st.PlacementSkips, st.Evictions)
	// Output: ram 3, ssd 5, lustre 4; placements 8, skips 4, evictions 0
}
