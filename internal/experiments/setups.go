package experiments

import (
	"context"
	"fmt"

	"monarch/internal/core"
	"monarch/internal/dataset"
	"monarch/internal/pipeline"
	"monarch/internal/pool"
	"monarch/internal/sim"
	"monarch/internal/simstore"
	"monarch/internal/storage"
)

// Setup names one of the evaluation's storage configurations.
type Setup string

// The paper's four setups (§II and §IV).
const (
	VanillaLustre  Setup = "vanilla-lustre"
	VanillaLocal   Setup = "vanilla-local"
	VanillaCaching Setup = "vanilla-caching"
	Monarch        Setup = "monarch"
)

// AllSetups lists the setups in the paper's presentation order.
func AllSetups() []Setup {
	return []Setup{VanillaLustre, VanillaLocal, VanillaCaching, Monarch}
}

// rig is one run's assembled storage stack.
type rig struct {
	source  pipeline.Source
	pfs     *storage.Counting // nil for vanilla-local
	monarch *core.Monarch     // nil unless Monarch setup
	// init performs setup-time work that the experiment wants timed
	// (MONARCH's metadata-container build); it may be nil.
	init func(ctx context.Context) error
}

// buildRig assembles the storage stack for setup inside env. The
// manifest's shards are mounted on whichever store plays the dataset
// source.
func buildRig(env *sim.Env, setup Setup, man *dataset.Manifest, p Params) (*rig, error) {
	mount := func(st *simstore.Store) {
		for i := range man.Shards {
			st.AddFile(man.Shards[i].Name, man.Shards[i].Size)
		}
	}
	newLustre := func() *simstore.Store {
		dev := simstore.NewDevice(env, p.Lustre)
		if p.UseInterference {
			dev.SetInterference(simstore.NewInterference(env, p.Interference))
		}
		st := simstore.NewStore(dev, "lustre", 0)
		mount(st)
		st.SetReadOnly(true)
		return st
	}

	switch setup {
	case VanillaLustre:
		pfs := storage.NewCounting(newLustre())
		return &rig{source: pfs, pfs: pfs}, nil

	case VanillaLocal:
		// The dataset is staged on the local SSD before the job (the
		// paper's manual best case). It must fit.
		if man.TotalBytes() > p.SSDQuota() {
			return nil, fmt.Errorf("experiments: %s: dataset (%d B) exceeds local quota (%d B)",
				setup, man.TotalBytes(), p.SSDQuota())
		}
		ssd := simstore.NewStore(simstore.NewDevice(env, p.SSD), "ssd", 0)
		mount(ssd)
		return &rig{source: ssd}, nil

	case VanillaCaching:
		// TensorFlow's Dataset.cache(local_path): epoch 1 streams from
		// Lustre while writing through to the SSD; later epochs read
		// the SSD copy. Requires the dataset to fit (§II summary).
		if man.TotalBytes() > p.SSDQuota() {
			return nil, fmt.Errorf("experiments: %s: dataset (%d B) exceeds local quota (%d B)",
				setup, man.TotalBytes(), p.SSDQuota())
		}
		pfs := storage.NewCounting(newLustre())
		ssdDev := simstore.NewDevice(env, p.SSD)
		src := newCachingSource(env, pfs, ssdDev, man)
		return &rig{source: src, pfs: pfs}, nil

	case Monarch:
		pfs := storage.NewCounting(newLustre())
		tiers := []storage.Backend{}
		if p.ExtraTierBytes > 0 {
			ram := simstore.NewStore(simstore.NewDevice(env, simstore.RAMSpec()),
				"ram", int64(float64(p.ExtraTierBytes)*p.Scale))
			ram.CopyChunk = p.CopyChunk
			tiers = append(tiers, ram)
		}
		ssd := simstore.NewStore(simstore.NewDevice(env, p.SSD), "ssd", p.SSDQuota())
		ssd.CopyChunk = p.CopyChunk
		tiers = append(tiers, ssd, pfs)

		var evict core.EvictionPolicy
		switch p.Eviction {
		case "":
		case "lru":
			evict = core.NewLRU()
		case "fifo":
			evict = core.NewFIFO()
		default:
			return nil, fmt.Errorf("experiments: unknown eviction policy %q", p.Eviction)
		}
		staging := core.StageOnFirstRead
		if p.PreStage {
			staging = core.StagePreTraining
		}
		cfg := core.Config{
			Levels:        tiers,
			Pool:          pool.NewSimPool(env, "placer", p.PlacementThreads),
			FullFileFetch: p.FullFileFetch,
			Staging:       staging,
			Eviction:      evict,
		}
		if p.TracePath != "" {
			cfg.TracePath = p.TracePath
			cfg.TraceSample = p.TraceSample
			// Trace timestamps follow the simulated clock, so a replay
			// can re-drive the run deterministically.
			cfg.TraceClock = func() int64 { return int64(env.Now()) }
			cfg.TraceMeta = map[string]string{
				"scale":             fmt.Sprintf("%g", p.Scale),
				"dataset":           man.Spec.Name,
				"copy_chunk":        fmt.Sprintf("%d", p.CopyChunk),
				"placement_threads": fmt.Sprintf("%d", p.PlacementThreads),
			}
		}
		m, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		return &rig{
			source:  m,
			pfs:     pfs,
			monarch: m,
			init:    m.Init,
		}, nil

	default:
		return nil, fmt.Errorf("experiments: unknown setup %q", setup)
	}
}

// cachingSource reproduces tf.data's cache-to-local-file stage: reads
// of a not-yet-cached shard go to the PFS and are synchronously written
// through to the local device; once a shard is fully cached its reads
// hit the SSD. Shards are read sequentially by the pipeline, so
// byte-progress tracking per shard is exact.
type cachingSource struct {
	pfs      storage.Backend
	ssd      *simstore.Device
	writer   *sim.Resource // tf.data's cache stage writes serially
	sizes    map[string]int64
	progress map[string]int64
}

func newCachingSource(env *sim.Env, pfs storage.Backend, ssd *simstore.Device, man *dataset.Manifest) *cachingSource {
	c := &cachingSource{
		pfs:      pfs,
		ssd:      ssd,
		writer:   sim.NewResource(env, "cache-writer", 1),
		sizes:    make(map[string]int64, len(man.Shards)),
		progress: make(map[string]int64, len(man.Shards)),
	}
	for i := range man.Shards {
		c.sizes[man.Shards[i].Name] = man.Shards[i].Size
	}
	return c
}

func (c *cachingSource) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	size, ok := c.sizes[name]
	if !ok {
		return 0, fmt.Errorf("caching source: unknown shard %q", name)
	}
	if c.progress[name] >= size {
		// Cache hit: serve from the local device.
		proc := sim.MustProc(ctx)
		n := size - off
		if n <= 0 {
			return 0, nil
		}
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		c.ssd.Read(proc, n)
		return int(n), nil
	}
	n, err := c.pfs.ReadAt(ctx, name, p, off)
	if err != nil || n == 0 {
		return n, err
	}
	// Write-through to the cache file, in the reader's path and through
	// the cache stage's single writer — this is the extra epoch-1 cost
	// the paper measures for vanilla-caching.
	proc := sim.MustProc(ctx)
	c.writer.Acquire(proc, 1)
	c.ssd.Write(proc, int64(n))
	c.writer.Release(1)
	if off+int64(n) > c.progress[name] {
		c.progress[name] = off + int64(n)
	}
	return n, err
}

// cachedBytes reports how much of the dataset the cache holds.
func (c *cachingSource) cachedBytes() int64 {
	var t int64
	for name, prog := range c.progress {
		if prog >= c.sizes[name] {
			t += c.sizes[name]
		}
	}
	return t
}
