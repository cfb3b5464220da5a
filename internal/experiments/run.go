package experiments

import (
	"fmt"
	"time"

	"monarch/internal/core"
	"monarch/internal/dataset"
	"monarch/internal/models"
	"monarch/internal/sim"
	"monarch/internal/stats"
	"monarch/internal/train"
)

// RunResult is one simulated training run's measurements.
type RunResult struct {
	Setup   Setup
	Model   string
	Dataset string
	Train   train.Result
	// InitDuration is the metadata-container build time (MONARCH only).
	InitDuration time.Duration
	// PFSOpsPerEpoch / PFSBytesPerEpoch are the shared file system's
	// data-operation and byte counts attributed per epoch (including
	// MONARCH's background fetch traffic).
	PFSOpsPerEpoch   []int64
	PFSBytesPerEpoch []int64
	// PFSMetaOps counts metadata operations against the PFS.
	PFSMetaOps int64
	// Monarch is the middleware's final counters (zero value for
	// baselines).
	Monarch core.Stats
	// CachedBytes is the bytes resident on local tiers when the run
	// ended (placement or caching coverage).
	CachedBytes int64
	// MemoryEstimate approximates resident memory (pipeline buffers +
	// framework overhead), the paper's flat ~10 GiB line.
	MemoryEstimate int64
}

// TotalPFSOps sums data ops across epochs.
func (r RunResult) TotalPFSOps() int64 {
	var t int64
	for _, v := range r.PFSOpsPerEpoch {
		t += v
	}
	return t
}

// frameworkMemOverhead approximates the DL framework's resident set
// outside pipeline buffers (weights, runtime, CUDA context), scaled so
// the reported total sits near the paper's ~10 GiB.
const frameworkMemOverhead = int64(9)<<30 + 256<<20

// RunOne executes one seeded run of (setup, model name, dataset spec).
func RunOne(setup Setup, model string, man *dataset.Manifest, p Params, seed uint64) (RunResult, error) {
	mdl, err := modelByName(model)
	if err != nil {
		return RunResult{}, err
	}
	return RunOneModel(setup, mdl, man, p, seed)
}

// RunOneModel is RunOne with an explicit cost profile, for sweeps that
// scale a model rather than pick a named one.
func RunOneModel(setup Setup, mdl models.Model, man *dataset.Manifest, p Params, seed uint64) (RunResult, error) {
	env := sim.NewEnv(seed)
	defer env.Close()

	r, err := buildRig(env, setup, man, p)
	if err != nil {
		return RunResult{}, err
	}

	res := RunResult{Setup: setup, Model: mdl.Name, Dataset: man.Spec.Name}
	pcfg := p.Pipeline
	pcfg.Manifest = man
	pcfg.Source = r.source

	var prevOps, prevBytes int64
	snapshot := func(epoch int) {
		if r.monarch != nil {
			// Epoch boundary into the access trace (no-op without
			// Params.TracePath) before the counters are cut, so the
			// analyzer's per-epoch attribution matches the snapshots.
			r.monarch.MarkEpoch(epoch)
		}
		if r.pfs == nil {
			res.PFSOpsPerEpoch = append(res.PFSOpsPerEpoch, 0)
			res.PFSBytesPerEpoch = append(res.PFSBytesPerEpoch, 0)
			return
		}
		c := r.pfs.Counts()
		ops, bytes := c.DataOps(), c.BytesRead+c.BytesWritten
		res.PFSOpsPerEpoch = append(res.PFSOpsPerEpoch, ops-prevOps)
		res.PFSBytesPerEpoch = append(res.PFSBytesPerEpoch, bytes-prevBytes)
		prevOps, prevBytes = ops, bytes
	}

	var trainErr error
	env.Go("run", func(proc *sim.Proc) {
		if r.init != nil {
			start := env.Now()
			if err := r.init(proc.Context()); err != nil {
				trainErr = err
				return
			}
			res.InitDuration = (env.Now() - start).Duration()
			// The namespace build's PFS traffic belongs to init, not
			// epoch 0.
			if r.pfs != nil {
				c := r.pfs.Counts()
				prevOps, prevBytes = c.DataOps(), c.BytesRead+c.BytesWritten
			}
		}
		tr, err := train.Run(proc, train.Config{
			Model:      mdl,
			Node:       p.Node,
			Epochs:     p.Epochs,
			Pipeline:   pcfg,
			Seed:       seed,
			OnEpochEnd: func(_ *sim.Proc, epoch int) { snapshot(epoch + 1) },
		})
		if err != nil {
			trainErr = err
			return
		}
		res.Train = tr
	})
	if err := env.Run(); err != nil {
		return RunResult{}, fmt.Errorf("experiments: %s/%s: %w", setup, mdl.Name, err)
	}
	if trainErr != nil {
		return RunResult{}, fmt.Errorf("experiments: %s/%s: %w", setup, mdl.Name, trainErr)
	}

	if r.pfs != nil {
		res.PFSMetaOps = r.pfs.Counts().MetadataOps()
	}
	if r.monarch != nil {
		res.Monarch = r.monarch.Stats()
		res.CachedBytes = res.Monarch.PlacedBytes
		if tr := r.monarch.Tracer(); tr != nil {
			// Record the measured PFS data-op count in the trailer so the
			// trace analyzer can cross-check its derived total, then seal
			// the trace file.
			if r.pfs != nil {
				tr.AddSummary(map[string]int64{"pfs_data_ops": r.pfs.Counts().DataOps()})
			}
			r.monarch.Close()
		}
	}
	if cs, ok := r.source.(*cachingSource); ok {
		res.CachedBytes = cs.cachedBytes()
	}
	res.MemoryEstimate = pcfg.BufferBytes(man.Spec.MeanImageBytes()) + frameworkMemOverhead
	return res, nil
}

// Aggregate accumulates repeated runs of one configuration.
type Aggregate struct {
	Setup   Setup
	Model   string
	Dataset string
	Runs    int

	EpochTime  []stats.Welford // seconds, indexed by epoch
	TotalTime  stats.Welford   // seconds
	CPUUtil    stats.Welford   // [0,1]
	GPUUtil    stats.Welford
	PFSOps     []stats.Welford // per epoch
	PFSOpTotal stats.Welford
	PFSBytes   stats.Welford // whole-run bytes moved to/from the PFS
	InitTime   stats.Welford // seconds
	Cached     stats.Welford // bytes
	Memory     stats.Welford // bytes
}

func (a *Aggregate) add(r RunResult) {
	a.Runs++
	for len(a.EpochTime) < len(r.Train.Epochs) {
		a.EpochTime = append(a.EpochTime, stats.Welford{})
	}
	for i, e := range r.Train.Epochs {
		a.EpochTime[i].Add(e.Duration.Seconds())
	}
	a.TotalTime.Add(r.Train.Total.Seconds())
	a.CPUUtil.Add(r.Train.CPUUtil)
	a.GPUUtil.Add(r.Train.GPUUtil)
	for len(a.PFSOps) < len(r.PFSOpsPerEpoch) {
		a.PFSOps = append(a.PFSOps, stats.Welford{})
	}
	for i, v := range r.PFSOpsPerEpoch {
		a.PFSOps[i].Add(float64(v))
	}
	a.PFSOpTotal.Add(float64(r.TotalPFSOps()))
	var pfsBytes int64
	for _, v := range r.PFSBytesPerEpoch {
		pfsBytes += v
	}
	a.PFSBytes.Add(float64(pfsBytes))
	a.InitTime.Add(r.InitDuration.Seconds())
	a.Cached.Add(float64(r.CachedBytes))
	a.Memory.Add(float64(r.MemoryEstimate))
}

// RunMany executes p.Runs seeded repetitions and aggregates them.
func RunMany(setup Setup, model string, spec dataset.Spec, p Params) (*Aggregate, error) {
	man, err := dataset.Plan(spec)
	if err != nil {
		return nil, err
	}
	agg := &Aggregate{Setup: setup, Model: model, Dataset: spec.Name}
	for run := 0; run < p.Runs; run++ {
		r, err := RunOne(setup, model, man, p, p.BaseSeed+uint64(run)*7919)
		if err != nil {
			return nil, err
		}
		agg.add(r)
	}
	return agg, nil
}

// modelByName resolves the paper's model names.
func modelByName(name string) (models.Model, error) { return models.ByName(name) }

// GiB formats bytes as GiB with one decimal.
func GiB(b float64) string { return fmt.Sprintf("%.1f GiB", b/float64(int64(1)<<30)) }

// quotaCovered returns what fraction of the dataset fits the tier-0
// quota — the geometric expectation for MONARCH's steady-state PFS
// traffic on oversized datasets.
func quotaCovered(man *dataset.Manifest, quota int64) float64 {
	total := man.TotalBytes()
	if total == 0 {
		return 0
	}
	if quota <= 0 || quota >= total {
		return 1
	}
	return float64(quota) / float64(total)
}
