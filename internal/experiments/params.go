// Package experiments reproduces the paper's evaluation: the four
// setups (vanilla-lustre, vanilla-local, vanilla-caching, MONARCH), the
// two ImageNet-derived datasets, the three models, and every figure and
// table of §II and §IV, plus the ablations DESIGN.md calls out.
package experiments

import (
	"fmt"
	"time"

	"monarch/internal/dataset"
	"monarch/internal/pipeline"
	"monarch/internal/simstore"
	"monarch/internal/train"
)

// Params is the calibrated experiment configuration. Defaults reproduce
// the paper's testbed at a configurable scale; DESIGN.md §5 documents
// the calibration.
type Params struct {
	// Scale shrinks dataset bytes, image counts, shard counts and the
	// tier-0 quota proportionally (1 = the paper's full sizes).
	Scale float64
	// Runs is the repetition count (the paper uses 7).
	Runs int
	// Epochs per run (the paper uses 3).
	Epochs int
	// BaseSeed seeds run r with BaseSeed+r.
	BaseSeed uint64

	// SSD and Lustre are the device models; Interference modulates
	// Lustre service times when UseInterference is set.
	SSD             simstore.DeviceSpec
	Lustre          simstore.DeviceSpec
	UseInterference bool
	Interference    simstore.InterferenceConfig

	// SSDQuotaBytes is the usable tier-0 capacity before scaling (the
	// paper's 115 GiB partition).
	SSDQuotaBytes int64

	// Node is the compute-node shape.
	Node train.NodeSpec

	// Pipeline is the tf.data template (Manifest/Source filled per run).
	Pipeline pipeline.Config

	// PlacementThreads is MONARCH's thread-pool size (paper: 6).
	PlacementThreads int
	// CopyChunk is the background fetch request size, and ext-chunked's
	// placement chunk (core.Config.ChunkSize).
	CopyChunk int64
	// FullFileFetch toggles the §III-A optimisation (abl-fullfetch).
	FullFileFetch bool
	// PreStage switches MONARCH to placement option i (abl-staging).
	PreStage bool
	// Eviction selects an eviction ablation: "", "lru" or "fifo".
	Eviction string
	// ExtraTier inserts a RAM level above the SSD with the given
	// capacity in bytes before scaling (ext-multitier); 0 disables.
	ExtraTierBytes int64

	// TracePath, when set, captures the MONARCH setup's access trace
	// (one file per run; multi-run sweeps should use Runs=1). The file
	// records every read, placement and chunk copy on the simulated
	// clock, replayable with monarch-bench -replay.
	TracePath string
	// TraceSample keeps 1-in-N plain read hits in the trace (≤1 keeps
	// everything; event-worthy records are never sampled out).
	TraceSample int

	// Cache, when non-nil, memoises aggregates across experiments that
	// rerun identical configurations.
	Cache *Cache `json:"-"`
}

// DefaultParams returns the calibrated configuration at the given
// scale.
func DefaultParams(scale float64) Params {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("experiments: scale %v out of (0,1]", scale))
	}
	return Params{
		Scale:            scale,
		Runs:             7,
		Epochs:           3,
		BaseSeed:         1,
		SSD:              simstore.SSDSpec(),
		Lustre:           simstore.LustreSpec(),
		UseInterference:  true,
		Interference:     simstore.DefaultInterference(),
		SSDQuotaBytes:    115 << 30,
		Node:             train.Frontera(),
		Pipeline:         pipeline.DefaultConfig(),
		PlacementThreads: 6,
		CopyChunk:        4 << 20,
		FullFileFetch:    true,
	}
}

// QuickParams returns a configuration small enough for tests and
// benches: reduced scale and 3 runs.
func QuickParams() Params {
	p := DefaultParams(1.0 / 64)
	p.Runs = 3
	return p
}

// SSDQuota returns the scaled tier-0 quota.
func (p Params) SSDQuota() int64 {
	return int64(float64(p.SSDQuotaBytes) * p.Scale)
}

// Datasets returns the scaled evaluation datasets.
func (p Params) Datasets() (ds100, ds200 dataset.Spec) {
	return dataset.Frontera(p.Scale)
}

// ScaledDuration converts a full-scale expectation (seconds at scale 1)
// to this configuration's scale — used when checks compare against the
// paper's absolute numbers.
func (p Params) ScaledDuration(fullScaleSeconds float64) time.Duration {
	return time.Duration(fullScaleSeconds * p.Scale * float64(time.Second))
}

// Validate refuses run shapes the experiments cannot report on: at
// least one run to aggregate, and at least three epochs, because the
// shape checks compare epochs 1–3 as the paper's methodology does.
func (p Params) Validate() error {
	if p.Runs < 1 {
		return fmt.Errorf("experiments: runs = %d: every figure aggregates at least one run", p.Runs)
	}
	if p.Epochs < 3 {
		return fmt.Errorf("experiments: epochs = %d: the shape checks compare epochs 1-3, as the paper's methodology does", p.Epochs)
	}
	return nil
}
