package experiments

import (
	"fmt"
	"time"

	"monarch/internal/core"
	"monarch/internal/dataset"
	"monarch/internal/models"
	"monarch/internal/pipeline"
	"monarch/internal/rng"
	"monarch/internal/sim"
	"monarch/internal/storage"
	"monarch/internal/train"
)

// ShardingMode selects how a distributed run assigns shards to nodes.
type ShardingMode int

const (
	// ShardNone replicates the whole dataset on every node — the
	// "multiple concurrent jobs against one PFS" scenario of the
	// paper's introduction.
	ShardNone ShardingMode = iota
	// ShardSticky partitions shards node-wise once and keeps the
	// assignment across epochs, so per-node caches stay valid.
	ShardSticky
	// ShardReshuffled draws a fresh global partition every epoch
	// (PyTorch DistributedSampler semantics), so a node's cached shards
	// mostly belong to *other* nodes next epoch.
	ShardReshuffled
)

// String names the mode.
func (s ShardingMode) String() string {
	switch s {
	case ShardNone:
		return "replicated"
	case ShardSticky:
		return "sticky"
	case ShardReshuffled:
		return "reshuffled"
	default:
		return "unknown"
	}
}

// DistResult summarises one distributed run.
type DistResult struct {
	Nodes int
	// JobTime is the slowest node's total training time.
	JobTime time.Duration
	// NodeTimes are per-node totals.
	NodeTimes []time.Duration
	// PFSOps / PFSBytes are totals against the shared PFS.
	PFSOps   int64
	PFSBytes int64
	// Placements and Evictions aggregate across nodes.
	Placements int64
}

// shardOrder lists the shards node reads in epoch, of total, under
// mode. The data-parallel simulations and the loopback peer run share
// it.
func shardOrder(mode ShardingMode, node, nodes, total, epoch int, seed uint64) []int {
	var order []int
	switch mode {
	case ShardSticky:
		// Fixed assignment: shard j belongs to node j%nodes.
		for j := node; j < total; j += nodes {
			order = append(order, j)
		}
	case ShardReshuffled:
		// One global permutation per epoch, shared by all nodes,
		// sliced round-robin.
		perm := rng.New(seed + uint64(epoch)*0x9e3779b9).Perm(total)
		for pos := node; pos < total; pos += nodes {
			order = append(order, perm[pos])
		}
	default: // ShardNone: every node reads everything.
		for j := 0; j < total; j++ {
			order = append(order, j)
		}
	}
	return order
}

// RunDistributed executes one seeded multi-node run: `nodes` compute
// nodes, each with its own SSD tier (and MONARCH instance when
// useMonarch is set), all hammering one shared Lustre. Nodes
// synchronise at epoch boundaries, approximating data-parallel
// training's per-step barrier at the granularity the experiment
// measures.
func RunDistributed(man *dataset.Manifest, p Params, nodes int, mode ShardingMode,
	useMonarch bool, seed uint64) (DistResult, error) {
	if nodes <= 0 {
		return DistResult{}, fmt.Errorf("experiments: nodes = %d", nodes)
	}
	mdl, err := models.ByName("lenet")
	if err != nil {
		return DistResult{}, err
	}
	env := sim.NewEnv(seed)
	defer env.Close()

	// One shared PFS.
	pfs := storage.NewCounting(newLustre(env, man, p))

	// Epoch barriers.
	barriers := make([]*sim.WaitGroup, p.Epochs)
	for e := range barriers {
		barriers[e] = sim.NewWaitGroup(env)
		barriers[e].Add(nodes)
	}

	res := DistResult{Nodes: nodes, NodeTimes: make([]time.Duration, nodes)}
	monarchs := make([]*core.Monarch, 0, nodes)
	errs := make([]error, nodes)

	for node := 0; node < nodes; node++ {
		node := node
		var src pipeline.Source = pfs
		var m *core.Monarch
		if useMonarch {
			cfg, err := simNode(env, p, pfs, fmt.Sprintf("-%d", node))
			if err != nil {
				return DistResult{}, err
			}
			if m, err = core.New(cfg); err != nil {
				return DistResult{}, err
			}
			monarchs = append(monarchs, m)
			src = m
		}

		pcfg := p.Pipeline
		pcfg.Manifest = man
		pcfg.Source = src
		if mode != ShardNone {
			// Replicated runs keep the pipeline's own shuffle.
			pcfg.SelectShards = func(epoch, total int) []int {
				return shardOrder(mode, node, nodes, total, epoch, seed)
			}
		}

		env.Go(fmt.Sprintf("node-%d", node), func(proc *sim.Proc) {
			if m != nil {
				if err := m.Init(proc.Context()); err != nil {
					errs[node] = err
					return
				}
			}
			tr, err := train.Run(proc, train.Config{
				Model:    mdl,
				Node:     p.Node,
				Epochs:   p.Epochs,
				Pipeline: pcfg,
				Seed:     seed + uint64(node)*131,
				OnEpochEnd: func(proc *sim.Proc, epoch int) {
					barriers[epoch].Done()
					barriers[epoch].Wait(proc)
				},
			})
			if err != nil {
				errs[node] = err
				return
			}
			res.NodeTimes[node] = tr.Total
			if tr.Total > res.JobTime {
				res.JobTime = tr.Total
			}
		})
	}
	if err := env.Run(); err != nil {
		return DistResult{}, err
	}
	for _, err := range errs {
		if err != nil {
			return DistResult{}, err
		}
	}
	c := pfs.Counts()
	res.PFSOps = c.DataOps()
	res.PFSBytes = c.BytesRead + c.BytesWritten
	for _, m := range monarchs {
		res.Placements += m.Stats().Placements
	}
	return res, nil
}
