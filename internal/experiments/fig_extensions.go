package experiments

import (
	"fmt"
	"time"

	"monarch/internal/dataset"
	"monarch/internal/models"
	"monarch/internal/ptloader"
	"monarch/internal/report"
	"monarch/internal/sim"
	"monarch/internal/simstore"
)

// extPyTorch validates the paper's framework-agnosticism claim (§VI:
// "we are integrating our system with PyTorch") by driving MONARCH with
// a DataLoader-style record-grained random-access pattern instead of
// the TensorFlow pipeline's sequential shard streams.
func extPyTorch() Experiment {
	return Experiment{
		ID:    "ext-pytorch",
		Title: "Extension — PyTorch-style DataLoader over MONARCH (100 GiB, LeNet)",
		Paper: "§VI: the same middleware read call must serve other frameworks; " +
			"the DataLoader's random per-record reads are the stress case",
		Run: func(p Params) (*Outcome, error) {
			ds100, _ := p.Datasets()
			man, err := dataset.Plan(ds100)
			if err != nil {
				return nil, err
			}
			mdl, err := models.ByName("lenet")
			if err != nil {
				return nil, err
			}
			type out struct {
				total  time.Duration
				pfsOps int64
			}
			runOnce := func(useMonarch bool, seed uint64) (out, error) {
				env := sim.NewEnv(seed)
				defer env.Close()
				setup := VanillaLustre
				if useMonarch {
					setup = Monarch
				}
				r, err := buildRig(env, setup, man, p)
				if err != nil {
					return out{}, err
				}
				cfg := ptloader.DefaultConfig()
				cfg.Manifest = man
				cfg.PreprocessPerImage = mdl.PreprocessPerImage
				cfg.Source = r.source
				refs := ptloader.Flatten(man)
				cfg.CPU = sim.NewResource(env, "cpu", p.Node.CPUCores)
				gpu := sim.NewResource(env, "gpu", p.Node.GPUs)
				var total sim.Time
				var runErr error
				env.Go("pt-train", func(proc *sim.Proc) {
					if r.init != nil {
						if err := r.init(proc.Context()); err != nil {
							runErr = err
							return
						}
					}
					start := env.Now()
					for epoch := 0; epoch < p.Epochs; epoch++ {
						ep, err := ptloader.StartEpoch(env, cfg, refs, epoch, seed)
						if err != nil {
							runErr = err
							return
						}
						for {
							_, ok := ep.Next(proc)
							if !ok {
								break
							}
							// One training step per batch.
							gpu.Acquire(proc, gpu.Capacity())
							proc.Sleep(mdl.StepTime)
							gpu.Release(gpu.Capacity())
						}
						if err := ep.Err(); err != nil {
							runErr = err
							return
						}
					}
					total = env.Now() - start
				})
				if err := env.Run(); err != nil {
					return out{}, err
				}
				if runErr != nil {
					return out{}, runErr
				}
				return out{total: total.Duration(), pfsOps: r.pfs.Counts().DataOps()}, nil
			}

			var vTime, mTime, vOps, mOps float64
			runs := p.Runs
			for r := 0; r < runs; r++ {
				seed := p.BaseSeed + uint64(r)*7919
				v, err := runOnce(false, seed)
				if err != nil {
					return nil, err
				}
				m, err := runOnce(true, seed)
				if err != nil {
					return nil, err
				}
				vTime += v.total.Seconds() / float64(runs)
				mTime += m.total.Seconds() / float64(runs)
				vOps += float64(v.pfsOps) / float64(runs)
				mOps += float64(m.pfsOps) / float64(runs)
			}

			o := &Outcome{}
			t := report.NewTable("PyTorch-style DataLoader (LeNet, 100 GiB, mean over runs)",
				"setup", "total time", "PFS ops")
			t.Add("vanilla-lustre", report.Seconds(vTime), report.Count(int64(vOps)))
			t.Add("monarch", report.Seconds(mTime), report.Count(int64(mOps)))
			o.Tables = append(o.Tables, t)

			o.check("MONARCH serves the DataLoader pattern with a speed-up",
				mTime < 0.9*vTime, "monarch %.1f vs vanilla %.1f s", mTime, vTime)
			o.check("MONARCH cuts PFS ops under record-grained access",
				mOps < 0.7*vOps, "monarch %.0f vs vanilla %.0f ops", mOps, vOps)
			// Record-grained access issues roughly one op per record —
			// far more ops than the TF pipeline's 256 KiB streams.
			expect := float64(man.NumRecords() * p.Epochs)
			o.check("vanilla DataLoader op count matches per-record geometry",
				within(vOps, expect, 0.25), "measured %.0f vs %.0f records read", vOps, expect)
			return o, nil
		},
	}
}

// extDistributed explores §VI's distributed-training direction: N nodes
// sharing one Lustre, as concurrent replicated jobs and as
// data-parallel partitions with sticky vs reshuffled shard assignment.
func extDistributed() Experiment {
	return Experiment{
		ID:    "ext-distributed",
		Title: "Extension — multi-node training against one shared PFS (100 GiB, LeNet)",
		Paper: "§VI: distributed training raises new placement questions as nodes need " +
			"different shards; §I: concurrent I/O-intensive jobs saturate the PFS",
		Run: func(p Params) (*Outcome, error) {
			ds100, _ := p.Datasets()
			man, err := dataset.Plan(ds100)
			if err != nil {
				return nil, err
			}
			runs := p.Runs
			if runs > 3 {
				runs = 3 // 3 configurations × N nodes each; keep bounded
			}
			mean := func(nodes int, mode ShardingMode, useMonarch bool) (DistResult, error) {
				var agg DistResult
				for r := 0; r < runs; r++ {
					d, err := RunDistributed(man, p, nodes, mode, useMonarch, p.BaseSeed+uint64(r)*7919)
					if err != nil {
						return DistResult{}, err
					}
					agg.Nodes = d.Nodes
					agg.JobTime += d.JobTime / time.Duration(runs)
					agg.PFSOps += d.PFSOps / int64(runs)
					agg.PFSBytes += d.PFSBytes / int64(runs)
					agg.Placements += d.Placements / int64(runs)
				}
				return agg, nil
			}

			o := &Outcome{}
			t := report.NewTable("concurrent replicated jobs (each node reads the full dataset)",
				"nodes", "setup", "job time", "PFS ops")
			type pair struct{ vanilla, monarch DistResult }
			repl := map[int]pair{}
			for _, n := range []int{1, 2, 4} {
				v, err := mean(n, ShardNone, false)
				if err != nil {
					return nil, err
				}
				m, err := mean(n, ShardNone, true)
				if err != nil {
					return nil, err
				}
				repl[n] = pair{v, m}
				t.Add(fmt.Sprintf("%d", n), "vanilla-lustre",
					report.Seconds(v.JobTime.Seconds()), report.Count(v.PFSOps))
				t.Add("", "monarch",
					report.Seconds(m.JobTime.Seconds()), report.Count(m.PFSOps))
			}
			o.Tables = append(o.Tables, t)

			t2 := report.NewTable("data-parallel partitions (each epoch covers the dataset once)",
				"nodes", "sharding", "job time", "PFS ops", "placements")
			sticky4, err := mean(4, ShardSticky, true)
			if err != nil {
				return nil, err
			}
			reshuf4, err := mean(4, ShardReshuffled, true)
			if err != nil {
				return nil, err
			}
			vanilla4, err := mean(4, ShardSticky, false)
			if err != nil {
				return nil, err
			}
			t2.Add("4", "vanilla (any)", report.Seconds(vanilla4.JobTime.Seconds()),
				report.Count(vanilla4.PFSOps), "0")
			t2.Add("4", "monarch sticky", report.Seconds(sticky4.JobTime.Seconds()),
				report.Count(sticky4.PFSOps), report.Count(sticky4.Placements))
			t2.Add("4", "monarch reshuffled", report.Seconds(reshuf4.JobTime.Seconds()),
				report.Count(reshuf4.PFSOps), report.Count(reshuf4.Placements))
			o.Tables = append(o.Tables, t2)

			o.check("concurrent vanilla jobs saturate the shared PFS (paper §I)",
				repl[4].vanilla.JobTime > 2*repl[1].vanilla.JobTime,
				"4 nodes %.1f s vs 1 node %.1f s",
				repl[4].vanilla.JobTime.Seconds(), repl[1].vanilla.JobTime.Seconds())
			o.check("MONARCH improves multi-job scaling",
				repl[4].monarch.JobTime < repl[4].vanilla.JobTime,
				"monarch %.1f vs vanilla %.1f s",
				repl[4].monarch.JobTime.Seconds(), repl[4].vanilla.JobTime.Seconds())
			o.check("MONARCH cuts aggregate PFS ops across concurrent jobs",
				repl[4].monarch.PFSOps < repl[4].vanilla.PFSOps*2/3,
				"%d vs %d ops", repl[4].monarch.PFSOps, repl[4].vanilla.PFSOps)
			o.check("sticky sharding keeps per-node caches valid",
				sticky4.PFSOps < vanilla4.PFSOps/2,
				"sticky %d vs vanilla %d ops", sticky4.PFSOps, vanilla4.PFSOps)
			o.check("reshuffled sharding erodes cache benefit (the paper's open question)",
				reshuf4.PFSOps > sticky4.PFSOps*3/2,
				"reshuffled %d vs sticky %d ops", reshuf4.PFSOps, sticky4.PFSOps)
			return o, nil
		},
	}
}

// traceTimeline charts PFS throughput over virtual time: vanilla's flat
// plateau vs MONARCH's epoch-1 bulk transfer followed by silence.
func traceTimeline() Experiment {
	return Experiment{
		ID:    "trace-timeline",
		Title: "Diagnostic — PFS throughput over time (100 GiB, LeNet, one seed)",
		Paper: "implied by §IV-A: with MONARCH, PFS traffic concentrates in epoch 1 and " +
			"drops to zero once the dataset is placed",
		Run: func(p Params) (*Outcome, error) {
			ds100, _ := p.Datasets()
			man, err := dataset.Plan(ds100)
			if err != nil {
				return nil, err
			}
			mdl, err := models.ByName("lenet")
			if err != nil {
				return nil, err
			}
			runOnce := func(setup Setup) (*simstore.Timeline, time.Duration, error) {
				env := sim.NewEnv(p.BaseSeed)
				defer env.Close()
				r, err := buildRig(env, setup, man, p)
				if err != nil {
					return nil, 0, err
				}
				// Locate the lustre device through the rig's counting
				// wrapper chain: both setups wrap a simstore.Store.
				store, ok := r.pfs.Backend.(*simstore.Store)
				if !ok {
					return nil, 0, fmt.Errorf("trace-timeline: unexpected PFS backend")
				}
				tl := simstore.NewTimeline(time.Duration(float64(20*time.Second) * p.Scale * 16))
				store.Device().SetTimeline(tl)

				tr, err := r.train(env, mdl, man, p, p.BaseSeed, nil)
				if err != nil {
					return nil, 0, err
				}
				return tl, tr.Total, nil
			}

			vTL, vTotal, err := runOnce(VanillaLustre)
			if err != nil {
				return nil, err
			}
			mTL, mTotal, err := runOnce(Monarch)
			if err != nil {
				return nil, err
			}

			o := &Outcome{}
			chart := report.NewBarChart(fmt.Sprintf(
				"PFS throughput per %.0f s bucket (MiB/s)", vTL.Bucket().Seconds()))
			buckets := vTL.Len()
			if mTL.Len() > buckets {
				buckets = mTL.Len()
			}
			for i := 0; i < buckets; i++ {
				grp := fmt.Sprintf("t%02d", i)
				chart.Add(grp, "vanilla-lustre", vTL.Rate(i)/(1<<20), 0, "")
				chart.Add(grp, "monarch", mTL.Rate(i)/(1<<20), 0, "")
			}
			o.Charts = append(o.Charts, chart)

			// Vanilla keeps a PFS plateau through the final third of its
			// run; MONARCH's PFS traffic there is near zero. Windows are
			// derived from each run's *duration* (the timeline only
			// extends to the last op).
			vBuckets := int(vTotal/vTL.Bucket()) + 1
			mBuckets := int(mTotal/mTL.Bucket()) + 1
			vTail := vTL.MeanRate(2*vBuckets/3, vBuckets)
			mTail := mTL.MeanRate(2*mBuckets/3, mBuckets)
			o.check("vanilla PFS traffic persists all run",
				vTail > 0.3*vTL.MeanRate(0, vBuckets),
				"tail %.1f vs overall %.1f MiB/s", vTail/(1<<20), vTL.MeanRate(0, vBuckets)/(1<<20))
			o.check("MONARCH PFS traffic collapses after placement",
				mTail < 0.05*vTail+1,
				"monarch tail %.2f vs vanilla tail %.1f MiB/s", mTail/(1<<20), vTail/(1<<20))
			o.check("both runs moved the dataset's bytes",
				vTL.Total() >= float64(man.TotalBytes()*int64(p.Epochs))*0.95 &&
					mTL.Total() >= float64(man.TotalBytes())*0.95,
				"vanilla %.1f GiB, monarch %.1f GiB", vTL.Total()/(1<<30), mTL.Total()/(1<<30))
			return o, nil
		},
	}
}
