package experiments

import (
	"context"
	"time"

	"monarch/internal/core"
	"monarch/internal/dataset"
	"monarch/internal/models"
	"monarch/internal/report"
	"monarch/internal/sim"
	"monarch/internal/storage"
	"monarch/internal/train"
)

// extResilience injects a tier-0 device failure after epoch 1: MONARCH
// must fall back to serving every read from the PFS — training slows
// back to vanilla-lustre pace but never fails. The paper's design
// implies this property (the PFS always holds the full dataset); this
// experiment proves the implementation delivers it.
//
// A second scenario repairs the device after epoch 2 and runs one
// extra epoch: the recovery probe must return the tier to service, the
// demoted files must be re-placed, and the final epoch must run at the
// cached-tier pace again — the full self-healing loop under the
// simulated cluster, not just unit-test backends.
func extResilience() Experiment {
	return Experiment{
		ID:    "ext-resilience",
		Title: "Extension — tier-0 failure mid-training (100 GiB, LeNet)",
		Paper: "implied by §III: the last level always holds the full dataset, so losing " +
			"every upper tier must degrade performance, not correctness",
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

			// runOnce trains for epochs epochs, breaking tier 0 at the end
			// of epoch breakAfter and repairing it at the end of epoch
			// fixAfter (0-based; -1 = never).
			runOnce := func(breakAfter, fixAfter, epochs int, seed uint64) (train.Result, core.Stats, error) {
				env := sim.NewEnv(seed)
				defer env.Close()
				pfs := storage.NewCounting(newLustre(env, man, p))
				cfg, err := simNode(env, p, pfs, "")
				if err != nil {
					return train.Result{}, core.Stats{}, err
				}
				faulty := storage.NewFaulty(cfg.Levels[0])
				cfg.Levels[0] = faulty
				cfg.Retry = core.RetryPolicy{
					MaxAttempts: 3,
					Backoff:     100 * time.Millisecond,
					// Back off in virtual time: retries run on SimPool
					// workers, whose contexts carry the sim process.
					Sleep: func(ctx context.Context, d time.Duration) {
						if proc, ok := sim.ProcFromContext(ctx); ok {
							proc.Sleep(d)
						}
					},
				}
				r, err := monarchRig(pfs, cfg)
				if err != nil {
					return train.Result{}, core.Stats{}, err
				}
				pp := p
				pp.Epochs = epochs
				res, err := r.train(env, mdl, man, pp, seed, func(_ *sim.Proc, epoch int) {
					if epoch == breakAfter {
						faulty.Break() // the SSD dies
					}
					if epoch == fixAfter {
						faulty.Fix() // the SSD is replaced
					}
				})
				if err != nil {
					return train.Result{}, core.Stats{}, err
				}
				return res, r.monarch.Stats(), nil
			}

			healthy, _, err := runOnce(-1, -1, p.Epochs, p.BaseSeed)
			if err != nil {
				return nil, err
			}
			broken, st, err := runOnce(0, -1, p.Epochs, p.BaseSeed)
			if err != nil {
				return nil, err
			}
			// Failure AND repair: one extra epoch to observe the recovered
			// pace (break after epoch 1, fix after epoch 2).
			recEpochs := p.Epochs + 1
			recovered, rst, err := runOnce(0, 1, recEpochs, p.BaseSeed)
			if err != nil {
				return nil, err
			}
			lustreAgg, err := run(VanillaLustre, "lenet", ds100, p)
			if err != nil {
				return nil, err
			}

			o := &Outcome{}
			t := report.NewTable("tier-0 failure after epoch 1 (single seed)",
				"run", "epoch 1", "epoch 2", "epoch 3", "total", "fallback reads")
			t.Add("healthy",
				report.Seconds(healthy.Epochs[0].Duration.Seconds()),
				report.Seconds(healthy.Epochs[1].Duration.Seconds()),
				report.Seconds(healthy.Epochs[2].Duration.Seconds()),
				report.Seconds(healthy.Total.Seconds()), "0")
			t.Add("ssd dies after epoch 1",
				report.Seconds(broken.Epochs[0].Duration.Seconds()),
				report.Seconds(broken.Epochs[1].Duration.Seconds()),
				report.Seconds(broken.Epochs[2].Duration.Seconds()),
				report.Seconds(broken.Total.Seconds()),
				report.Count(st.Fallbacks))
			o.Tables = append(o.Tables, t)

			t2 := report.NewTable("tier-0 failure after epoch 1, repaired after epoch 2 (single seed)",
				"run", "epoch 1", "epoch 2", "epoch 3", "epoch 4",
				"fallbacks", "demotions", "re-placed", "recoveries")
			t2.Add("fail + repair",
				report.Seconds(recovered.Epochs[0].Duration.Seconds()),
				report.Seconds(recovered.Epochs[1].Duration.Seconds()),
				report.Seconds(recovered.Epochs[2].Duration.Seconds()),
				report.Seconds(recovered.Epochs[3].Duration.Seconds()),
				report.Count(rst.Fallbacks),
				report.Count(rst.Demotions),
				report.Count(rst.Placements-int64(len(man.Shards))),
				report.Count(rst.TierRecoveries))
			o.Tables = append(o.Tables, t2)

			records := 0
			for _, e := range broken.Epochs {
				records += e.Records
			}
			o.check("training completes despite losing tier 0",
				records == man.NumRecords()*p.Epochs,
				"%d records delivered of %d", records, man.NumRecords()*p.Epochs)
			o.check("every post-failure read fell back to the PFS or was demoted",
				st.Fallbacks > 0 && st.Demotions > 0,
				"%d fallbacks, %d demotions", st.Fallbacks, st.Demotions)
			// The degraded pace is vanilla-lustre's, which under
			// interference has wide per-seed spread: accept anything
			// clearly slower than healthy and no slower than lustre's
			// observed range.
			o.check("post-failure epochs degrade toward vanilla-lustre pace",
				broken.Epochs[2].Duration.Seconds() > 1.2*healthy.Epochs[2].Duration.Seconds() &&
					broken.Epochs[2].Duration.Seconds() < 1.6*lustreAgg.EpochTime[2].Mean()+lustreAgg.EpochTime[2].StdDev()*3,
				"broken epoch 3 %.1f vs healthy %.1f vs lustre %.1f ± %.1f",
				broken.Epochs[2].Duration.Seconds(), healthy.Epochs[2].Duration.Seconds(),
				lustreAgg.EpochTime[2].Mean(), lustreAgg.EpochTime[2].StdDev())

			// Recovery scenario checks: the full self-healing loop.
			recRecords := 0
			for _, e := range recovered.Epochs {
				recRecords += e.Records
			}
			o.check("training completes through failure and repair",
				recRecords == man.NumRecords()*recEpochs,
				"%d records delivered of %d", recRecords, man.NumRecords()*recEpochs)
			o.check("breaker trips on the dead tier and reopens it after repair",
				rst.TierTrips >= 1 && rst.TierRecoveries >= 1 && rst.Demotions > 0,
				"%d trips, %d recoveries, %d demotions", rst.TierTrips, rst.TierRecoveries, rst.Demotions)
			o.check("demoted files are re-placed after repair",
				rst.Placements > int64(len(man.Shards)),
				"%d placements for %d shards", rst.Placements, len(man.Shards))
			o.check("the epoch after failure degrades toward vanilla-lustre pace",
				recovered.Epochs[1].Duration.Seconds() > 1.2*healthy.Epochs[1].Duration.Seconds(),
				"degraded epoch 2 %.1f vs healthy %.1f",
				recovered.Epochs[1].Duration.Seconds(), healthy.Epochs[1].Duration.Seconds())
			o.check("the final epoch recovers the cached-tier pace",
				recovered.Epochs[3].Duration.Seconds() < 0.8*recovered.Epochs[1].Duration.Seconds(),
				"recovered epoch 4 %.1f vs degraded epoch 2 %.1f (healthy %.1f)",
				recovered.Epochs[3].Duration.Seconds(), recovered.Epochs[1].Duration.Seconds(),
				healthy.Epochs[2].Duration.Seconds())
			return o, nil
		},
	}
}
