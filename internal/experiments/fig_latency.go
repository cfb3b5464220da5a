package experiments

import (
	"context"
	"fmt"

	"monarch/internal/dataset"
	"monarch/internal/models"
	"monarch/internal/pipeline"
	"monarch/internal/report"
	"monarch/internal/sim"
	"monarch/internal/stats"
)

// latencySource wraps a pipeline source and samples the virtual-time
// latency of every ReadAt the framework issues — the end-to-end view of
// what tiering does to individual preads.
type latencySource struct {
	inner   pipeline.Source
	env     *sim.Env
	samples []float64 // seconds
}

func (l *latencySource) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	start := l.env.Now()
	n, err := l.inner.ReadAt(ctx, name, p, off)
	l.samples = append(l.samples, (l.env.Now() - start).Seconds())
	return n, err
}

// tabLatency reports per-pread latency percentiles for vanilla-lustre
// vs MONARCH. It makes the mechanism behind Figures 3/4 visible at the
// operation level: after placement, the median read no longer pays the
// PFS round-trip, and the tail shrinks because the noisy shared device
// has left the critical path.
func tabLatency() Experiment {
	return Experiment{
		ID:    "tab-latency",
		Title: "Diagnostic — per-pread latency distribution (100 GiB, LeNet, one seed)",
		Paper: "implied by §II/§IV: lower and steadier per-request latency is where the " +
			"epoch-time and variability improvements come from",
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
			runOnce := func(setup Setup) (all, steady stats.Summary, err error) {
				env := sim.NewEnv(p.BaseSeed)
				defer env.Close()
				r, err := buildRig(env, setup, man, p)
				if err != nil {
					return all, steady, err
				}
				ls := &latencySource{inner: r.source, env: env}
				r.source = ls
				var epoch1Ops int
				_, err = r.train(env, mdl, man, p, p.BaseSeed, func(_ *sim.Proc, epoch int) {
					if epoch == 0 {
						epoch1Ops = len(ls.samples)
					}
				})
				if err != nil {
					return all, steady, err
				}
				return stats.Summarize(ls.samples), stats.Summarize(ls.samples[epoch1Ops:]), nil
			}

			vAll, vSteady, err := runOnce(VanillaLustre)
			if err != nil {
				return nil, err
			}
			mAll, mSteady, err := runOnce(Monarch)
			if err != nil {
				return nil, err
			}

			o := &Outcome{}
			t := report.NewTable("per-pread latency (ms)",
				"setup", "window", "p50", "p90", "p99", "max", "ops")
			add := func(setup, window string, s stats.Summary) {
				t.Add(setup, window,
					fmt.Sprintf("%.2f", s.P50*1e3), fmt.Sprintf("%.2f", s.P90*1e3),
					fmt.Sprintf("%.2f", s.P99*1e3), fmt.Sprintf("%.1f", s.Max*1e3),
					report.Count(int64(s.N)))
			}
			add("vanilla-lustre", "all epochs", vAll)
			add("vanilla-lustre", "epochs 2+", vSteady)
			add("monarch", "all epochs", mAll)
			add("monarch", "epochs 2+", mSteady)
			o.Tables = append(o.Tables, t)

			// The vanilla median is queueing-dependent and varies with
			// the interference draw; require a clear drop, not a fixed
			// ratio.
			o.check("steady-state median latency drops with MONARCH",
				mSteady.P50 < 0.85*vSteady.P50,
				"monarch p50 %.2f ms vs vanilla %.2f ms", mSteady.P50*1e3, vSteady.P50*1e3)
			o.check("steady-state tail latency drops with MONARCH",
				mSteady.P99 < vSteady.P99,
				"monarch p99 %.2f ms vs vanilla %.2f ms", mSteady.P99*1e3, vSteady.P99*1e3)
			o.check("both setups issue the same logical preads",
				within(float64(mAll.N), float64(vAll.N), 0.01),
				"monarch %d vs vanilla %d ops", mAll.N, vAll.N)
			return o, nil
		},
	}
}
