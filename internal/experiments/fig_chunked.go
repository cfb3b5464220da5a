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

// firstHitSource wraps the middleware as a pipeline source and records
// the virtual time of the first read served from an upper tier — the
// "time to first local hit" that chunked placement is built to shrink.
// The stats snapshot is only taken until the first hit is found, so the
// wrapper adds no steady-state cost.
type firstHitSource struct {
	m        *core.Monarch
	env      *sim.Env
	start    sim.Time
	found    bool
	firstHit time.Duration
}

func (s *firstHitSource) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	n, err := s.m.ReadAt(ctx, name, p, off)
	if err == nil && !s.found {
		st := s.m.Stats()
		var upper int64
		for i := 0; i < len(st.ReadsServed)-1; i++ {
			upper += st.ReadsServed[i]
		}
		if upper > 0 {
			s.found = true
			s.firstHit = (s.env.Now() - s.start).Duration()
		}
	}
	return n, err
}

// extChunked compares the paper's whole-file placement against the
// chunked copy (Config.ChunkSize) on the 100 GiB dataset: with
// whole-file copies a shard contributes zero fast-tier hits until its
// entire copy lands — exactly when the loaded PFS is slowest — while
// chunked placement serves already-copied ranges mid-copy, so the
// first epoch starts hitting the SSD while staging is still in flight.
func extChunked() Experiment {
	return Experiment{
		ID:    "ext-chunked",
		Title: "Extension — chunked placement: time to first local hit (100 GiB, LeNet)",
		Paper: "beyond §III-A: the paper's placement handler copies whole files, so early-epoch " +
			"reads see no fast-tier hits until entire shards land; chunk-striped staging " +
			"(Hoard-style) serves cached ranges while the copy is in flight",
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

			// runOnce trains with the given placement chunk size (0 =
			// whole-file) and reports the run, the middleware counters,
			// and the time of the first upper-tier hit.
			runOnce := func(chunkSize int64, seed uint64) (train.Result, core.Stats, time.Duration, error) {
				env := sim.NewEnv(seed)
				defer env.Close()
				pfs := storage.NewCounting(newLustre(env, man, p))
				cfg, err := simNode(env, p, pfs, "")
				if err != nil {
					return train.Result{}, core.Stats{}, 0, err
				}
				cfg.ChunkSize = chunkSize
				r, err := monarchRig(pfs, cfg)
				if err != nil {
					return train.Result{}, core.Stats{}, 0, err
				}
				probe := &firstHitSource{m: r.monarch, env: env}
				r.source = probe
				init := r.init
				r.init = func(ctx context.Context) error {
					err := init(ctx)
					probe.start = env.Now()
					return err
				}
				res, err := r.train(env, mdl, man, p, seed, nil)
				if err != nil {
					return train.Result{}, core.Stats{}, 0, err
				}
				return res, r.monarch.Stats(), probe.firstHit, nil
			}

			whole, wst, wholeHit, err := runOnce(0, p.BaseSeed)
			if err != nil {
				return nil, err
			}
			chunked, cst, chunkedHit, err := runOnce(p.CopyChunk, p.BaseSeed)
			if err != nil {
				return nil, err
			}

			o := &Outcome{}
			t := report.NewTable("whole-file vs chunked placement (single seed)",
				"placement", "first local hit", "epoch 1", "total",
				"partial hits", "partial-hit bytes", "chunks placed")
			t.Add("whole-file",
				report.Seconds(wholeHit.Seconds()),
				report.Seconds(whole.Epochs[0].Duration.Seconds()),
				report.Seconds(whole.Total.Seconds()),
				report.Count(wst.PartialHits),
				GiB(float64(wst.PartialHitBytes)),
				report.Count(wst.ChunkPlacements))
			t.Add("chunked",
				report.Seconds(chunkedHit.Seconds()),
				report.Seconds(chunked.Epochs[0].Duration.Seconds()),
				report.Seconds(chunked.Total.Seconds()),
				report.Count(cst.PartialHits),
				GiB(float64(cst.PartialHitBytes)),
				report.Count(cst.ChunkPlacements))
			o.Tables = append(o.Tables, t)

			records := 0
			for _, e := range chunked.Epochs {
				records += e.Records
			}
			o.check("chunked run delivers every record",
				records == man.NumRecords()*p.Epochs,
				"%d records delivered of %d", records, man.NumRecords()*p.Epochs)
			o.check("chunked placement serves partial hits mid-copy",
				cst.PartialHits > 0 && cst.ChunkPlacements > 0,
				"%d partial hits over %d chunks", cst.PartialHits, cst.ChunkPlacements)
			o.check("whole-file mode stays chunk-free (paper-faithful default)",
				wst.PartialHits == 0 && wst.ChunkPlacements == 0,
				"%d partial hits, %d chunks", wst.PartialHits, wst.ChunkPlacements)
			o.check("first local hit arrives earlier with chunked placement",
				chunkedHit < wholeHit,
				"chunked %.2fs vs whole-file %.2fs", chunkedHit.Seconds(), wholeHit.Seconds())
			o.check("both modes place the same data",
				cst.PlacedBytes == wst.PlacedBytes,
				"chunked %d B vs whole-file %d B", cst.PlacedBytes, wst.PlacedBytes)
			return o, nil
		},
	}
}
