package experiments

import (
	"context"
	"fmt"
	"time"

	"monarch/internal/core"
	"monarch/internal/pool"
	"monarch/internal/report"
	"monarch/internal/storage"
)

// tenancyResult is one policy configuration's outcome in the
// ext-tenancy duel.
type tenancyResult struct {
	stats   core.Stats
	pfsOps  int64
	hitRate float64 // combined across both jobs
}

// runTenancy drives the two-job contention workload against one SSD
// tier over real backends (MemFS + goroutine pool, no simulator):
//
//   - jobA: 64 cold shards, scanned once per epoch — the paper's
//     uniform access pattern.
//   - jobB: 16 hot shards, read four times per epoch — a skewed
//     fine-tuning-style job that arrives at epoch 2, after jobA's
//     first scan has already filled the tier.
//
// The tier holds 40 of the 80 shards. With no eviction, whatever
// jobA's first scan placed stays resident forever and the late hot job
// is starved. The heat engine must reclaim the borrower's cold shards
// (quota shares put each job's guarantee at half the tier) and keep
// the hot set resident. Reads are serialized against the placement
// pool so eviction decisions are reproducible, mirroring the
// abl-eviction methodology.
func runTenancy(policy core.EvictionPolicy, shares bool) (tenancyResult, error) {
	const (
		coldFiles = 64
		hotFiles  = 16
		fileSize  = 4096
		tierCap   = 40 * fileSize
		epochs    = 6
	)
	ctx := context.Background()
	pfsRaw := storage.NewMemFS("lustre", 0)
	for i := 0; i < coldFiles; i++ {
		if err := pfsRaw.WriteFile(ctx, fmt.Sprintf("jobA/f%02d", i), make([]byte, fileSize)); err != nil {
			return tenancyResult{}, err
		}
	}
	for i := 0; i < hotFiles; i++ {
		if err := pfsRaw.WriteFile(ctx, fmt.Sprintf("jobB/f%02d", i), make([]byte, fileSize)); err != nil {
			return tenancyResult{}, err
		}
	}
	pfsRaw.SetReadOnly(true)
	pfs := storage.NewCounting(pfsRaw)
	cfg := core.Config{
		Levels:        []storage.Backend{storage.NewMemFS("ssd", tierCap), pfs},
		Pool:          pool.NewGoPool(2),
		FullFileFetch: true,
		Eviction:      policy,
		// Namespace attribution is on for every run so the per-job
		// fairness counters are comparable; only the heat run declares
		// guaranteed shares.
		JobOf: core.JobFromPath,
	}
	if shares {
		cfg.Tenants = []core.TenantConfig{{Job: "jobA", Share: 0.5}, {Job: "jobB", Share: 0.5}}
	}
	m, err := core.New(cfg)
	if err != nil {
		return tenancyResult{}, err
	}
	defer m.Close()
	if err := m.Init(ctx); err != nil {
		return tenancyResult{}, err
	}

	buf := make([]byte, fileSize)
	read := func(name string) error {
		if _, err := m.ReadAt(ctx, name, buf, 0); err != nil {
			return fmt.Errorf("read %s: %w", name, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for !m.Idle() {
			if time.Now().After(deadline) {
				return fmt.Errorf("placement pool did not quiesce after %s", name)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	for epoch := 1; epoch <= epochs; epoch++ {
		for i := 0; i < coldFiles; i++ {
			if err := read(fmt.Sprintf("jobA/f%02d", i)); err != nil {
				return tenancyResult{}, err
			}
			// The hot job interleaves four passes over its shards with
			// jobA's scan, starting at epoch 2.
			if epoch >= 2 {
				if err := read(fmt.Sprintf("jobB/f%02d", i%hotFiles)); err != nil {
					return tenancyResult{}, err
				}
			}
		}
		m.MarkEpoch(epoch)
	}

	st := m.Stats()
	var reads, hits int64
	for lvl, n := range st.ReadsServed {
		reads += n
		if lvl != len(st.ReadsServed)-1 {
			hits += n
		}
	}
	res := tenancyResult{stats: st, pfsOps: pfs.Counts().Ops[storage.OpRead]}
	if reads > 0 {
		res.hitRate = float64(hits) / float64(reads)
	}
	return res, nil
}

// extTenancy is the multi-tenant duel behind DESIGN.md §12: two jobs
// with skewed access competing for one SSD tier, no-eviction vs LRU vs
// the heat engine with per-job quota shares.
func extTenancy() Experiment {
	return Experiment{
		ID:    "ext-tenancy",
		Title: "Extension — multi-tenant tiering: heat-driven eviction vs the paper's no-eviction stance",
		Paper: "beyond §III-A: the paper's no-eviction argument assumes one job with uniform " +
			"once-per-epoch access; with a second, skewed job sharing the tier, static " +
			"placement starves the late arrival (cf. Herodotou's tiered-storage automation " +
			"and Pangea's heat-based placement), while heat-driven eviction with per-job " +
			"quota shares keeps the hot set resident without churning the cold scan",
		Run: func(p Params) (*Outcome, error) {
			none, err := runTenancy(nil, false)
			if err != nil {
				return nil, err
			}
			lru, err := runTenancy(core.NewLRU(), false)
			if err != nil {
				return nil, err
			}
			heat, err := runTenancy(core.NewHeatPolicy(), true)
			if err != nil {
				return nil, err
			}

			o := &Outcome{}
			tbl := report.NewTable("two jobs, one SSD tier (jobA: 64 cold shards 1x/epoch; jobB: 16 hot shards 4x/epoch from epoch 2; tier holds 40 of 80)",
				"policy", "hit ratio", "jobA hits", "jobB hits", "evictions", "promotions", "PFS reads")
			for _, row := range []struct {
				name string
				r    tenancyResult
			}{{"no eviction (paper)", none}, {"lru (ablation)", lru}, {"heat + quotas", heat}} {
				ja, jb := row.r.stats.Jobs["jobA"], row.r.stats.Jobs["jobB"]
				tbl.Add(row.name,
					report.Percent(row.r.hitRate),
					report.Count(ja.Hits),
					report.Count(jb.Hits),
					report.Count(row.r.stats.Evictions),
					report.Count(row.r.stats.Promotions),
					report.Count(row.r.pfsOps))
			}
			o.Tables = append(o.Tables, tbl)

			o.check("heat-driven policy beats no-eviction on combined hit ratio",
				heat.hitRate > none.hitRate,
				"heat %.1f%% vs no-eviction %.1f%%", 100*heat.hitRate, 100*none.hitRate)
			o.check("no-eviction starves the late-arriving hot job",
				none.stats.Evictions == 0 && none.stats.Jobs["jobB"].Hits == 0,
				"%d evictions, %d jobB hits", none.stats.Evictions, none.stats.Jobs["jobB"].Hits)
			o.check("heat engine serves the hot job from the fast tier",
				heat.stats.Jobs["jobB"].HitRatio() > 0.8,
				"jobB hit ratio %.1f%%", 100*heat.stats.Jobs["jobB"].HitRatio())
			o.check("quota reclaim charges the over-share borrower, not the hot job",
				heat.stats.Jobs["jobA"].Evictions > 0 && heat.stats.Jobs["jobB"].Evictions == 0,
				"jobA evicted %d times, jobB %d", heat.stats.Jobs["jobA"].Evictions, heat.stats.Jobs["jobB"].Evictions)
			o.check("margin keeps the cold scan's residual share resident (no LRU-style churn)",
				heat.stats.Jobs["jobA"].Hits > 0 && heat.stats.Evictions < lru.stats.Evictions,
				"jobA hits %d; heat evicted %d vs LRU %d",
				heat.stats.Jobs["jobA"].Hits, heat.stats.Evictions, lru.stats.Evictions)
			return o, nil
		},
	}
}
