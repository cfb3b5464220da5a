package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// HeatConfig tunes the heat-driven eviction/admission engine.
type HeatConfig struct {
	// HalfLifeEpochs is the number of epochs over which a file's heat
	// decays to half if it is never read again. Zero means 1.
	HalfLifeEpochs float64
	// AdmitMargin is the hysteresis factor guarding admission: a
	// candidate may displace a placed victim only when the candidate's
	// heat exceeds the victim's by this factor. Values <= 1 are clamped
	// to the default 1.25. The margin is what makes the engine degrade
	// to the paper's no-eviction behaviour under single-job uniform
	// access — every file's heat converges to the same value, nothing
	// clears the margin, and the tier contents freeze instead of
	// thrashing (§III-A).
	AdmitMargin float64
}

func (c HeatConfig) halfLife() float64 {
	if c.HalfLifeEpochs <= 0 {
		return 1
	}
	return c.HalfLifeEpochs
}

func (c HeatConfig) margin() float64 {
	if c.AdmitMargin <= 1 {
		return 1.25
	}
	return c.AdmitMargin
}

// HeatPolicy is the real policy engine behind multi-job tenancy: the
// online form of the per-epoch read heatmaps the trace analyzer derives
// offline (analyze.HeatScore uses the same exponential decay). Every
// read adds one unit of heat to its file; heat halves every
// HalfLifeEpochs epochs (advanced by Monarch.MarkEpoch). Under tier
// pressure the engine evicts the coldest placed file, but only when the
// incoming file is hotter by AdmitMargin — or when per-job quota shares
// entitle an under-share job to reclaim space from a job borrowing
// beyond its share (work-conserving borrowing: free space is always
// usable by anyone). Victim contests compare heat as of the last
// completed epoch, never the epoch in progress, so placement decisions
// are driven by the same per-epoch heatmaps the analyzer derives
// offline rather than by intra-epoch read order.
//
// HeatPolicy implements EvictionPolicy and is safe for concurrent use.
// Reads touch one RWMutex read-lock plus per-entry atomics; only victim
// selection and epoch advancement take the write lock.
type HeatPolicy struct {
	cfg   HeatConfig
	epoch atomic.Int64

	// tenants is the owning instance's quota table, bound by New when
	// Config.Tenants is set; nil means pure heat-based admission.
	tenants *tenantTable

	mu     sync.RWMutex
	files  map[string]*heatEntry
	placed map[int]map[string]*heatEntry // level → files resident there
}

// heatEntry is one file's decayed access temperature. prevBits holds
// the float64 bits of the heat accumulated through the last completed
// epoch (as of lastEpoch); cur counts the reads of the epoch in
// progress. Both fold forward lazily so AdvanceEpoch is O(1). Victim
// contests compare prev only — epoch-boundary heat — so that read
// order within an epoch cannot make a scan's tail look colder than
// its head and trigger churn mid-epoch.
type heatEntry struct {
	name         string
	prevBits     atomic.Uint64
	cur          atomic.Int64
	lastEpoch    atomic.Int64
	promoteEpoch atomic.Int64 // last epoch a promotion check ran (rate limit)
	foldMu       sync.Mutex   // serialises epoch folds; reads stay lock-free
}

// NewHeatPolicy returns a heat-driven eviction/admission engine.
func NewHeatPolicy(cfg HeatConfig) *HeatPolicy {
	return &HeatPolicy{
		cfg:    cfg,
		files:  make(map[string]*heatEntry),
		placed: make(map[int]map[string]*heatEntry),
	}
}

// bindTenancy wires the instance's quota table in; called by New.
func (p *HeatPolicy) bindTenancy(t *tenantTable) { p.tenants = t }

// Name implements EvictionPolicy.
func (p *HeatPolicy) Name() string { return "heat" }

// decayFactor returns the multiplier that ages heat across d epochs.
func (p *HeatPolicy) decayFactor(d int64) float64 {
	if d <= 0 {
		return 1
	}
	return math.Exp2(-float64(d) / p.cfg.halfLife())
}

// fold rolls e's current-epoch reads into its decayed accumulation,
// bringing it up to epoch now. Concurrent folds serialise on foldMu;
// readers racing a fold may see the pre- or post-fold view of one
// epoch's reads, which only shifts one contest by one decay factor.
func (p *HeatPolicy) fold(e *heatEntry, now int64) {
	e.foldMu.Lock()
	defer e.foldMu.Unlock()
	last := e.lastEpoch.Load()
	if last >= now {
		return
	}
	h := (math.Float64frombits(e.prevBits.Load()) + float64(e.cur.Load())) * p.decayFactor(now-last)
	e.prevBits.Store(math.Float64bits(h))
	e.cur.Store(0)
	e.lastEpoch.Store(now)
}

// heatOf returns e's total heat as of the current epoch, including the
// epoch in progress — the analyzer's HeatScore form, h·decay + reads.
func (p *HeatPolicy) heatOf(e *heatEntry) float64 {
	now := p.epoch.Load()
	last := e.lastEpoch.Load()
	h := math.Float64frombits(e.prevBits.Load()) + float64(e.cur.Load())
	if last == now {
		return h
	}
	return h * p.decayFactor(now-last)
}

// boundaryOf returns e's heat as of the last completed epoch: the
// epoch in progress contributes nothing. All victim contests use this
// view, so within one epoch every file's standing is frozen — a
// uniform scan cannot evict its own not-yet-read tail no matter the
// read order, which is what lets the engine degrade to the paper's
// no-eviction behaviour (§III-A).
func (p *HeatPolicy) boundaryOf(e *heatEntry) float64 {
	now := p.epoch.Load()
	last := e.lastEpoch.Load()
	if last == now {
		return math.Float64frombits(e.prevBits.Load())
	}
	return (math.Float64frombits(e.prevBits.Load()) + float64(e.cur.Load())) * p.decayFactor(now-last)
}

// bump folds e forward to the current epoch and adds one access.
func (p *HeatPolicy) bump(e *heatEntry) {
	now := p.epoch.Load()
	if e.lastEpoch.Load() != now {
		p.fold(e, now)
	}
	e.cur.Add(1)
}

// entry returns the heat record for name, creating it on first touch.
func (p *HeatPolicy) entry(name string) *heatEntry {
	p.mu.RLock()
	e := p.files[name]
	p.mu.RUnlock()
	if e != nil {
		return e
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e = p.files[name]; e == nil {
		e = &heatEntry{name: name}
		e.promoteEpoch.Store(-1)
		p.files[name] = e
	}
	return e
}

// OnAccess implements EvictionPolicy: one read adds one unit of heat.
func (p *HeatPolicy) OnAccess(name string) { p.bump(p.entry(name)) }

// OnPlaced implements EvictionPolicy.
func (p *HeatPolicy) OnPlaced(name string, level int) {
	e := p.entry(name)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, lv := range p.placed {
		delete(lv, name)
	}
	lv := p.placed[level]
	if lv == nil {
		lv = make(map[string]*heatEntry)
		p.placed[level] = lv
	}
	lv[name] = e
}

// OnEvicted implements EvictionPolicy: the file leaves its tier but
// keeps its heat history, so re-admission decisions see its past.
func (p *HeatPolicy) OnEvicted(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, lv := range p.placed {
		delete(lv, name)
	}
}

// AdvanceEpoch moves the decay clock one epoch forward; entries fold
// their heat lazily on next touch. Monarch.MarkEpoch calls this.
func (p *HeatPolicy) AdvanceEpoch() { p.epoch.Add(1) }

// Epoch returns the current decay epoch.
func (p *HeatPolicy) Epoch() int64 { return p.epoch.Load() }

// Heat returns name's current (decayed) heat; zero for untouched files.
func (p *HeatPolicy) Heat(name string) float64 {
	p.mu.RLock()
	e := p.files[name]
	p.mu.RUnlock()
	if e == nil {
		return 0
	}
	return p.heatOf(e)
}

// coldest scans level's residents for eviction victims by
// epoch-boundary heat; skip is never considered. cold is the coldest
// entry eligible as a heat-contest victim for a candidate owned by
// candJob: when quota shares are declared, files of other jobs still
// within their guaranteed share are off limits — a job's guarantee
// shields its residents from hotter tenants, not just from reclaim.
// coldOver is the coldest entry whose job borrows beyond its own
// share, the quota-reclaim arm's pick.
func (p *HeatPolicy) coldest(level int, skip, candJob string) (cold, coldOver *heatEntry, coldHeat, coldOverHeat float64) {
	for name, e := range p.placed[level] {
		if name == skip {
			continue
		}
		h := p.boundaryOf(e)
		over := p.tenants != nil && p.tenants.overShare(p.tenants.job(name), level)
		if p.tenants == nil || over || p.tenants.job(name) == candJob {
			if cold == nil || h < coldHeat {
				cold, coldHeat = e, h
			}
		}
		if over {
			if coldOver == nil || h < coldOverHeat {
				coldOver, coldOverHeat = e, h
			}
		}
	}
	return
}

// Victim implements EvictionPolicy with admission in view: it proposes
// a file to evict from level to make room for candidate, or ok=false
// when the candidate does not justify evicting anything (the placement
// then falls through to lower tiers or is skipped, exactly like a full
// tier under the paper's policy).
//
// Order of preference:
//  1. quota reclaim — when the candidate's job is under its guaranteed
//     share of level and another job is borrowing beyond its own share,
//     the borrower's coldest file goes, no heat contest required;
//  2. heat admission — the coldest eligible file on level goes, but
//     only when the candidate's heat beats it by AdmitMargin. Files of
//     other jobs still within their guaranteed share are never
//     eligible: a guarantee shields residents from hotter tenants.
//
// Both arms compare epoch-boundary heat (completed epochs only), so
// reads of the epoch in progress create no eviction pressure and a
// scan's read order cannot churn the tier mid-epoch.
func (p *HeatPolicy) Victim(candidate string, level int) (string, bool) {
	var job string
	if p.tenants != nil {
		job = p.tenants.job(candidate)
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	var candHeat float64
	if ce := p.files[candidate]; ce != nil {
		candHeat = p.boundaryOf(ce)
	}
	cold, coldOver, coldHeat, _ := p.coldest(level, candidate, job)
	if p.tenants != nil && coldOver != nil &&
		!p.tenants.overShare(job, level) && p.tenants.job(coldOver.name) != job {
		return coldOver.name, true
	}
	if cold != nil && candHeat > coldHeat*p.cfg.margin() {
		return cold.name, true
	}
	return "", false
}

// ShouldPromote reports whether an unplaceable file has become hot
// enough to re-enter the placement pipeline: some tier holds a file it
// would displace under Victim. Checks are rate-limited to once per
// file per epoch, so cold unplaceable files cost one atomic load per
// read.
func (p *HeatPolicy) ShouldPromote(name string) bool {
	e := p.entry(name)
	now := p.epoch.Load()
	last := e.promoteEpoch.Load()
	if last == now || !e.promoteEpoch.CompareAndSwap(last, now) {
		return false
	}
	p.mu.RLock()
	levels := make([]int, 0, len(p.placed))
	for lvl := range p.placed {
		levels = append(levels, lvl)
	}
	p.mu.RUnlock()
	for _, lvl := range levels {
		if _, ok := p.Victim(name, lvl); ok {
			return true
		}
	}
	return false
}

// heatState is one file's serialisable heat record, exchanged with the
// write journal so victim standing survives daemon restarts.
type heatState struct {
	name      string
	prevBits  uint64 // float64 bits of the epoch-boundary accumulation
	cur       int64  // reads of the epoch in progress
	lastEpoch int64
}

// snapshotState captures the decay clock and every file's heat for
// persistence. The placed books are deliberately absent: they are
// rebuilt by OnPlaced as the next process re-places files, while heat
// is history no restart should forget.
func (p *HeatPolicy) snapshotState() (epoch int64, files []heatState) {
	epoch = p.epoch.Load()
	p.mu.RLock()
	defer p.mu.RUnlock()
	files = make([]heatState, 0, len(p.files))
	for name, e := range p.files {
		files = append(files, heatState{
			name:      name,
			prevBits:  e.prevBits.Load(),
			cur:       e.cur.Load(),
			lastEpoch: e.lastEpoch.Load(),
		})
	}
	return epoch, files
}

// restoreState reinstates a snapshot taken by snapshotState. Called
// before any access lands (Init, pre-List), so plain stores suffice.
func (p *HeatPolicy) restoreState(epoch int64, files []heatState) {
	p.epoch.Store(epoch)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range files {
		e := p.files[s.name]
		if e == nil {
			e = &heatEntry{name: s.name}
			e.promoteEpoch.Store(-1)
			p.files[s.name] = e
		}
		e.prevBits.Store(s.prevBits)
		e.cur.Store(s.cur)
		e.lastEpoch.Store(s.lastEpoch)
	}
}

// promoter is the optional EvictionPolicy extension consulted on reads
// of unplaceable files; see HeatPolicy.ShouldPromote.
type promoter interface {
	ShouldPromote(name string) bool
}

// epochAdvancer is the optional EvictionPolicy extension driven by
// Monarch.MarkEpoch.
type epochAdvancer interface {
	AdvanceEpoch()
}

// tenancyBinder is the optional EvictionPolicy extension New uses to
// wire the instance's quota table into the policy.
type tenancyBinder interface {
	bindTenancy(t *tenantTable)
}
