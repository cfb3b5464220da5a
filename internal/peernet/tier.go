package peernet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"monarch/internal/obs"
	"monarch/internal/storage"
)

// Tier aggregates the peer clients of one node into a single
// storage.Backend that slots into the MONARCH hierarchy between local
// SSD and the PFS. Reads route to the replica set of the requested
// name on the consistent-hash ring, in ring order: if the primary
// fails, the next replica is tried before the error ever reaches the
// middleware — a killed primary costs a tier-internal retry, not a
// PFS fallback. A Membership view (optional) filters replicas by
// liveness so dead peers are skipped without burning a dial timeout,
// and a HedgeConfig (optional) races a second replica when the
// primary's response blows past its adaptive latency threshold.
//
// A Tier is deliberately hostile to placement: Capacity()==Used()==1
// makes storage.Free report zero, so the placement handler skips it as
// a destination without any peer-specific logic in core. Mutations
// return ErrReadOnly for the same reason.
type Tier struct {
	name       string
	self       string
	ring       *Ring
	clients    map[string]*Client
	replicas   int
	membership *Membership
	hedge      HedgeConfig

	hedges    atomic.Int64 // hedge requests launched
	hedgeWins atomic.Int64 // hedges whose result served the read
}

// HedgeConfig tunes hedged reads. The zero value disables them.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// Quantile of the primary's latency distribution that arms the
	// hedge timer (default 0.99).
	Quantile float64
	// MinSamples is how many round trips the primary must have served
	// before the quantile is trusted; below it no hedge fires
	// (default 32).
	MinSamples int
	// Floor is the minimum hedge delay, so a peer whose p99 is
	// microseconds does not hedge on scheduler noise (default 1ms).
	Floor time.Duration
}

// TierConfig assembles a Tier.
type TierConfig struct {
	// Name is the backend name ("peers" when empty).
	Name string
	// Self is this node's ring ID.
	Self string
	// Ring is the cluster's ownership ring.
	Ring *Ring
	// Clients holds one client per *other* ring member.
	Clients map[string]*Client
	// Replicas is the replica-set width R (default 1: primary only).
	Replicas int
	// Membership, when set, filters replicas by liveness: Dead peers
	// are skipped (tried only if every replica is Dead — the view may
	// be stale), and Ping requires only live peers to answer.
	Membership *Membership
	// Hedge tunes hedged reads against slow primaries.
	Hedge HedgeConfig
}

// NewTier builds a single-replica peer tier — the pre-replication
// shape, kept for callers that want the minimal wiring.
func NewTier(name, self string, ring *Ring, clients map[string]*Client) (*Tier, error) {
	return NewTierWithConfig(TierConfig{Name: name, Self: self, Ring: ring, Clients: clients})
}

// NewTierWithConfig validates cfg, applies defaults and builds a Tier.
func NewTierWithConfig(cfg TierConfig) (*Tier, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("peernet: tier needs a ring")
	}
	found := false
	for _, n := range cfg.Ring.Nodes() {
		if n == cfg.Self {
			found = true
			continue
		}
		if cfg.Clients[n] == nil {
			return nil, fmt.Errorf("peernet: tier missing a client for ring member %q", n)
		}
	}
	if !found {
		return nil, fmt.Errorf("peernet: node %q is not a ring member", cfg.Self)
	}
	if cfg.Name == "" {
		cfg.Name = "peers"
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(cfg.Ring.Nodes()) {
		return nil, fmt.Errorf("peernet: %d replicas exceed the %d ring members",
			cfg.Replicas, len(cfg.Ring.Nodes()))
	}
	if cfg.Hedge.Quantile <= 0 || cfg.Hedge.Quantile >= 1 {
		cfg.Hedge.Quantile = 0.99
	}
	if cfg.Hedge.MinSamples <= 0 {
		cfg.Hedge.MinSamples = 32
	}
	if cfg.Hedge.Floor <= 0 {
		cfg.Hedge.Floor = time.Millisecond
	}
	return &Tier{
		name:       cfg.Name,
		self:       cfg.Self,
		ring:       cfg.Ring,
		clients:    cfg.Clients,
		replicas:   cfg.Replicas,
		membership: cfg.Membership,
		hedge:      cfg.Hedge,
	}, nil
}

// Name implements storage.Backend.
func (t *Tier) Name() string { return t.name }

// candidate is one routable replica.
type candidate struct {
	node string
	c    *Client
}

// candidates resolves the replica set for name in try-order: replicas
// the membership view calls Alive first (ring order), then Suspect
// ones, with self excluded. Dead replicas are returned only when the
// whole set is Dead — the view can be stale, and trying is cheaper
// than declaring a miss on hearsay. An empty result means this node is
// the only replica. A one-replica tier tries its owner whatever the
// view says, and answers in buf: a read then allocates nothing here.
func (t *Tier) candidates(name string, buf []candidate) []candidate {
	if t.replicas == 1 {
		node := t.ring.Owner(name)
		if c := t.clients[node]; c != nil && node != t.self {
			buf = append(buf, candidate{node: node, c: c})
		}
		return buf
	}
	var live, suspect, dead []candidate
	for _, node := range t.ring.OwnersOf(name, t.replicas) {
		if node == t.self {
			continue
		}
		c := t.clients[node]
		if c == nil {
			continue
		}
		cand := candidate{node: node, c: c}
		if t.membership == nil {
			live = append(live, cand)
			continue
		}
		switch t.membership.State(node) {
		case PeerAlive:
			live = append(live, cand)
		case PeerSuspect:
			suspect = append(suspect, cand)
		default:
			dead = append(dead, cand)
		}
	}
	out := append(live, suspect...)
	if len(out) == 0 {
		out = dead
	}
	return out
}

// pickErr reduces the per-replica failures of one operation: a clean
// miss (every consulted replica definitively lacks the file) beats a
// transport error, so the middleware re-reads the source as a peer
// miss instead of tripping the breaker; but any hard failure without a
// miss propagates as one.
func pickErr(missErr, lastErr error) error {
	if missErr != nil {
		return missErr
	}
	return lastErr
}

// Stat implements storage.Backend, failing over across the replica
// set.
func (t *Tier) Stat(ctx context.Context, name string) (storage.FileInfo, error) {
	var one [1]candidate
	cands := t.candidates(name, one[:0])
	if len(cands) == 0 {
		return storage.FileInfo{}, fmt.Errorf("peernet: %q is owned locally: %w", name, storage.ErrNotExist)
	}
	var missErr, lastErr error
	for _, cand := range cands {
		fi, err := cand.c.Stat(ctx, name)
		if err == nil {
			return fi, nil
		}
		if errors.Is(err, storage.ErrNotExist) {
			missErr = err
		} else {
			lastErr = err
		}
		if ctx.Err() != nil {
			break
		}
	}
	return storage.FileInfo{}, pickErr(missErr, lastErr)
}

// ReadAt implements storage.Backend: the primary replica first (hedged
// against its own tail latency when configured), then the remaining
// replicas in ring order. A read that launched a hedge is flagged
// through the context's obs.ReadAnnotation, so the read span records it
// and the context is never recycled under the losing request.
func (t *Tier) ReadAt(ctx context.Context, name string, p []byte, off int64) (int, error) {
	var one [1]candidate
	cands := t.candidates(name, one[:0])
	if len(cands) == 0 {
		return 0, fmt.Errorf("peernet: %q is owned locally: %w", name, storage.ErrNotExist)
	}
	var missErr, lastErr error
	i := 0
	for i < len(cands) {
		var n int
		var err error
		if i == 0 && len(cands) > 1 {
			var consumed int
			n, err, consumed = t.hedgedRead(ctx, name, p, off, cands[0], cands[1])
			i += consumed
		} else {
			n, err = cands[i].c.ReadAt(ctx, name, p, off)
			i++
		}
		if err == nil {
			return n, nil
		}
		if errors.Is(err, storage.ErrNotExist) {
			missErr = err
		} else {
			lastErr = err
		}
		if ctx.Err() != nil {
			break
		}
	}
	return 0, pickErr(missErr, lastErr)
}

// hedgeThreshold returns the delay after which a read of c should be
// hedged, or 0 when hedging must not fire (disabled, or too few
// samples to trust the quantile).
func (t *Tier) hedgeThreshold(c *Client) time.Duration {
	if !t.hedge.Enabled {
		return 0
	}
	q, n := c.LatencyQuantile(t.hedge.Quantile)
	if n < uint64(t.hedge.MinSamples) {
		return 0
	}
	d := time.Duration(q * float64(time.Second))
	if d < t.hedge.Floor {
		d = t.hedge.Floor
	}
	return d
}

// hedgedRead reads from primary, racing backup if primary's response
// exceeds its adaptive threshold. Returns how many candidates were
// consumed (1: primary only, 2: hedge fired). The winner's bytes land
// in p; the loser is cancelled and its connection unblocked by the
// client's deadline watchdog.
func (t *Tier) hedgedRead(ctx context.Context, name string, p []byte, off int64, primary, backup candidate) (int, error, int) {
	threshold := t.hedgeThreshold(primary.c)
	if threshold <= 0 {
		n, err := primary.c.ReadAt(ctx, name, p, off)
		return n, err, 1
	}

	type result struct {
		n   int
		err error
	}
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	pch := make(chan result, 1)
	go func() {
		n, err := primary.c.ReadAt(pctx, name, p, off)
		pch <- result{n, err}
	}()

	timer := time.NewTimer(threshold)
	defer timer.Stop()
	select {
	case r := <-pch:
		return r.n, r.err, 1
	case <-timer.C:
	}

	// The primary is past its p99: race the next replica. It reads
	// into a private buffer so the two writers never share p. It may
	// outlive this read, still walking ctx, so the flag that keeps the
	// read's annotation out of the pool goes on before it starts.
	t.hedges.Add(1)
	obs.ReadAnnotationFrom(ctx).Annotate(obs.FlagHedged)
	bctx, bcancel := context.WithCancel(ctx)
	defer bcancel()
	bbuf := make([]byte, len(p))
	bch := make(chan result, 1)
	go func() {
		n, err := backup.c.ReadAt(bctx, name, bbuf, off)
		bch <- result{n, err}
	}()

	var pres, bres *result
	for {
		select {
		case r := <-pch:
			pres = &r
			if r.err == nil {
				bcancel() // loser keeps writing only its own buffer
				return r.n, nil, 2
			}
		case r := <-bch:
			bres = &r
			if r.err == nil {
				pcancel()
				if pres == nil {
					// The primary writes the caller's buffer; it must
					// finish (promptly, its deadline is now forced)
					// before the winner's bytes overwrite it.
					<-pch
				}
				copy(p, bbuf[:r.n])
				t.hedgeWins.Add(1)
				return r.n, nil, 2
			}
		}
		if pres != nil && bres != nil {
			if errors.Is(pres.err, storage.ErrNotExist) {
				return 0, pres.err, 2
			}
			if errors.Is(bres.err, storage.ErrNotExist) {
				return 0, bres.err, 2
			}
			return 0, pres.err, 2
		}
	}
}

// ReadFile implements storage.Backend through the tier's own Stat and
// ReadAt, so it inherits replica failover and hedging.
func (t *Tier) ReadFile(ctx context.Context, name string) ([]byte, error) {
	fi, err := t.Stat(ctx, name)
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size)
	n, err := t.ReadAt(ctx, name, data, 0)
	if err != nil {
		return nil, err
	}
	return data[:n], nil
}

// List implements storage.Backend: the union of every live peer's
// listing, sorted by name. Peers the membership view calls Dead are
// skipped rather than failing the whole listing.
func (t *Tier) List(ctx context.Context) ([]storage.FileInfo, error) {
	var all []storage.FileInfo
	for _, node := range t.ring.Nodes() {
		if node == t.self {
			continue
		}
		if t.membership != nil && t.membership.State(node) == PeerDead {
			continue
		}
		infos, err := t.clients[node].List(ctx)
		if err != nil {
			return nil, err
		}
		all = append(all, infos...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all, nil
}

// WriteFile implements storage.Backend; the peer tier is read-only.
func (t *Tier) WriteFile(ctx context.Context, name string, data []byte) error {
	return fmt.Errorf("peernet: %s: %w", t.name, storage.ErrReadOnly)
}

// Remove implements storage.Backend; the peer tier is read-only.
func (t *Tier) Remove(ctx context.Context, name string) error {
	return fmt.Errorf("peernet: %s: %w", t.name, storage.ErrReadOnly)
}

// Capacity and Used report a full 1-byte quota so storage.Free is
// zero and placement never targets the peer tier.

// Capacity implements storage.Backend.
func (t *Tier) Capacity() int64 { return 1 }

// Used implements storage.Backend.
func (t *Tier) Used() int64 { return 1 }

// Ping implements storage.Pinger. Without a membership view it is
// conservative: every peer must answer, because with a single breaker
// guarding the whole tier, reporting "up" while one peer is dead would
// flap the tier on every read routed to that peer. With a view, peers
// it calls Dead are excused — replication covers their shards — and
// the tier is down only when no peer is live at all.
func (t *Tier) Ping(ctx context.Context) error {
	live := 0
	for _, node := range t.ring.Nodes() {
		if node == t.self {
			continue
		}
		if t.membership != nil && t.membership.State(node) == PeerDead {
			continue
		}
		if err := t.clients[node].Ping(ctx); err != nil {
			return fmt.Errorf("peernet: peer %s: %w", node, err)
		}
		live++
	}
	if live == 0 && len(t.ring.Nodes()) > 1 {
		return fmt.Errorf("peernet: %s: no live peers", t.name)
	}
	return nil
}

// Hedges reports how many hedge requests have been launched.
func (t *Tier) Hedges() int64 { return t.hedges.Load() }

// HedgeWins reports how many hedges served their read.
func (t *Tier) HedgeWins() int64 { return t.hedgeWins.Load() }

// Instrument implements obs.Instrumentable: every client registers its
// per-peer series, the membership view (if any) its state gauges, and
// the tier its hedge counters.
func (t *Tier) Instrument(r *obs.Registry, labels ...obs.Label) {
	for _, node := range t.ring.Nodes() {
		if node == t.self {
			continue
		}
		t.clients[node].Instrument(r, labels...)
	}
	if t.membership != nil {
		t.membership.Instrument(r, labels...)
	}
	r.CounterFunc("monarch_peer_hedges_total",
		"Hedge requests raced against a slow primary replica.",
		t.hedges.Load, labels...)
	r.CounterFunc("monarch_peer_hedge_wins_total",
		"Hedge requests whose response served the read.",
		t.hedgeWins.Load, labels...)
}

// Close closes every client.
func (t *Tier) Close() error {
	for _, c := range t.clients {
		c.Close()
	}
	return nil
}
