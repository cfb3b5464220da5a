package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"monarch/internal/core"
	"monarch/internal/dataset"
	"monarch/internal/storage"
)

// tally counts every call the loader and the trainer make into the
// middleware, and every one that failed: an error, a short read, or —
// after the run — a verification mismatch.
type tally struct {
	ops, failed      atomic.Int64
	delivered, acked atomic.Int64 // payload bytes read and written
}

func (t *tally) op(err error, ok bool) {
	t.ops.Add(1)
	if err != nil || !ok {
		t.failed.Add(1)
	}
}

// reader is one node's share of the loader: the shards it owns and the
// ones it does not, its own random stream, and everything an epoch
// needs allocated once, so that the heap bytes a steady epoch allocates
// are the middleware's and not the benchmark's.
type reader struct {
	n          *node
	own, other []dataset.Shard
	rng        *rand.Rand
	order      []dataset.Shard // this epoch's shards, in read order
	bufs       [][]byte        // one read buffer per goroutine
	next       atomic.Int64
}

// job is the training job the benchmark plays: a TFRecord-shaped loader
// that streams whole shards with sequential fixed-size reads, and a
// trainer that writes checkpoints. The seed drives every order and
// choice; the middleware only ever sees the resulting calls.
type job struct {
	st      *stack
	seed    uint64
	tally   *tally
	readers []*reader
}

// newJob prepares the loader for st. stream keeps the random streams of
// a run's repetitions apart.
func newJob(st *stack, seed, stream uint64, t *tally) *job {
	j := &job{st: st, seed: seed, tally: t}
	routines := st.sz.LoadRoutines
	if len(st.nodes) > 1 || st.w.Overlap {
		// One reader per node of a pair; one reader beside the trainer.
		routines = 1
	}
	for i, n := range st.nodes {
		r := &reader{n: n, rng: rand.New(rand.NewPCG(seed, stream<<8|uint64(i)))}
		for _, s := range st.shards() {
			if n.owns(s.Name) {
				r.own = append(r.own, s)
			} else {
				r.other = append(r.other, s)
			}
		}
		r.order = make([]dataset.Shard, 0, len(st.shards()))
		for g := 0; g < routines; g++ {
			r.bufs = append(r.bufs, make([]byte, st.sz.ReadSize))
		}
		j.readers = append(j.readers, r)
	}
	return j
}

func shuffle(r *rand.Rand, s []dataset.Shard) {
	r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
}

// planCold has every node read each shard it owns once, in a fresh
// order.
func (j *job) planCold() {
	for _, r := range j.readers {
		shuffle(r.rng, r.own)
		r.order = append(r.order[:0], r.own...)
	}
}

// planWarm plans one steady epoch. A single node reads every shard in a
// fresh order. Of a pair, each node reads PeerShards shards it owns and
// as many it does not, so exactly half of all reads cross the wire
// whatever the seed picks.
func (j *job) planWarm() {
	if len(j.readers) == 1 {
		j.planCold()
		return
	}
	for _, r := range j.readers {
		shuffle(r.rng, r.own)
		shuffle(r.rng, r.other)
		k := min(j.st.sz.PeerShards, len(r.own), len(r.other))
		r.order = append(append(r.order[:0], r.own[:k]...), r.other[:k]...)
		shuffle(r.rng, r.order)
	}
}

// runEpoch streams every planned shard to EOF and returns the wall
// time. Readers are closed-loop: each issues its next read when the
// previous one returns, and takes the next shard off its node's list
// when it finishes one.
func (j *job) runEpoch(ctx context.Context, view bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, r := range j.readers {
		r.next.Store(0)
		for _, buf := range r.bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(r.next.Add(1)) - 1
					if i >= len(r.order) {
						return
					}
					j.readShard(ctx, r.n.m, r.order[i], buf, view)
				}
			}()
		}
	}
	wg.Wait()
	return time.Since(start)
}

// coldEpoch and warmEpoch plan outside the timed part and run inside.
func (j *job) coldEpoch(ctx context.Context) time.Duration {
	j.planCold()
	return j.runEpoch(ctx, false)
}

func (j *job) warmEpoch(ctx context.Context, view bool) time.Duration {
	j.planWarm()
	return j.runEpoch(ctx, view)
}

// readShard is the paper's access pattern: sequential ReadSize reads
// from offset 0 to the end of the file.
func (j *job) readShard(ctx context.Context, m *core.Monarch, s dataset.Shard, buf []byte, view bool) {
	rec, spanName := j.st.rec, "core.readat"
	if view {
		spanName = "core.readview"
	}
	for off := int64(0); off < s.Size; off += int64(len(buf)) {
		want := int(min(int64(len(buf)), s.Size-off))
		rctx, sp := ctx, openSpan{}
		if rec != nil {
			sp = rec.begin(ctx, spanName)
			rctx = sp.within(ctx)
		}
		var got int
		var err error
		var v storage.View
		if view {
			v, err = m.ReadView(rctx, s.Name, off, int64(len(buf)))
			got = len(v.Data)
		} else {
			got, err = m.ReadAt(rctx, s.Name, buf, off)
		}
		if rec != nil {
			sp.end()
		}
		v.Release() // a no-op on the copy path's zero View
		j.tally.op(err, got == want)
		j.tally.delivered.Add(int64(got))
	}
}

// checkpointer is the trainer: cycle k creates a checkpoint of
// CkptFiles files under ckpt/step-k/, fills it with round-robin
// WriteSize writes, waits for it to be durable on the PFS, and removes
// the checkpoint before last. Before a checkpoint is removed its PFS
// files are hard-linked aside, so what the PFS held can be compared
// with what was acked once the clock is not running.
type checkpointer struct {
	j       *job
	m       *core.Monarch
	keepDir string
	steps   int
	checked int // steps [0, checked) have been verified and their links removed
	// stall: first Create to last WriteAt ack. durable: first Create to
	// Flush("") returning. Milliseconds.
	stall, durable []float64
	// midBurst, when set, runs once between the last ack and the flush
	// of the first cycle (the traced run copies the journal there).
	midBurst func()
}

func ckptName(step, file int) string { return fmt.Sprintf("ckpt/step-%04d/part-%02d", step, file) }

// block is the payload of every write of one step; each write stamps
// its own step, file and index over the first bytes, so a misplaced or
// stale write cannot verify.
func (c *checkpointer) block(step int) []byte {
	r := rand.New(rand.NewPCG(c.j.seed, 1<<40|uint64(step)))
	b := make([]byte, c.j.st.sz.WriteSize)
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	return b
}

func stamp(b []byte, step, file, idx int) {
	binary.LittleEndian.PutUint32(b[0:], uint32(step))
	binary.LittleEndian.PutUint32(b[4:], uint32(file))
	binary.LittleEndian.PutUint32(b[8:], uint32(idx))
}

// span times one write-path call in a traced run.
func (c *checkpointer) span(ctx context.Context, name string, call func(context.Context) error) error {
	rec := c.j.st.rec
	if rec == nil {
		return call(ctx)
	}
	sp := rec.begin(ctx, name)
	defer sp.end()
	return call(sp.within(ctx))
}

// cycle runs one checkpoint cycle.
func (c *checkpointer) cycle(ctx context.Context) {
	sz, t := c.j.st.sz, c.j.tally
	step := c.steps
	c.steps++
	blk := c.block(step)
	start := time.Now()
	for f := 0; f < sz.CkptFiles; f++ {
		err := c.span(ctx, "core.create", func(ctx context.Context) error {
			return c.m.Create(ctx, ckptName(step, f), sz.CkptFileBytes)
		})
		t.op(err, true)
	}
	for i := 0; i < sz.ckptWrites(); i++ {
		f, off := i%sz.CkptFiles, int64(i/sz.CkptFiles)*int64(sz.WriteSize)
		stamp(blk, step, f, i)
		var n int
		err := c.span(ctx, "core.write", func(ctx context.Context) (err error) {
			n, err = c.m.WriteAt(ctx, ckptName(step, f), blk, off)
			return err
		})
		t.op(err, n == len(blk))
		t.acked.Add(int64(n))
	}
	stall := time.Since(start)
	if c.midBurst != nil {
		c.midBurst()
		c.midBurst = nil
	}
	err := c.span(ctx, "core.flush", func(ctx context.Context) error { return c.m.Flush(ctx, "") })
	t.op(err, true)
	durable := time.Since(start)
	c.stall = append(c.stall, float64(stall)/1e6)
	c.durable = append(c.durable, float64(durable)/1e6)
	if step >= 2 {
		c.retire(ctx, step-2)
	}
}

// retire links a durable checkpoint's PFS files aside and removes it.
func (c *checkpointer) retire(ctx context.Context, step int) {
	c.keep(step)
	for f := 0; f < c.j.st.sz.CkptFiles; f++ {
		err := c.span(ctx, "core.remove", func(ctx context.Context) error {
			return c.m.Remove(ctx, ckptName(step, f))
		})
		c.j.tally.op(err, true)
	}
}

func (c *checkpointer) keep(step int) {
	for f := 0; f < c.j.st.sz.CkptFiles; f++ {
		src := filepath.Join(c.j.st.pfsDir.Root(), filepath.FromSlash(ckptName(step, f)))
		if err := os.Link(src, filepath.Join(c.keepDir, fmt.Sprintf("%04d-%02d", step, f))); err != nil {
			c.j.tally.failed.Add(1) // acked and flushed, yet not on the PFS
		}
	}
}

// checkRetired compares the PFS files of every checkpoint retired since
// the last call with the bytes that were acked, and lets the links go,
// so a run holds a few checkpoints on disk however many it writes.
// Mismatches count as failed operations. Call it between timed parts.
func (c *checkpointer) checkRetired() { c.check(c.steps - 2) }

// verify checks what checkRetired has not: it links the two checkpoints
// still live aside and compares them too. Call it after the timed window.
func (c *checkpointer) verify() {
	for step := max(c.checked, c.steps-2); step < c.steps; step++ {
		c.keep(step)
	}
	c.check(c.steps)
}

// check verifies the kept files of steps [c.checked, upTo) and removes
// them.
func (c *checkpointer) check(upTo int) {
	sz := c.j.st.sz
	for ; c.checked < upTo; c.checked++ {
		step := c.checked
		blk := c.block(step)
		for f := 0; f < sz.CkptFiles; f++ {
			kept := filepath.Join(c.keepDir, fmt.Sprintf("%04d-%02d", step, f))
			got, err := os.ReadFile(kept)
			ok := err == nil && int64(len(got)) == sz.CkptFileBytes
			for i := f; ok && i < sz.ckptWrites(); i += sz.CkptFiles {
				off := (i / sz.CkptFiles) * sz.WriteSize
				stamp(blk, step, f, i)
				ok = bytes.Equal(got[off:off+sz.WriteSize], blk)
			}
			if !ok {
				c.j.tally.failed.Add(1)
			}
			os.Remove(kept) // whatever stays goes with the stack's directory
		}
	}
}
