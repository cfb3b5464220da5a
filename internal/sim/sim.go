// Package sim implements a deterministic discrete-event simulator used
// as the substrate for MONARCH's experimental evaluation.
//
// The paper measures wall-clock training time on a Frontera compute
// node; we reproduce the experiments on a virtual clock instead.
// Processes are ordinary goroutines, but exactly one runs at a time:
// the scheduler resumes the process owning the earliest event, waits
// for it to park (sleep, resource wait, queue wait) or finish, then
// advances the clock to the next event. Ties are broken by scheduling
// sequence number, which makes every run exactly reproducible from its
// RNG seed.
//
// The engine provides the primitives the storage and pipeline models
// need: Sleep, capacity Resources with FIFO admission, bounded Queues
// (the prefetch buffers of a tf.data pipeline), WaitGroups, and Events.
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"monarch/internal/rng"
)

// Time is virtual nanoseconds since the start of the simulation.
type Time int64

// Seconds converts a virtual timestamp to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts a virtual timestamp to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

type event struct {
	at   Time
	seq  uint64
	proc *Proc  // wake this parked process ...
	fn   func() // ... or run this callback inline
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// Env is a simulation environment: a virtual clock plus an event queue.
// An Env must be created with NewEnv and is not safe for concurrent use
// from goroutines other than its own processes.
type Env struct {
	now     Time
	events  eventHeap
	seq     uint64
	parked  chan struct{} // the running process yielded or finished
	running *Proc

	live       map[*Proc]struct{}
	nonDaemons int
	closed     bool
	panicVal   any
	panicProc  string

	rng *rng.Source
}

// NewEnv returns an environment whose random streams derive from seed.
func NewEnv(seed uint64) *Env {
	return &Env{
		parked: make(chan struct{}),
		live:   make(map[*Proc]struct{}),
		rng:    rng.New(seed),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's root random source. Subsystems should
// call Rand().Split() once at construction to obtain private streams.
func (e *Env) Rand() *rng.Source { return e.rng }

func (e *Env) schedule(at Time, p *Proc, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", at, e.now))
	}
	e.seq++
	heap.Push(&e.events, event{at: at, seq: e.seq, proc: p, fn: fn})
}

// After runs fn at the given delay from now, inline in the scheduler.
// fn must not block; use Go for blocking work.
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+Time(d), nil, fn)
}

// Proc is a simulated process. All blocking operations on a Proc must be
// invoked from the goroutine running that process.
type Proc struct {
	env     *Env
	name    string
	resume  chan struct{}
	state   string // where the process is parked, for deadlock reports
	daemon  bool
	done    bool
	joiners []*Proc
	ctx     context.Context
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment this process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Context returns a context carrying this process, suitable for passing
// into ctx-based APIs (storage backends) that charge virtual time.
func (p *Proc) Context() context.Context {
	if p.ctx == nil {
		p.ctx = WithProc(context.Background(), p)
	}
	return p.ctx
}

// Go spawns a process executing fn. The process starts at the current
// virtual time, after already-scheduled events at that time.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, false, fn)
}

// GoDaemon spawns a background process that does not keep Run alive:
// the simulation completes when all non-daemon processes have finished.
// Daemons are forcibly terminated by Close.
func (e *Env) GoDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawn(name, true, fn)
}

func (e *Env) spawn(name string, daemon bool, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: spawn on closed Env")
	}
	p := &Proc{env: e, name: name, resume: make(chan struct{}), daemon: daemon, state: "starting"}
	e.live[p] = struct{}{}
	if !daemon {
		e.nonDaemons++
	}
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil && e.panicVal == nil {
				e.panicVal = r
				e.panicProc = p.name
			}
			p.finish()
			e.parked <- struct{}{}
		}()
		if !e.closed {
			fn(p)
		}
	}()
	e.schedule(e.now, p, nil)
	return p
}

// finish marks the process done and wakes joiners. Runs on the process
// goroutine while it still holds the "running" token.
func (p *Proc) finish() {
	e := p.env
	p.done = true
	delete(e.live, p)
	if !p.daemon {
		e.nonDaemons--
	}
	for _, j := range p.joiners {
		e.schedule(e.now, j, nil)
	}
	p.joiners = nil
}

// park yields control to the scheduler until another event resumes this
// process. reason is surfaced in deadlock reports.
func (p *Proc) park(reason string) {
	p.state = reason
	p.env.running = nil
	p.env.parked <- struct{}{}
	<-p.resume
	if p.env.closed {
		// Close is tearing the environment down; unwind this goroutine.
		// runtime.Goexit still runs the spawn defer, which hands the
		// token back to Close.
		runtime.Goexit()
	}
	p.state = "running"
}

// Sleep advances this process's local time by d.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	at := p.env.now + Time(d)
	if at < p.env.now {
		at = math.MaxInt64 // the clock saturates rather than wrap into the past
	}
	p.env.schedule(at, p, nil)
	p.park("sleeping")
}

// SleepUntil sleeps until the given virtual timestamp; if it is in the
// past the process continues immediately (after pending events at now).
func (p *Proc) SleepUntil(t Time) {
	if t < p.env.now {
		t = p.env.now
	}
	p.env.schedule(t, p, nil)
	p.park("sleeping")
}

// Yield reschedules the process after all other events at the current
// timestamp.
func (p *Proc) Yield() {
	p.env.schedule(p.env.now, p, nil)
	p.park("yielding")
}

// Join blocks until target finishes. Joining a finished process returns
// immediately.
func (p *Proc) Join(target *Proc) {
	if target.done {
		return
	}
	target.joiners = append(target.joiners, p)
	p.park("joining " + target.name)
}

// wake schedules p to resume at the current time (FIFO after pending
// events at this timestamp).
func (e *Env) wake(p *Proc) { e.schedule(e.now, p, nil) }

// Run executes events until no runnable work remains or all non-daemon
// processes have finished. It returns an error if parked processes
// remain with an empty event queue (deadlock), or re-panics a process
// panic with its origin attached.
func (e *Env) Run() error {
	if e.closed {
		return fmt.Errorf("sim: Run on closed Env")
	}
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.at
		if ev.fn != nil {
			ev.fn()
			continue
		}
		p := ev.proc
		if p.done {
			continue // stale wakeup for a finished process
		}
		e.running = p
		p.resume <- struct{}{}
		<-e.parked
		e.running = nil
		if e.panicVal != nil {
			v, proc := e.panicVal, e.panicProc
			e.panicVal = nil
			panic(fmt.Sprintf("sim: process %q panicked: %v", proc, v))
		}
		if e.nonDaemons == 0 {
			return nil
		}
	}
	if e.nonDaemons > 0 {
		return fmt.Errorf("sim: deadlock at t=%v: %s", e.now.Duration(), e.describeParked())
	}
	return nil
}

func (e *Env) describeParked() string {
	var names []string
	for p := range e.live {
		if !p.daemon {
			names = append(names, fmt.Sprintf("%s(%s)", p.name, p.state))
		}
	}
	sort.Strings(names)
	return fmt.Sprintf("%d process(es) parked: %v", len(names), names)
}

// Close terminates all remaining processes (daemons included) and
// releases their goroutines. The environment is unusable afterwards.
// Close is idempotent.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for len(e.live) > 0 {
		var p *Proc
		for q := range e.live {
			p = q
			break
		}
		p.resume <- struct{}{}
		<-e.parked
	}
	e.events = nil
}

type procCtxKey struct{}

// WithProc attaches a process to a context so virtual-time-charging code
// (simulated storage devices) can find the caller.
func WithProc(ctx context.Context, p *Proc) context.Context {
	return context.WithValue(ctx, procCtxKey{}, p)
}

// ProcFromContext extracts the process previously attached by WithProc.
func ProcFromContext(ctx context.Context) (*Proc, bool) {
	p, ok := ctx.Value(procCtxKey{}).(*Proc)
	return p, ok
}

// MustProc extracts the process from ctx or panics: the simulated
// storage path cannot meaningfully execute outside a sim process.
func MustProc(ctx context.Context) *Proc {
	p, ok := ProcFromContext(ctx)
	if !ok {
		panic("sim: context does not carry a simulation process")
	}
	return p
}
