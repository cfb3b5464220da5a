package core

import (
	"container/list"
	"sync"
)

// EvictionPolicy is the hook behind the abl-eviction ablation. The
// paper argues (§III-A) that because every file is read exactly once
// per epoch in random order, cache replacement only adds inter-tier
// churn ("I/O trashing") and PFS load; MONARCH therefore never evicts.
// These policies exist to *demonstrate* that claim, not to be used.
//
// Implementations must be safe for concurrent use.
type EvictionPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// OnAccess records a foreground read of name.
	OnAccess(name string)
	// OnPlaced records that name now lives on level.
	OnPlaced(name string, level int)
	// OnEvicted records that name was removed from its tier.
	OnEvicted(name string)
	// Victim proposes a file to evict from level to make room for
	// candidate; ok is false when the policy has none to offer, or none
	// the candidate justifies evicting. LRU and FIFO ignore the candidate.
	Victim(candidate string, level int) (name string, ok bool)
}

// orderedPolicy implements LRU and FIFO over per-level lists.
type orderedPolicy struct {
	name      string
	moveOnHit bool // true = LRU, false = FIFO
	mu        sync.Mutex
	byName    map[string]*list.Element
	byLevel   map[int]*list.List // front = oldest
	levelOf   map[string]int
}

// NewLRU returns a least-recently-used policy.
func NewLRU() EvictionPolicy { return newOrdered("lru", true) }

// NewFIFO returns an insertion-order policy.
func NewFIFO() EvictionPolicy { return newOrdered("fifo", false) }

func newOrdered(name string, moveOnHit bool) *orderedPolicy {
	return &orderedPolicy{
		name:      name,
		moveOnHit: moveOnHit,
		byName:    make(map[string]*list.Element),
		byLevel:   make(map[int]*list.List),
		levelOf:   make(map[string]int),
	}
}

func (p *orderedPolicy) Name() string { return p.name }

func (p *orderedPolicy) OnAccess(name string) {
	if !p.moveOnHit {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byName[name]; ok {
		p.byLevel[p.levelOf[name]].MoveToBack(el)
	}
}

func (p *orderedPolicy) OnPlaced(name string, level int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byName[name]; ok {
		p.byLevel[p.levelOf[name]].Remove(el)
	}
	l := p.byLevel[level]
	if l == nil {
		l = list.New()
		p.byLevel[level] = l
	}
	p.byName[name] = l.PushBack(name)
	p.levelOf[name] = level
}

func (p *orderedPolicy) OnEvicted(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byName[name]; ok {
		p.byLevel[p.levelOf[name]].Remove(el)
		delete(p.byName, name)
		delete(p.levelOf, name)
	}
}

func (p *orderedPolicy) Victim(_ string, level int) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.byLevel[level]
	if l == nil || l.Len() == 0 {
		return "", false
	}
	return l.Front().Value.(string), true
}
