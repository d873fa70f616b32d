package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a concurrency-safe pool of Searcher clones over one graph — the
// parallel execution substrate for batch and server traffic. A single
// Searcher is cheap to query repeatedly but owns mutable scratch space and a
// candidate cache, so it must not be shared across goroutines; Pool hands
// each concurrent caller its own clone (sharing the immutable core/truss
// decompositions) and recycles clones across requests so their scratch
// buffers and warmed candidate caches survive between queries — the
// property that makes repeated-community server traffic cheap.
//
// Snapshot-isolated serving adds one twist: the graph a worker should query
// changes with every published snapshot. SetBase repoints the pool at the
// latest snapshot's base searcher (new clones start there), and GetFor hands
// out a worker rebound to the exact snapshot a reader pinned — an O(1)
// pointer adoption that keeps the worker's warmed cache, not a re-clone.
//
// Idle workers sit on a LIFO free list, not in a sync.Pool: a sync.Pool is
// emptied by the garbage collector, and a worker's value is its warm cache —
// after a collection every Get would clone a cold searcher and the next
// queries would each rebuild a view. The list hands out the most recently
// returned (warmest) worker first and keeps at most maxIdle of them, so
// what it retains is bounded by the concurrency the machine can actually
// run; a burst beyond that is cloned on demand and dropped on Put.
//
// The zero Pool is not usable; create one with NewPool. All methods are safe
// for concurrent use.
type Pool struct {
	base    atomic.Pointer[Searcher]
	created atomic.Int64
	maxIdle int

	mu   sync.Mutex
	idle []*Searcher
}

// NewPool creates a pool of clones of base. base itself is never handed
// out, so it remains safe to use on the caller's own goroutine.
func NewPool(base *Searcher) *Pool {
	// Twice the processors: a request that is preempted between its query
	// and its Put still finds room, so steady traffic never drops a warm
	// worker.
	pl := &Pool{maxIdle: 2 * runtime.GOMAXPROCS(0)}
	pl.base.Store(base)
	return pl
}

// SetBase atomically repoints the pool at a new base searcher: workers
// created after this call clone the new base. Workers already in the pool
// keep their old binding until a GetFor rebinds them — snapshot serving
// always goes through GetFor, so readers never see a mixed state.
func (p *Pool) SetBase(base *Searcher) { p.base.Store(base) }

// Created returns the number of worker clones this pool has ever created —
// the pool-size signal /v1/health reports. Clones are only created when no
// idle worker is left, so the count tracks peak concurrency (plus whatever
// bursts beyond maxIdle had to re-clone).
func (p *Pool) Created() int64 { return p.created.Load() }

// Get returns a Searcher for exclusive use by the calling goroutine, bound
// to whatever base it last served (the pool's current base for fresh
// clones). Return it with Put when done; Searchers that are never Put are
// simply collected. Snapshot readers use GetFor instead.
func (p *Pool) Get() *Searcher {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		s := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	p.created.Add(1)
	return p.base.Load().Clone()
}

// GetFor returns a Searcher rebound to base's graph and decomposition — the
// snapshot-pinned variant of Get. The rebind is O(1) and keeps the worker's
// scratch space and candidate cache (see Searcher.AdoptFrom).
func (p *Pool) GetFor(base *Searcher) *Searcher {
	w := p.Get()
	w.AdoptFrom(base)
	return w
}

// Put returns a Searcher obtained from Get or GetFor to the pool.
func (p *Pool) Put(s *Searcher) {
	p.mu.Lock()
	if len(p.idle) < p.maxIdle {
		p.idle = append(p.idle, s)
	}
	p.mu.Unlock()
}
