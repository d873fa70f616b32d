package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a concurrency-safe pool of Searcher clones over one graph — the
// parallel execution substrate for batch and server traffic, and where a
// circle scan run in strips borrows its helpers (parallel.go). A single
// Searcher is cheap to query repeatedly but owns mutable scratch space, so it
// must not be shared across goroutines; Pool hands each concurrent caller
// its own clone (sharing the immutable core/truss decompositions) and
// recycles clones across requests so their scratch buffers survive between
// queries.
//
// The candidate cache is not per worker: the pool has one store (cache.go),
// its base's — a clone shares its source's, and so does a snapshot base
// (SnapshotOnto) — and every worker it hands out reads and repairs it. A view one
// worker sorted or repaired is current for the next worker that queries the
// same vertex, so a write is absorbed once per view, not once per worker,
// and a worker dropped after a burst takes nothing warm with it.
//
// Snapshot-isolated serving adds one twist: the graph a worker should query
// changes with every published snapshot. SetBase repoints the pool at the
// latest snapshot's base searcher (new clones start there), and GetFor hands
// out a worker rebound to the exact snapshot a reader pinned — an O(1)
// pointer adoption, not a re-clone.
//
// Idle workers sit on a LIFO free list, not in a sync.Pool: a sync.Pool is
// emptied by the garbage collector, and after a collection every Get would
// clone a searcher and allocate its vertex-sized markers and peeler again.
// The list hands out the most recently returned worker first and keeps at
// most idleCap of them, so what it retains is bounded by the concurrency the
// machine can actually run; a burst beyond that is cloned on demand and
// dropped on Put.
//
// The zero Pool is not usable; create one with NewPool. All methods are safe
// for concurrent use.
type Pool struct {
	base    atomic.Pointer[Searcher]
	created atomic.Int64

	mu   sync.Mutex
	idle []*Searcher
}

// NewPool creates a pool of clones of base, sharing base's candidate cache.
// base itself is never handed out, so it remains safe to use on the caller's
// own goroutine.
func NewPool(base *Searcher) *Pool {
	pl := &Pool{}
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
// bursts beyond idleCap had to re-clone).
func (p *Pool) Created() int64 { return p.created.Load() }

// Get returns a Searcher for exclusive use by the calling goroutine, bound
// to whatever base it last served (the pool's current base for fresh
// clones). Return it with Put when done; Searchers that are never Put are
// simply collected. Snapshot readers use GetFor instead. The worker records
// p as its pool: a circle scan it runs in strips borrows its helpers here.
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
	w := p.base.Load().Clone()
	w.pool = p
	return w
}

// GetFor returns a Searcher rebound to base's graph and decomposition — the
// snapshot-pinned variant of Get. The rebind is O(1) and keeps the worker's
// scratch space (see Searcher.AdoptFrom).
func (p *Pool) GetFor(base *Searcher) *Searcher {
	w := p.Get()
	w.AdoptFrom(base)
	return w
}

// idleCap is the most idle workers Put keeps: twice the processors, read at
// each Put so a pool made before GOMAXPROCS rose keeps enough for the
// machine it now runs on. Twice, so a request that is preempted between its
// query and its Put still finds room and steady traffic never drops a
// worker it will need again.
func idleCap() int { return 2 * runtime.GOMAXPROCS(0) }

// Put returns a Searcher obtained from Get or GetFor to the pool.
func (p *Pool) Put(s *Searcher) {
	p.mu.Lock()
	if len(p.idle) < idleCap() {
		p.idle = append(p.idle, s)
	}
	p.mu.Unlock()
}
