package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"sacsearch/internal/graph"
)

// Candidate-set cache. The candidate set X of a query (q, k) is the
// connected k-structure (k-ĉore, k-truss community or k-clique community)
// containing q — a function of topology only. Server and batch traffic is
// dominated by repeated queries into the same few communities (hot users
// re-query, nearby users share a community), so the store memoizes
// membership per community and per k: every member vertex maps to the same
// entry, and any later query from any member skips the BFS / decomposition
// walk entirely. An entry also keeps the community's induced CSR and, per
// recent query vertex, the members in (distance, id) order with the prefix
// oracle built over that order (oracle.go).
//
// Both locations (check-ins) and topology (edge ops) change under a live
// store. Entries and views are stamped with the point of the graph's
// mutation timeline they reflect, and a lookup that finds an older stamp
// asks the graph's journal what happened in between (repair.go): a view
// moves the members that checked in to their new ranks, an entry checks that
// the edges that came and went left the community intact and patches its
// CSR. Starting over — a fresh BFS, a full re-sort — is what happens on
// first use, when the journal no longer reaches the stamp, or when the gap
// is too large for repair to pay; a repeated (q, k) with nothing relevant in
// between reuses everything at zero cost.
//
// One store serves every searcher of a pool (one engine): a searcher made by
// NewSearcher owns one, and Clone and Pool share their source's. So every
// pooled worker and every standing-query evaluation reads and repairs the
// same views, and a write is absorbed once per view, by whichever query
// reaches it first. Scratch stays per searcher. The store's locking keeps
// concurrent queries apart without one lock per community, and no query
// ever waits for another one's search:
//
//   - a query holds its entry and its view shared, from candidates to the
//     end of run (release). Whatever changes them in place takes them
//     exclusively, and only by TryLock: a change never waits for a reader;
//   - an entry's members never change. A topology change the community
//     survives is absorbed in place when no query holds the entry, and
//     otherwise into a copy that takes the entry's place in the store, while
//     the queries holding it finish on it (bringForward). Copies share the
//     entry's views;
//   - one query at a time brings a view forward, under the view's fill lock,
//     and the next finds it current (singleflight). A view some query is
//     reading is never changed under it: a query that finds it behind and
//     held sorts a view of its own. The same lock orders the prefix oracle's
//     lazy build and the answer memo among the view's readers, and different
//     views of one entry build and repair in parallel;
//   - entries and views only move forward along the timeline. A reader
//     pinned to a snapshot older than what the store holds never rebuilds it
//     backwards: it answers from an entry or a view it keeps to itself, and
//     stores nothing.
//
// A wait is only ever for a bounded piece of work — a revalidation, a
// view's refresh, an oracle build — never for a search.
//
// Every query but θ-SAC takes its candidate set from the store: there is no
// path around it, only a cold one (SetCandidateCaching).

// cacheKey identifies a (vertex, k) membership lookup.
type cacheKey struct {
	v graph.V
	k int32
}

// stamp is a point on a graph's mutation timeline: the two epochs, whose sum
// is the journal sequence (graph.Seq). An equal topology epoch means no edge
// op in between and an equal location epoch no check-in, however far apart
// the two points are; only when the relevant one differs is the journal
// asked for the gap.
type stamp struct {
	loc, topo uint64
}

func (st stamp) seq() uint64 { return st.loc + st.topo }

// now returns the timeline point of the searcher's (adopted) graph.
func (s *Searcher) now() stamp { return stamp{loc: s.g.LocEpoch(), topo: s.g.TopoEpoch()} }

// before reports whether st lies behind at on the timeline, which either
// epoch decides: both only grow.
func (st stamp) before(at stamp) bool { return st.loc < at.loc || st.topo < at.topo }

// sortedView is a community's candidate set in ascending (distance from q,
// id) order as of the locations at at. Distances are not stored: the one at
// rank i is recomputed from the graph (candidateSet.dist) by the expression
// the sort keyed on. The embedded oracle memoizes prefix-feasibility answers
// for this ordering (see oracle.go); a change to the order or to an induced
// edge marks the prefix lengths it touched for repair.
//
// mu is held shared by every query reading the view, and exclusively —
// always by TryLock, with fill held too — by the one changing q, at, verts
// or the oracle's record. fill serializes the view's writers: the refresh
// that brings it forward, and, among readers holding mu shared, the oracle's
// lazy build and the answer memo. q changes only under the view list's lock
// as well.
type sortedView struct {
	mu     sync.RWMutex
	fill   sync.Mutex
	q      graph.V
	at     stamp
	verts  []graph.V
	oracle prefixOracle
}

// tryHold takes vw exclusively if nobody holds or fills it.
func (vw *sortedView) tryHold() bool {
	if !vw.fill.TryLock() {
		return false
	}
	if !vw.mu.TryLock() {
		vw.fill.Unlock()
		return false
	}
	return true
}

// share turns vw, held exclusively, into held shared. Every writer holds
// fill, so nothing changes the view in between.
func (vw *sortedView) share() {
	vw.mu.Unlock()
	vw.mu.RLock()
	vw.fill.Unlock()
}

// viewList is a community's distance-sorted views of recent query vertices,
// most recent first. An entry and the copies revalidation makes of it share
// one: their members are the same, and so is every view of them.
type viewList struct {
	mu    sync.Mutex
	views []*sortedView
}

// maxViewsPerEntry bounds the distance-sorted views kept per community —
// one per recent query vertex, for the whole store. Server traffic
// concentrates on a modest set of hot users per community; the views list is
// move-to-front, so the hottest stay resident and the lookup scan stays short
// in practice (hot vertices are found in the first few slots).
const maxViewsPerEntry = 32

// cacheEntry is one community's cached state. members is nil for a negative
// entry (q has no feasible community at this k); negative entries are keyed
// only by the query vertex itself.
type cacheEntry struct {
	// mu is held shared by every query reading the entry, and exclusively —
	// by TryLock, with next held too — by the one absorbing a topology change
	// in place. next serializes the queries that bring the entry forward.
	mu      sync.RWMutex
	next    sync.Mutex
	members []graph.V // immutable; discovery (BFS) order
	// dropped: a topology change invalidated the entry or a copy took its
	// place (bringForward); nothing starts on it any more.
	dropped atomic.Bool
	// topo is the topology epoch members and the induced CSR reflect. It is
	// stored under mu held exclusively, or before anyone else can see the
	// entry, and the store reads it too.
	topo atomic.Uint64
	// stored is the store generation that indexed the entry, 0 for none:
	// the store's to read and write, under its lock.
	stored uint64
	// seq is a timeline point at topo, the latest a reader has recorded:
	// where the journal gap to a later topology starts. Any point at topo
	// will do, so readers holding mu shared may race to record theirs.
	seq atomic.Uint64

	views *viewList // shared with the entry's copies

	// Induced-subgraph CSR over members, in local ids (positions in
	// members). Every candidate set an algorithm peels is a subset of
	// members, so the prefix oracle sweeps this dense, cross-community-edge-
	// free adjacency instead of the global CSR, and a query's working set
	// cuts its own CSR out of it (circle.go). A k-core entry builds it before
	// anyone else can see the entry, and a copy patches its own; other
	// structures never use it.
	adjOff   []int32
	adjLocal []int32
}

// buildInduced materializes the induced adjacency, into the entry's previous
// arrays when they are large enough. localOf must already map every member
// to its local id, with valid marking membership. A row lists the member's
// neighbors in ascending global id, which respliceRow reproduces.
func (e *cacheEntry) buildInduced(g *graph.Graph, localOf []int32, valid *graph.Marker) {
	n := len(e.members)
	e.adjOff = slices.Grow(e.adjOff[:0], n+1)[:n+1]
	e.adjOff[0] = 0
	for i, v := range e.members {
		d := int32(0)
		for _, u := range g.Neighbors(v) {
			if valid.Has(u) {
				d++
			}
		}
		e.adjOff[i+1] = e.adjOff[i] + d
	}
	e.adjLocal = slices.Grow(e.adjLocal[:0], int(e.adjOff[n]))[:e.adjOff[n]]
	cursor := int32(0)
	for _, v := range e.members {
		for _, u := range g.Neighbors(v) {
			if valid.Has(u) {
				e.adjLocal[cursor] = localOf[u]
				cursor++
			}
		}
	}
}

// bindLocal points the Searcher's global→local id translation at e's
// members. Binding is O(|members|) and skipped when they are already bound —
// an entry and its copies share one members slice — so repeated queries into
// the same community pay nothing.
func (s *Searcher) bindLocal(e *cacheEntry) {
	if len(s.localMembers) == len(e.members) && len(e.members) > 0 && &s.localMembers[0] == &e.members[0] {
		return
	}
	if s.localOf == nil {
		n := s.g.NumVertices()
		s.localOf = make([]int32, n)
		s.localValid = graph.NewMarker(n)
	}
	s.localValid.Reset()
	for i, v := range e.members {
		s.localOf[v] = int32(i)
		s.localValid.Mark(v)
	}
	s.localMembers = e.members
}

// maxCachedVertices bounds the total member slots a store holds. When a
// store would exceed it, the whole store is dropped — eviction is
// all-or-nothing because entries are shared by every member vertex and
// per-entry removal would need reverse indexes the common case never uses.
// Queries holding a dropped entry finish on it; nothing finds it again.
const maxCachedVertices = 1 << 20

// viewStore memoizes community membership per (member vertex, k). It is
// shared by every searcher of a pool; mu guards the index alone.
type viewStore struct {
	mu       sync.Mutex
	index    map[cacheKey]*cacheEntry
	vertices int    // Σ len(members) over the indexed entries
	gen      uint64 // bumped whenever the index is dropped whole
}

// lookup returns the entry covering (v, k), or nil.
func (c *viewStore) lookup(v graph.V, k int) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index[cacheKey{v, int32(k)}]
}

// put indexes e as the community of (q, k), unless the store already holds
// that community at e's topology or a later one (a query on a newer
// snapshot, or one racing this one, stored it first): e then serves its
// query alone. e.members is retained; callers must not mutate it afterwards.
//
// fanout keys the entry by every member, so any later query from the same
// community hits it. That is sound only when communities partition vertices
// per k — true for k-core and k-truss (both are connected components of a
// fixed subgraph) but NOT for k-clique percolation, where communities
// overlap at shared vertices; overlapping structures must pass fanout=false
// so the entry is keyed by q alone.
func (c *viewStore) put(q graph.V, k int, e *cacheEntry, fanout bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{q, int32(k)}
	if old := c.index[key]; old != nil {
		if old.topo.Load() >= e.topo.Load() {
			return
		}
		c.removeLocked(old, q, k)
	}
	if c.index == nil || c.vertices+len(e.members) > maxCachedVertices {
		c.index = make(map[cacheKey]*cacheEntry)
		c.vertices = 0
		c.gen++
	}
	e.stored = c.gen
	if e.members == nil || !fanout {
		c.index[key] = e
	} else {
		for _, v := range e.members {
			c.index[cacheKey{v, int32(k)}] = e
		}
	}
	c.vertices += len(e.members)
}

// remove drops e, found under (q, k), and every key that leads to it.
func (c *viewStore) remove(e *cacheEntry, q graph.V, k int) {
	c.mu.Lock()
	c.removeLocked(e, q, k)
	c.mu.Unlock()
}

func (c *viewStore) removeLocked(e *cacheEntry, q graph.V, k int) {
	if e.stored != c.gen || e.stored == 0 { // dropped already, or with the whole index
		return
	}
	if key := (cacheKey{q, int32(k)}); c.index[key] == e {
		delete(c.index, key)
	}
	for _, v := range e.members {
		if key := (cacheKey{v, int32(k)}); c.index[key] == e {
			delete(c.index, key)
		}
	}
	c.vertices -= len(e.members)
	e.stored = 0
}

// viewFor returns q's view in l, moved to the front, and fresh = false; the
// caller locks it. Without one it takes a new slot under the cap, else
// recycles the least recently used slot nobody holds, and returns it for q
// held exclusively (tryHold) with fresh = true: its backing storage is
// reusable, and the caller must fill verts and stamp it. When every slot is
// held and the list is full it returns nil, and the caller uses a view of
// its own.
func (l *viewList) viewFor(q graph.V) (vw *sortedView, fresh bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := slices.IndexFunc(l.views, func(vw *sortedView) bool { return vw.q == q })
	if i < 0 {
		fresh = true
		if len(l.views) < maxViewsPerEntry {
			l.views = append(l.views, &sortedView{})
		}
		for i = len(l.views) - 1; i >= 0 && !l.views[i].tryHold(); i-- {
		}
		if i < 0 {
			return nil, false
		}
		l.views[i].q = q
	}
	vw = l.views[i]
	copy(l.views[1:i+1], l.views[:i])
	l.views[0] = vw
	return vw, fresh
}

// enter returns the entry of (q, k) at the searcher's topology, held shared
// until release, as curEntry (what an earlier call left held is let go
// first); hit reports that it came from the store. Without a current stored
// entry the community is walked afresh and stored — unless by then the store
// holds it at this topology or a later one, and the new entry then serves
// this query alone.
func (s *Searcher) enter(q graph.V, k int) (e *cacheEntry, hit bool) {
	s.release()
	s.holds, s.curView = true, nil
	if s.curEntry = s.current(q, k); s.curEntry != nil {
		return s.curEntry, true
	}
	now := s.now()
	e = &cacheEntry{members: s.communityOf(q, k), views: &viewList{}}
	e.topo.Store(now.topo)
	e.seq.Store(now.seq())
	if s.structure == StructureKCore && e.members != nil {
		s.bindLocal(e)
		e.buildInduced(s.g, s.localOf, s.localValid)
	}
	e.mu.RLock()
	s.curEntry = e
	// k-clique communities overlap (clique percolation), so their entries are
	// keyed by the query vertex alone; k-core and k-truss communities
	// partition vertices per k and fan out to every member.
	s.store.put(q, k, e, s.structure != StructureKClique)
	return e, false
}

// current returns the stored entry of (q, k) brought to the searcher's
// topology and held shared, or nil: the store holds none, holds one ahead of
// this reader's snapshot (entries only move forward), or a topology change
// since the entry's stamp invalidated it (bringForward).
func (s *Searcher) current(q graph.V, k int) *cacheEntry {
	now := s.now()
	for {
		e := s.store.lookup(q, k)
		if e == nil {
			return nil
		}
		e.mu.RLock()
		if e.topo.Load() == now.topo && !e.dropped.Load() {
			if now.seq() > e.seq.Load() {
				e.seq.Store(now.seq())
			}
			return e
		}
		e.mu.RUnlock()
		if e.topo.Load() > now.topo || !s.bringForward(e, q, k) {
			return nil
		}
	}
}

// bringForward absorbs the topology changes since e's stamp, found under
// (q, k), and reports whether the store should be asked again: false when
// they invalidated the community, which leaves the store. Queries bringing e
// forward take turns; one that finds it done, or e replaced, returns at once.
// With no query holding e the change is absorbed in place; otherwise into a
// copy of e — the same members and views, its own CSR — that replaces e in
// the store, while e's readers finish on e as it stands.
func (s *Searcher) bringForward(e *cacheEntry, q graph.V, k int) bool {
	e.next.Lock()
	defer e.next.Unlock()
	if e.dropped.Load() || e.topo.Load() >= s.now().topo {
		return true
	}
	c := e
	if !e.mu.TryLock() {
		c = &cacheEntry{members: e.members, views: e.views, adjOff: slices.Clone(e.adjOff), adjLocal: slices.Clone(e.adjLocal)}
		c.topo.Store(e.topo.Load())
		c.seq.Store(e.seq.Load())
	}
	kept := s.revalidate(c, q, k)
	if kept && c == e {
		e.mu.Unlock()
		return true
	}
	// e, failed or copied, ends here; marked before a half-patched CSR is let
	// go, and before the store stops leading to it.
	e.dropped.Store(true)
	if c == e {
		e.mu.Unlock()
	}
	if !kept {
		s.store.remove(e, q, k)
		s.stats.EntriesDropped++
		return false
	}
	s.store.put(q, k, c, s.structure != StructureKClique)
	return true
}

// release lets go of the entry and the view the query in flight holds; they
// stay named in curEntry and curView, for tests to inspect.
func (s *Searcher) release() {
	if !s.holds {
		return
	}
	s.holds = false
	if s.curView != nil {
		s.curView.mu.RUnlock()
	}
	if s.curEntry != nil {
		s.curEntry.mu.RUnlock()
	}
}
