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
// recent query vertex that earned one (viewFor), a view: the members in
// (distance, id) order with the prefix oracle built over that order
// (oracle.go).
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
// reaches it first. Scratch stays per searcher.
//
// Entries and views are values: a version never changes; a newer one
// replaces it. A query pins the entry and view version it reads until it
// ends (release), and takes no lock. Bringing one forward copies it,
// repairs the copy and publishes it in its slot; queries that pinned the old
// one finish on it, and the last to leave hands its buffers to the store's
// free list. Writers of a slot take turns, so the next query finds it
// current (singleflight), and only forward: a query pinned to a snapshot
// older than the slot's version makes one of its own and publishes nothing.
// The one exception is a stamp, which advances atomically, forward only,
// over a gap that changed nothing the version holds.
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

// pins counts the queries reading an entry or a view version, two a query,
// with retiredBit set once a newer one replaced it. No query pins a retired
// value, so whoever brings its count to zero hands its buffers on, once.
type pins struct{ w atomic.Int64 }

const retiredBit = 1

// claim gives a value just made, new or off a free list, its maker's pin.
// Until it is published a query that pins it finds it in no slot and lets
// go. One that stays private is retired at once: the maker recycles it.
func (p *pins) claim() { p.w.Store(2) }

// pin adds a reader unless the value is retired.
func (p *pins) pin() bool {
	for {
		w := p.w.Load()
		if w&retiredBit != 0 {
			return false
		}
		if p.w.CompareAndSwap(w, w+2) {
			return true
		}
	}
}

// unpin drops a reader: true when it was a retired value's last.
func (p *pins) unpin() bool { return p.w.Add(-2) == retiredBit }

// retire marks the value replaced, once: true when nobody reads it.
func (p *pins) retire() bool { return p.w.Add(retiredBit) == retiredBit }

func (p *pins) retired() bool { return p.w.Load()&retiredBit != 0 }

// viewVersion is one state of q's view of a community: the members in
// ascending (distance from q, id) order as of the locations at at, and the
// prefix oracle over that order (k-core only). Distances are not stored: the
// one at rank i is recomputed (candidateSet.dist) by the sort's expression.
type viewVersion struct {
	pins   pins
	q      graph.V
	at     stamp
	verts  []graph.V
	oracle prefixOracle
}

// viewSlot holds the published version of a recent query vertex's view.
type viewSlot struct {
	q     graph.V // whose slot it is: the view list's, under its lock
	trial bool    // probationary: q was seen once; under the list's lock
	// busy counts the queries between viewFor and the end of refreshView:
	// raised under the list's lock, lowered without it.
	busy atomic.Int32
	next sync.Mutex
	cur  atomic.Pointer[viewVersion]
}

// viewList is a community's view slots, most recent first, shared by an
// entry and its copies: their members are the same, and so are the views.
type viewList struct {
	mu     sync.Mutex
	views  []*viewSlot
	trials int // how many of views are probationary

	seen      [seenOnce]graph.V // the last first sightings, a ring
	sightings int
}

// maxViewsPerEntry bounds the distance-sorted views kept per community, one
// per query vertex, for the whole store. Move-to-front alone would not keep
// the hot ones: a view costs 12 B a member, built once, and one-shot query
// vertices, which never ask again, are most of a cold stream, so 32 of them
// would evict every hot view. A view earns its slot by reuse instead (a
// segmented LRU, viewFor): a vertex's first view is probationary, at most
// maxTrialViews of those are published per community, and a later sighting
// protects the slot; protected views are an LRU of the rest. A list
// remembers its last seenOnce first sightings, so that a second one earns a
// protected slot whether or not the first got a slot. Hot vertices sit in
// the first few slots, so the lookup scan stays short.
const (
	maxViewsPerEntry = 32
	maxTrialViews    = 4
	seenOnce         = 64
)

// cacheEntry is one community's cached state. members is nil for a negative
// entry (q has no feasible community at this k); negative entries are keyed
// only by the query vertex itself.
type cacheEntry struct {
	pins    pins
	members []graph.V // immutable; discovery (BFS) order
	// topo is the topology epoch members and the induced CSR reflect; it
	// advances in place over a gap that changed no edge inside the community.
	topo atomic.Uint64
	// seq is a timeline point at topo, the latest a reader has recorded:
	// where the journal gap to a later topology starts. Any point at topo
	// will do, so readers may race to record theirs.
	seq atomic.Uint64

	views *viewList // shared with the entry's copies

	// Induced-subgraph CSR over members, in local ids (positions in
	// members). Every candidate set an algorithm peels is a subset of
	// members, so the prefix oracle sweeps this dense, cross-community-edge-
	// free adjacency instead of the global CSR, and a query's working set
	// cuts its own CSR out of it (circle.go). A k-core entry builds it before
	// anyone else can see the entry; other structures never use it.
	adjOff   []int32
	adjLocal []int32
}

// buildInduced writes e's induced CSR, its members bound (bindLocal), on
// the storage e has: the rows named in rows (ascending) are read from the
// graph, and runs of the others copied from src, an entry of the same
// members; with no src every row is read. A row lists the member's
// neighbours in ascending global id.
func (s *Searcher) buildInduced(e, src *cacheEntry, rows []int32) {
	n := len(e.members)
	off := sized(e.adjOff, n+1)
	off[0] = 0
	next := 0
	for i, v := range e.members {
		if src == nil || next < len(rows) && rows[next] == int32(i) {
			next++
			off[i+1] = off[i] + s.inducedRow(nil, v)
		} else {
			off[i+1] = off[i] + src.adjOff[i+1] - src.adjOff[i]
		}
	}
	adj := sized(e.adjLocal, int(off[n]))
	if src == nil {
		for i, v := range e.members {
			s.inducedRow(adj[off[i]:off[i+1]], v)
		}
	} else {
		from := int32(0) // the first row of the run still to copy
		for _, r := range rows {
			copy(adj[off[from]:off[r]], src.adjLocal[src.adjOff[from]:src.adjOff[r]])
			s.inducedRow(adj[off[r]:off[r+1]], e.members[r])
			from = r + 1
		}
		copy(adj[off[from]:off[n]], src.adjLocal[src.adjOff[from]:src.adjOff[n]])
	}
	e.adjOff, e.adjLocal = off, adj
}

// inducedRow writes v's neighbours among the bound members, as local ids,
// into dst unless it is nil, and counts them.
func (s *Searcher) inducedRow(dst []int32, v graph.V) int32 {
	d := int32(0)
	for _, u := range s.g.Neighbors(v) {
		if s.localValid.Has(u) {
			if dst != nil {
				dst[d] = s.localOf[u]
			}
			d++
		}
	}
	return d
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

// entrySlot holds a community's published entry: every key leads to it, so
// a newer entry replaces the old one without re-keying the index.
type entrySlot struct {
	next   sync.Mutex
	cur    atomic.Pointer[cacheEntry]
	stored uint64 // the generation that indexed it, 0 once it left: under the store's lock
}

// viewStore memoizes community membership per (member vertex, k). It is
// shared by every searcher of a pool; mu guards the index alone.
type viewStore struct {
	mu       sync.Mutex
	index    map[cacheKey]*entrySlot
	vertices int    // Σ len(members) over the indexed entries
	gen      uint64 // bumped whenever the index is dropped whole

	views   spares[viewVersion]
	entries spares[cacheEntry]
}

// lookup returns the slot of the community covering (v, k), or nil.
func (c *viewStore) lookup(v graph.V, k int) *entrySlot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.index[cacheKey{v, int32(k)}]
}

// put indexes e, in a slot of its own, as the community of (q, k) and
// reports true, unless the store already holds that community at e's
// topology or a later one (a query on a newer snapshot, or one racing this
// one, stored it first): e then serves its query alone. e.members is
// retained; callers must not mutate it afterwards.
//
// fanout keys the entry by every member, so any later query from the same
// community hits it. That is sound only when communities partition vertices
// per k — true for k-core and k-truss (both are connected components of a
// fixed subgraph) but NOT for k-clique percolation, where communities
// overlap at shared vertices; overlapping structures must pass fanout=false
// so the entry is keyed by q alone.
func (c *viewStore) put(q graph.V, k int, e *cacheEntry, fanout bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{q, int32(k)}
	if old := c.index[key]; old != nil {
		if old.cur.Load().topo.Load() >= e.topo.Load() {
			return false
		}
		c.removeLocked(old, q, k)
	}
	if c.index == nil || c.vertices+len(e.members) > maxCachedVertices {
		c.index = make(map[cacheKey]*entrySlot)
		c.vertices = 0
		c.gen++
	}
	sl := &entrySlot{stored: c.gen}
	sl.cur.Store(e)
	if e.members == nil || !fanout {
		c.index[key] = sl
	} else {
		for _, v := range e.members {
			c.index[cacheKey{v, int32(k)}] = sl
		}
	}
	c.vertices += len(e.members)
	return true
}

// remove drops sl, found under (q, k), and every key that leads to it.
func (c *viewStore) remove(sl *entrySlot, q graph.V, k int) {
	c.mu.Lock()
	c.removeLocked(sl, q, k)
	c.mu.Unlock()
}

func (c *viewStore) removeLocked(sl *entrySlot, q graph.V, k int) {
	if sl.stored != c.gen || sl.stored == 0 { // dropped already, or with the whole index
		return
	}
	if key := (cacheKey{q, int32(k)}); c.index[key] == sl {
		delete(c.index, key)
	}
	members := sl.cur.Load().members
	for _, v := range members {
		if key := (cacheKey{v, int32(k)}); c.index[key] == sl {
			delete(c.index, key)
		}
	}
	c.vertices -= len(members)
	sl.stored = 0
}

// viewFor returns q's slot in l, moved to the front and busy for the caller
// until refreshView ends, or nil: q answers on a private version. A vertex
// seen again has its slot protected, or gets a protected one: a new one
// under the cap, else the least recently used protected one. A vertex seen
// for the first time is remembered and gets a probationary slot: a new one
// under maxTrialViews, else the least recently used probationary one that
// no query is using — or none, so that it never waits on another's build.
// A replaced slot's version stays published until q's replaces it.
func (l *viewList) viewFor(q graph.V) *viewSlot {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := slices.IndexFunc(l.views, func(sl *viewSlot) bool { return sl.q == q })
	seen := i >= 0 || slices.Contains(l.seen[:min(l.sightings, seenOnce)], q)
	switch {
	case !seen:
		l.seen[l.sightings%seenOnce] = q
		l.sightings++
		if l.trials < maxTrialViews {
			l.views = append(l.views, &viewSlot{trial: true})
			l.trials++
		}
		if i = l.lastOf(true); i < 0 {
			return nil
		}
		l.views[i].q = q
	case i < 0:
		if i = l.lastOf(false); len(l.views)-l.trials < maxViewsPerEntry-maxTrialViews {
			l.views = append(l.views, &viewSlot{})
			i = len(l.views) - 1
		}
		l.views[i].q = q
	}
	sl := l.views[i]
	copy(l.views[1:i+1], l.views[:i])
	l.views[0] = sl
	if seen && sl.trial {
		// Protected now; if that overflows the protected LRU, its least
		// recently used slot turns probationary.
		sl.trial = false
		if l.trials--; len(l.views)-l.trials > maxViewsPerEntry-maxTrialViews {
			l.views[l.lastOf(false)].trial = true
			l.trials++
		}
	}
	sl.busy.Add(1)
	return sl
}

// lastOf returns the index of the least recently used slot that is
// probationary (trial) and idle, or protected (!trial); -1 if none is.
func (l *viewList) lastOf(trial bool) int {
	for i := len(l.views) - 1; i >= 0; i-- {
		if sl := l.views[i]; sl.trial == trial && (!trial || sl.busy.Load() == 0) {
			return i
		}
	}
	return -1
}

// PublishedViews counts the view versions published for the community the
// store holds under (q, k), with the member slots they hold: what the
// community's views cost, for tests and benchmarks to report. It reads the
// store alone, and only at rest: with no query in flight.
func PublishedViews(s *Searcher, q graph.V, k int) (views, slots int) {
	sl := s.store.lookup(q, k)
	if sl == nil {
		return 0, 0
	}
	l := sl.cur.Load().views
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, v := range l.views {
		if vw := v.cur.Load(); vw != nil {
			views++
			slots += len(vw.verts)
		}
	}
	return views, slots
}

// enter returns the entry of (q, k) at the searcher's topology, pinned until
// release, as curEntry (what an earlier call left pinned is let go first);
// hit reports that it came from the store. Without a current stored entry
// the community is walked afresh and stored — unless by then the store
// holds it at this topology or a later one, and the new entry then serves
// this query alone.
func (s *Searcher) enter(q graph.V, k int) (e *cacheEntry, hit bool) {
	s.release()
	if e = s.current(q, k); e == nil {
		now := s.now()
		members := s.communityOf(q, k)
		e = s.spareEntry(len(members))
		e.members, e.views = members, &viewList{}
		e.topo.Store(now.topo)
		e.seq.Store(now.seq())
		if s.structure == StructureKCore && e.members != nil {
			s.bindLocal(e)
			s.buildInduced(e, nil, nil)
		}
		// k-clique communities overlap (clique percolation), so their entries
		// are keyed by the query vertex alone; k-core and k-truss communities
		// partition vertices per k and fan out to every member.
		if !s.store.put(q, k, e, s.structure != StructureKClique) {
			e.pins.retire()
		}
	} else {
		hit = true
	}
	s.curEntry, s.pinnedEntry = e, e
	return e, hit
}

// current returns the stored entry of (q, k) brought to the searcher's
// topology and pinned, or nil: the store holds none, holds one ahead of this
// reader's snapshot (entries only move forward), or a topology change since
// the entry's stamp invalidated it (bringForward).
func (s *Searcher) current(q graph.V, k int) *cacheEntry {
	now := s.now()
	for {
		sl := s.store.lookup(q, k)
		if sl == nil {
			return nil
		}
		e := sl.cur.Load()
		if !e.pins.pin() {
			continue // replaced: the store leads elsewhere by now
		}
		if sl.cur.Load() != e { // replaced, recycled and made again meanwhile
			s.unpinEntry(e)
			continue
		}
		topo := e.topo.Load()
		if topo == now.topo {
			if now.seq() > e.seq.Load() {
				e.seq.Store(now.seq())
			}
			return e
		}
		forward := topo < now.topo && s.bringForward(sl, e, q, k)
		s.unpinEntry(e)
		if !forward {
			return nil
		}
	}
}

// bringForward absorbs the topology changes since the stamp of e, sl's
// entry found under (q, k) and pinned by the caller, and reports whether to
// ask the store again: false when they invalidated the community, which
// leaves the store. Queries bringing e forward take turns; one that finds it
// done or replaced returns at once. What the community survives revalidate
// absorbs, into a copy that replaces e in its slot while e's readers finish
// on it, or by advancing e's stamp.
func (s *Searcher) bringForward(sl *entrySlot, e *cacheEntry, q graph.V, k int) bool {
	sl.next.Lock()
	defer sl.next.Unlock()
	if e.pins.retired() || e.topo.Load() >= s.now().topo {
		return true
	}
	c, kept := s.revalidate(e, q, k)
	if kept && c == e {
		return true
	}
	// Nothing may lead to e once it is retired.
	if kept {
		sl.cur.Store(c)
		s.unpinEntry(c)
	} else {
		s.store.remove(sl, q, k)
	}
	if e.pins.retire() {
		s.recycleEntry(e)
	}
	if !kept {
		s.stats.EntriesDropped++
	}
	return kept
}

// release unpins what the query in flight pinned; curEntry and curView
// still name it, for tests to inspect.
func (s *Searcher) release() {
	if e := s.pinnedEntry; e != nil {
		s.unpinEntry(e)
	}
	if vw := s.pinnedView; vw != nil {
		s.unpinView(vw)
	}
	s.pinnedEntry, s.pinnedView = nil, nil
}

func (s *Searcher) unpinEntry(e *cacheEntry) {
	if e.pins.unpin() {
		s.recycleEntry(e)
	}
}

// spareEntry returns an entry to fill for n members, claimed by the
// searcher: one off the free list unless its CSR is over twice that.
func (s *Searcher) spareEntry(n int) *cacheEntry {
	e := s.store.entries.take()
	if e == nil || cap(e.adjOff) > 2*n+64 {
		e = &cacheEntry{}
	}
	e.pins.claim()
	return e
}

// recycleEntry hands a replaced entry nobody reads to the store's free list,
// keeping its CSR's storage; its members and views live on in its successor.
func (s *Searcher) recycleEntry(e *cacheEntry) {
	e.members, e.views, e.adjOff, e.adjLocal = nil, nil, e.adjOff[:0], e.adjLocal[:0]
	s.store.entries.keep(e)
}
