package core

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"sacsearch/internal/graph"
)

// Journal-driven cache repair. A cache entry or a view that is behind the
// searcher's graph — the graph was mutated in place, or the query is pinned
// to a newer snapshot than the last one to touch it — asks the graph's
// mutation journal what happened since its stamp and absorbs exactly that,
// into a copy that replaces it (cache.go). What the journal cannot answer
// (the ring was lapped) and what is too large to be worth patching falls
// back to the from-scratch path, which first use takes anyway. A stamp in
// the graph's future — a query pinned to an older snapshot — is never
// repaired backwards: that query answers from a version of its own.
//
// A view's prefix oracle follows the same way: a check-in that moves a
// member to another rank, or an edge op inside the community, goes on the
// record of the gap, and the copy's oracle is repaired from what the old
// version kept over what the record can have changed (oracle.go, "Repair").
// A version whose oracle kept no state to repair from (a view built once),
// or whose record is too long, starts its oracle from nothing.

// The limits are set from measurements (CHANGES.md, PR 17, has the runs): in
// process on syn1@1.0, one community of 30 000 members and 600 k induced
// arcs, and counted at each decision point over two single_churn runs.
const (
	// maxRepositioned bounds the members a view moves one by one before it
	// re-sorts. The break-even is about n/20 moved members (~1 µs each on top
	// of a pass over the view, against 47 ns a member sorted), so 64 is right
	// for a view of 1 300 and conservative above: at 30 000 members, moving
	// 64 costs 0.09 ms and the re-sort 1.41 ms. single_churn: 2 moved members
	// at the median, 19 at p90, 1.5 % of stale views over the limit.
	maxRepositioned = 64
	// maxSpare is the number of replaced view versions, and of replaced
	// entries, a store keeps, buffers and all, for the next ones its
	// searchers make: what one write's repairs recycle, and nothing that
	// would keep an idle view's answer alive.
	maxSpare = 4
)

// repairScratch is the working memory of the repair paths. It belongs to one
// Searcher.
type repairScratch struct {
	gap   []graph.Write
	moved []movedMember
	rows  []int32    // local ids of members whose induced row changed
	cuts  [][2]int32 // local endpoints of in-community edges the gap removed
	side  [2][]int32 // the two BFS queues of connectedInside

	// The record of a view's gap: the check-ins that changed a member's rank
	// and the induced edge ops, what its oracle's repair settles.
	moves []moveOp
	edges []edgeOp
}

// movedMember is a member taken out of a view's order for reinsertion.
type movedMember struct {
	v    graph.V
	dist float64
	rank int32 // where it sat
}

// spares is a store's free list of replaced view versions or entries that
// their last reader let go of, buffers and all, for whichever searcher makes
// the next ones.
type spares[T any] struct {
	mu   sync.Mutex
	list []*T
}

func (sp *spares[T]) take() (x *T) {
	sp.mu.Lock()
	if n := len(sp.list); n > 0 {
		x, sp.list = sp.list[n-1], sp.list[:n-1]
	}
	sp.mu.Unlock()
	return x
}

func (sp *spares[T]) keep(x *T) {
	sp.mu.Lock()
	if len(sp.list) < maxSpare {
		sp.list = append(sp.list, x)
	}
	sp.mu.Unlock()
}

// sized returns b at length n, on its own storage when that holds n.
func sized(b []int32, n int) []int32 { return slices.Grow(b[:0], n)[:n] }

// revalidate brings e, found under (q, k) behind the graph's topology, up to
// it: it returns e with its stamp advanced when no edge inside the community
// changed, a copy of e with its CSR patched when one did, or false: the
// community did not survive, or the journal cannot say.
//
// A negative entry records core(q) < k, which the current core numbers
// confirm or refute directly. A k-core entry (M, k) stamped at an older
// graph G0 is kept iff, on the current graph G1,
//
//	(a) every member still has core number ≥ k;
//	(b) no edge inserted in the gap and still present joins two vertices of
//	    core number ≥ k, unless both are members;
//	(c) the endpoints of every edge with both ends in M that the gap removed
//	    are still connected inside G1[M].
//
// Then M is exactly q's component C1 of G1's k-core. M ⊆ C1: every edge of
// G0[M] is either still present or, by (c), bridged inside G1[M], so G1[M] is
// connected, and by (a) it lies in the k-core. C1 ⊆ M: let Y = C1 \ M. All
// of C1 has core number ≥ k, so by (b) every edge of G1[C1] with an end in Y
// is an old edge, present in G0 as well. Each y ∈ Y has ≥ k neighbors in C1
// over such edges, and each m ∈ M had ≥ k neighbors in M on G0, so G0[M ∪ Y]
// has minimum degree ≥ k; and G1[C1] is connected, so a path from y to M
// that stops at its first member runs over old edges only. Hence Y would
// have been in M's component of G0's k-core, which is M itself — Y is empty.
//
// A kept entry's copy reads the rows the gap changed from the graph and
// copies the rest (buildInduced); each view's oracle records the edge ops
// inside M when the view next comes forward (readGap). k-truss and k-clique
// entries have no such test and are dropped on any edge op, as is any entry
// whose gap the journal cannot produce.
func (s *Searcher) revalidate(e *cacheEntry, q graph.V, k int) (*cacheEntry, bool) {
	if s.structure != StructureKCore {
		return nil, false
	}
	now := s.now()
	advance := func() (*cacheEntry, bool) {
		e.seq.Store(now.seq())
		e.topo.Store(now.topo)
		return e, true
	}
	kk := int32(k)
	if e.members == nil {
		if s.cores[q] >= kk {
			return nil, false
		}
		return advance()
	}
	gap, ok := s.g.MutationsSince(e.seq.Load(), s.rep.gap[:0])
	s.rep.gap = gap
	if !ok {
		return nil, false
	}
	s.bindLocal(e)
	rows, cuts := s.rep.rows[:0], s.rep.cuts[:0]
	defer func() { s.rep.rows, s.rep.cuts = rows, cuts }()
	removals := false
	for _, m := range gap {
		if m.Kind == graph.WriteCheckin {
			continue
		}
		removals = removals || m.Kind == graph.WriteRemoveEdge
		if s.localValid.Has(m.V) && s.localValid.Has(m.W) {
			lu, lw := s.localOf[m.V], s.localOf[m.W]
			rows = append(rows, lu, lw)
			if m.Kind == graph.WriteRemoveEdge {
				cuts = append(cuts, [2]int32{lu, lw})
			}
		} else if m.Kind == graph.WriteAddEdge &&
			s.cores[m.V] >= kk && s.cores[m.W] >= kk && s.g.HasEdge(m.V, m.W) {
			return nil, false // (b)
		}
	}
	if removals { // insertions never lower a core number
		for _, v := range e.members {
			if s.cores[v] < kk {
				return nil, false // (a)
			}
		}
	}
	if len(rows) == 0 {
		return advance() // nothing inside M changed: the CSR stands
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	c := s.spareEntry(len(e.members))
	c.members, c.views = e.members, e.views
	c.topo.Store(now.topo)
	c.seq.Store(now.seq())
	s.buildInduced(c, e, rows)
	for _, cut := range cuts {
		if !s.connectedInside(c, cut[0], cut[1]) {
			c.pins.retire()
			s.unpinEntry(c)
			return nil, false // (c)
		}
	}
	return c, true
}

// connectedInside reports whether members a and b (local ids) are connected
// in e's induced subgraph: a BFS from each end, always advancing the side
// with the shorter backlog, until one reaches a vertex the other has seen or
// runs dry. On a dense community the two meet after a few hundred vertices.
// The two seen-sets are the searcher's vertex markers, free while a candidate
// set is being built and as good over local ids as over global ones.
func (s *Searcher) connectedInside(e *cacheEntry, a, b int32) bool {
	if a == b {
		return true
	}
	seen := [2]*graph.Marker{s.inX, s.visited}
	queue := [2][]int32{append(s.rep.side[0][:0], a), append(s.rep.side[1][:0], b)}
	defer func() { s.rep.side = queue }()
	seen[0].Reset()
	seen[1].Reset()
	seen[0].Mark(a)
	seen[1].Mark(b)
	var head [2]int
	for head[0] < len(queue[0]) && head[1] < len(queue[1]) {
		side := 0
		if len(queue[1])-head[1] < len(queue[0])-head[0] {
			side = 1
		}
		x := queue[side][head[side]]
		head[side]++
		for _, y := range e.adjLocal[e.adjOff[x]:e.adjOff[x+1]] {
			if seen[1-side].Has(y) {
				return true
			}
			if !seen[side].Has(y) {
				seen[side].Mark(y)
				queue[side] = append(queue[side], y)
			}
		}
	}
	return false
}

// refreshView returns q's view of e at the searcher's stamp, pinned until
// release, or nil when the query's context fired first. A current version
// serves as it stands; one behind is brought forward and published by one
// query at a time (the slot's next); for one ahead of the query's snapshot,
// or a first sighting of q that finds no probationary slot free (viewFor),
// the query makes a version of its own and publishes nothing.
func (s *Searcher) refreshView(e *cacheEntry, q graph.V, k int) *viewVersion {
	now := s.now()
	sl := e.views.viewFor(q)
	if sl == nil {
		return s.privateView(e, q, k, now)
	}
	defer sl.busy.Add(-1)
	vw := s.loadView(sl, q)
	if vw == nil || vw.at.before(now) {
		if vw != nil {
			s.unpinView(vw)
		}
		sl.next.Lock()
		if vw = s.loadView(sl, q); vw == nil || vw.at.before(now) {
			nv := s.makeView(e, vw, q, k, now)
			if nv != nil {
				if prev := sl.cur.Swap(nv); prev != nil && prev.pins.retire() {
					s.recycleView(prev)
				}
			}
			if vw != nil {
				s.unpinView(vw)
			}
			sl.next.Unlock()
			return nv
		}
		sl.next.Unlock()
	}
	if vw.at == now {
		s.stats.ViewHits++
		return vw
	}
	s.unpinView(vw)
	return s.privateView(e, q, k, now)
}

// privateView makes q's view of e at now for the query alone: published in
// no slot, it is retired at once, and the query's release recycles it.
func (s *Searcher) privateView(e *cacheEntry, q graph.V, k int, now stamp) *viewVersion {
	vw := s.makeView(e, nil, q, k, now)
	if vw != nil {
		vw.pins.retire()
	}
	return vw
}

// makeView makes q's view of e at now, pinned and not published, or nil when
// the query's context fired first. A copy of old, q's view at an earlier
// stamp, absorbs the journal's gap: moved members go to their new ranks and
// the oracle is repaired (oracle.go, "Repair"). Without old, or past what a
// repair pays for, the members are sorted afresh and the oracle built anew.
func (s *Searcher) makeView(e *cacheEntry, old *viewVersion, q graph.V, k int, now stamp) *viewVersion {
	moved, repair := 0, false
	if old != nil {
		moved, repair = s.readGap(old.at, q)
	}
	vw := s.spareView(len(e.members))
	vw.q, vw.at = q, now
	o := &vw.oracle
	var from *prefixOracle
	switch {
	case repair:
		// The order, and the join forest a repair re-points; the repair
		// reads the rest of the old oracle where it stands.
		from = &old.oracle
		vw.verts = append(vw.verts[:0], old.verts...)
		o.builds, o.kept = from.builds, from.kept
		o.parent = append(o.parent[:0], from.parent...)
		if moved == 0 {
			s.stats.ViewHits++
			if len(s.rep.edges) == 0 { // nothing any algorithm reads changed
				vw.standAs(old)
				return vw
			}
		} else {
			s.stats.ViewRepairs++
			s.moveMembers(vw, q)
		}
	default:
		vw.verts = append(vw.verts[:0], e.members...)
		s.sortAround(q, vw.verts)
		if old != nil { // q's view again: its build count goes on
			o.builds = old.oracle.builds
		}
		s.stats.ViewRebuilds++
	}
	if s.structure == StructureKCore && !s.buildPrefixOracle(e, vw, from, q, k) {
		vw.pins.retire()
		s.unpinView(vw)
		return nil
	}
	return vw
}

// standAs makes vw, a copy of old's order at a later stamp, stand for old:
// it takes old's oracle and old's finished answer over as they stand. makeView
// calls it when the journal's gap between the two stamps checked no member
// in and added or removed no edge between two members; the entry both views
// belong to is current, and old's members are its members, so X is the same
// set. Every registered algorithm's answer is a function of X, the edges
// inside X and its members' locations (theta.go's lemma, θ-SAC included;
// the others read nothing else), and the gap changed none of the three: so
// the answer finished on old is the answer on vw's state, stats and all.
func (vw *viewVersion) standAs(old *viewVersion) {
	vw.oracle.standAs(&old.oracle)
	vw.answer.Store(old.answer.Load())
}

// loadView returns sl's published version of q pinned, or nil.
func (s *Searcher) loadView(sl *viewSlot, q graph.V) *viewVersion {
	for {
		vw := sl.cur.Load()
		if vw == nil {
			return nil
		}
		if vw.pins.pin() {
			if sl.cur.Load() == vw { // else replaced, recycled and made again meanwhile
				if vw.q == q {
					return vw
				}
				s.unpinView(vw)
				return nil
			}
			s.unpinView(vw)
		}
	}
}

func (s *Searcher) unpinView(vw *viewVersion) {
	if vw.pins.unpin() {
		s.recycleView(vw)
	}
}

// spareView returns a version to fill for n members, claimed by the
// searcher: one off the free list unless its buffers are over twice that.
func (s *Searcher) spareView(n int) *viewVersion {
	vw := s.store.views.take()
	if vw == nil || cap(vw.verts) > 2*n+64 {
		vw = &viewVersion{}
	}
	vw.pins.claim()
	return vw
}

// recycleView hands a replaced version nobody reads to the store's free
// list, keeping its buffers' storage.
func (s *Searcher) recycleView(vw *viewVersion) {
	o := &vw.oracle
	*o = prefixOracle{comm: o.comm[:0], joinAt: o.joinAt[:0], coreAt: o.coreAt[:0], parent: o.parent[:0]}
	vw.verts = vw.verts[:0]
	vw.answer.Store(nil)
	s.store.views.keep(vw)
}

// readGap reads the journal's gap since at for a view of q: it marks in inX
// the members that checked in, records the edge ops between two members in
// the record, and reports how many members moved. It reports false when the
// view must be sorted afresh instead: the journal no longer reaches at, q
// itself moved (which changes every key), or more than maxRepositioned
// members did. The view's entry is bound (bindLocal), so localValid answers
// membership.
func (s *Searcher) readGap(at stamp, q graph.V) (moved int, ok bool) {
	gap, ok := s.g.MutationsSince(at.seq(), s.rep.gap[:0])
	s.rep.gap = gap
	s.rep.moves, s.rep.edges = s.rep.moves[:0], s.rep.edges[:0]
	if !ok {
		return 0, false
	}
	s.inX.Reset()
	for _, m := range gap {
		switch {
		case m.Kind != graph.WriteCheckin:
			if s.localValid.Has(m.V) && s.localValid.Has(m.W) {
				s.rep.edges = append(s.rep.edges, edgeOp{u: s.localOf[m.V], w: s.localOf[m.W], insert: m.Kind == graph.WriteAddEdge})
			}
		case !s.localValid.Has(m.V) || s.inX.Has(m.V):
		case m.V == q || moved == maxRepositioned:
			return 0, false
		default:
			s.inX.Mark(m.V)
			moved++
		}
	}
	return moved, true
}

// moveMembers takes the members readGap marked out of vw's order and
// reinserts them at their new ranks, recording each one that changed rank.
// The rest keep their keys and their order.
func (s *Searcher) moveMembers(vw *viewVersion, q graph.V) {
	verts := vw.verts
	moved := s.rep.moved[:0]
	kept := 0
	for rank, v := range verts {
		if s.inX.Has(v) {
			moved = append(moved, movedMember{v: v, rank: int32(rank)})
		} else {
			verts[kept] = v
			kept++
		}
	}
	qp, locs := s.g.Loc(q), s.g.Locs()
	for i := range moved {
		moved[i].dist = distFrom(qp, locs, moved[i].v)
	}
	slices.SortFunc(moved, func(a, b movedMember) int {
		return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.v, b.v))
	})
	s.rep.moved = moved

	// Merge them back in from the far end: moved[j] lands after the idx kept
	// members that precede it and the j moved ones that do. The kept members
	// fill the other ranks in unchanged relative order, so a prefix holds
	// another set only if some moved member crossed its end: the lengths
	// between its old and new rank are what it dirties.
	for j := len(moved) - 1; j >= 0; j-- {
		mv := moved[j]
		idx := sort.Search(kept, func(i int) bool {
			d := distFrom(qp, locs, verts[i])
			return d > mv.dist || d == mv.dist && verts[i] > mv.v
		})
		copy(verts[idx+j+1:kept+j+1], verts[idx:kept])
		verts[idx+j] = mv.v
		if at := int32(idx + j); at != mv.rank {
			op := moveOp{lv: s.localOf[mv.v], from: mv.rank, to: at}
			if len(moved) > 1 {
				op.lv = -1
			}
			s.rep.moves = append(s.rep.moves, op)
		}
		kept = idx
	}
}
