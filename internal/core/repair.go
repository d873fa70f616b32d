package core

import (
	"cmp"
	"slices"
	"sort"

	"sacsearch/internal/graph"
)

// Journal-driven cache repair. A cache entry or a sorted view that is behind
// the searcher's graph — the graph was mutated in place, or a pooled worker
// adopted a newer snapshot — asks the graph's mutation journal what happened
// since its stamp and absorbs exactly that. What the journal cannot answer
// (the ring was lapped, or the stamp lies in the graph's future because the
// worker went back to an older snapshot) and what is too large to be worth
// patching falls back to the from-scratch path, which first use takes anyway.
// Which path runs is decided by the journal alone.

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
	// maxSplicedRows bounds the induced-CSR rows patched in place before the
	// CSR is rebuilt. A splice moves the tail of the arc array, 0.17 ms a row
	// against 3.7 ms for buildInduced, both linear in the community: the
	// break-even is near 22 rows at any size, and the 512 rows a full journal
	// can name would take 85 ms. single_churn patched exactly 2 rows every
	// time; only TestRepairMatchesFresh* runs the rebuild side.
	maxSplicedRows = 16
	// maxFreeOracles is the number of invalidated oracles whose buffers are
	// kept for the next builds; an edge op invalidates every view of a
	// community at once and only the few queried next are rebuilt.
	// single_churn: 2 % of releases found the list full, 6 % of builds found
	// no buffer and allocated.
	maxFreeOracles = 4
)

// repairScratch is the working memory of the repair paths plus the free list
// of prefix-oracle buffers. It belongs to one Searcher.
type repairScratch struct {
	gap   []graph.Write
	moved []movedMember
	rows  []int32    // local ids of members whose induced row changed
	cuts  [][2]int32 // local endpoints of in-community edges the gap removed
	side  [2][]int32 // the two BFS queues of connectedInside

	freeOracles []prefixOracle // buffers only; built is false
}

// movedMember is a member taken out of a view's order for reinsertion.
type movedMember struct {
	v    graph.V
	dist float64
	rank int32 // where it sat
}

// releaseOracle invalidates vw's oracle and hands its buffers to the free
// list (or, when that is full, to the collector): an invalid oracle's memory
// should serve the next build, whichever view that is for.
func (s *Searcher) releaseOracle(vw *sortedView) {
	o := &vw.oracle
	if cap(o.comm) > 0 && len(s.rep.freeOracles) < maxFreeOracles {
		s.rep.freeOracles = append(s.rep.freeOracles, prefixOracle{comm: o.comm[:0], joinAt: o.joinAt[:0]})
	}
	*o = prefixOracle{}
}

// adoptOracleBuffers gives an oracle without buffers a pair off the free
// list, if there is one.
func (s *Searcher) adoptOracleBuffers(o *prefixOracle) {
	if n := len(s.rep.freeOracles); n > 0 && cap(o.comm) == 0 {
		o.comm, o.joinAt = s.rep.freeOracles[n-1].comm, s.rep.freeOracles[n-1].joinAt
		s.rep.freeOracles[n-1] = prefixOracle{}
		s.rep.freeOracles = s.rep.freeOracles[:n-1]
	}
}

// revalidate brings e, found under (q, k), up to the graph's topology, or
// drops it from the cache and reports false.
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
// A kept entry's induced CSR is patched row by row and, if any row changed,
// the oracles of all its views are invalidated. k-truss and k-clique entries
// have no such test and are dropped on any edge op, as is any entry whose
// gap the journal cannot produce.
func (s *Searcher) revalidate(e *cacheEntry, q graph.V, k int) bool {
	// With no edge op since the stamp there is nothing to absorb, and moving
	// the stamp up keeps the next gap short of the check-ins in between.
	now := s.now()
	if e.at.topo == now.topo || s.topologyAbsorbed(e, q, k) {
		e.at = now
		return true
	}
	s.cache.remove(e, q, k)
	if s.localEntry == e {
		s.localEntry = nil
	}
	for i := range e.views {
		s.releaseOracle(&e.views[i])
	}
	s.stats.EntriesDropped++
	return false
}

// topologyAbsorbed runs revalidate's keep test and patches e's induced CSR.
func (s *Searcher) topologyAbsorbed(e *cacheEntry, q graph.V, k int) bool {
	if s.structure != StructureKCore {
		return false
	}
	kk := int32(k)
	if e.members == nil {
		return s.cores[q] < kk
	}
	gap, ok := s.g.MutationsSince(e.at.seq(), s.rep.gap[:0])
	s.rep.gap = gap
	if !ok {
		return false
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
			return false // (b)
		}
	}
	if removals { // insertions never lower a core number
		for _, v := range e.members {
			if s.cores[v] < kk {
				return false // (a)
			}
		}
	}
	if len(rows) == 0 {
		return true // nothing inside M changed: the CSR and the oracles stand
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	if e.adjOff == nil || len(rows) > maxSplicedRows {
		e.buildInduced(s.g, s.localOf, s.localValid)
	} else {
		for _, lv := range rows {
			e.respliceRow(s.g, lv, s.localOf, s.localValid)
		}
	}
	for _, c := range cuts {
		if !s.connectedInside(e, c[0], c[1]) {
			return false // (c)
		}
	}
	for i := range e.views {
		s.releaseOracle(&e.views[i])
	}
	return true
}

// respliceRow recomputes member lv's row of the induced CSR from the graph
// and splices it in, moving the tail of the arc array when the row's length
// changed. The result is what buildInduced would produce.
func (e *cacheEntry) respliceRow(g *graph.Graph, lv int32, localOf []int32, valid *graph.Marker) {
	nbrs := g.Neighbors(e.members[lv])
	deg := int32(0)
	for _, u := range nbrs {
		if valid.Has(u) {
			deg++
		}
	}
	lo, hi := e.adjOff[lv], e.adjOff[lv+1]
	if d := deg - (hi - lo); d != 0 {
		total := int32(len(e.adjLocal))
		moved := slices.Grow(e.adjLocal, max(int(d), 0))[:total+d]
		copy(moved[hi+d:], e.adjLocal[hi:total])
		e.adjLocal = moved
		for i := int(lv) + 1; i < len(e.adjOff); i++ {
			e.adjOff[i] += d
		}
	}
	at := lo
	for _, u := range nbrs {
		if valid.Has(u) {
			e.adjLocal[at] = localOf[u]
			at++
		}
	}
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

// refreshView returns q's view of e in current (distance, id) order. A view
// behind the graph's locations takes each member that checked in since its
// stamp out of the order and reinserts it at its new rank; a check-in of a
// non-member costs nothing. q's own move changes every key, so it — like
// more than maxRepositioned moved members, a gap out of the journal's reach,
// or a slot that held another vertex's view — is sorted from scratch. The
// prefix oracle depends on the order alone (and on induced edges, which
// revalidate watches), so it stands unless a member's rank changed.
func (s *Searcher) refreshView(e *cacheEntry, q graph.V) *sortedView {
	now := s.now()
	vw, held := e.viewFor(q)
	switch {
	case held && vw.at.loc == now.loc:
		s.stats.ViewHits++
	case held && s.reposition(vw, q):
		// brought current (or found untouched) from the journal
	default:
		vw.verts = append(vw.verts[:0], e.members...)
		s.sortAround(q, vw.verts)
		vw.oracle.built = false
		s.stats.ViewRebuilds++
	}
	vw.at = now
	return vw
}

// reposition repairs vw's order from the journal, reporting false when the
// view must be sorted from scratch instead. e is bound (bindLocal), so
// localValid answers membership.
func (s *Searcher) reposition(vw *sortedView, q graph.V) bool {
	gap, ok := s.g.MutationsSince(vw.at.seq(), s.rep.gap[:0])
	s.rep.gap = gap
	if !ok {
		return false
	}
	// The distinct members that moved, marked in inX (free between queries).
	s.inX.Reset()
	nMoved := 0
	for _, m := range gap {
		if m.Kind != graph.WriteCheckin || !s.localValid.Has(m.V) || s.inX.Has(m.V) {
			continue
		}
		if m.V == q || nMoved == maxRepositioned {
			return false
		}
		s.inX.Mark(m.V)
		nMoved++
	}
	if nMoved == 0 {
		s.stats.ViewHits++
		return true
	}
	s.stats.ViewRepairs++

	// Take the moved members out; the rest keep their keys and their order.
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
	// members that precede it and the j moved ones that do.
	changed := false
	for j := len(moved) - 1; j >= 0; j-- {
		mv := moved[j]
		idx := sort.Search(kept, func(i int) bool {
			d := distFrom(qp, locs, verts[i])
			return d > mv.dist || d == mv.dist && verts[i] > mv.v
		})
		copy(verts[idx+j+1:kept+j+1], verts[idx:kept])
		verts[idx+j] = mv.v
		changed = changed || int32(idx+j) != mv.rank
		kept = idx
	}
	// The kept members fill the other ranks in unchanged relative order, so
	// the order is the old one exactly when every moved member is back at
	// the rank it left.
	if changed {
		s.releaseOracle(vw)
	}
	return true
}
