package core

import (
	"cmp"
	"slices"
	"sort"

	"sacsearch/internal/graph"
)

// Journal-driven cache repair. A cache entry or a sorted view that is behind
// the searcher's graph — the graph was mutated in place, or the query is
// pinned to a newer snapshot than the last one to touch it — asks the graph's
// mutation journal what happened since its stamp and absorbs exactly that.
// What the journal cannot answer (the ring was lapped) and what is too large
// to be worth patching falls back to the from-scratch path, which first use
// takes anyway. A stamp in the graph's future — a query pinned to an older
// snapshot — is never repaired backwards: that query answers from state of
// its own (cache.go).
//
// A view's prefix oracle follows the same way: a check-in that moves a
// member to another rank, or an edge op inside the community, records the
// prefix lengths it may have changed, and the next probe repairs those
// (oracle.go, "Repair"). An oracle is still released — all its buffers to
// the free list — when its entry is dropped, its view is recycled for
// another vertex or re-sorted from scratch, or when it kept no state to
// repair from (a view built once): the next build starts from nothing.

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
	// maxFreeBuffers is the number of oracle buffers kept for the next
	// builds. An oracle taken out of service hands back its answer's
	// buffers — a repairable one keeps its coreAt and its old joinAt — and
	// one released (see above) hands back all of them. A single_churn write
	// takes every hot view out of service at once and only the few queried
	// next are rebuilt, so the list holds what those need, two buffers a
	// view, and nothing that would keep an idle view's answer alive.
	maxFreeBuffers = 8
)

// repairScratch is the working memory of the repair paths plus the free list
// of prefix-oracle buffers. It belongs to one Searcher.
type repairScratch struct {
	gap   []graph.Write
	moved []movedMember
	rows  []int32    // local ids of members whose induced row changed
	cuts  [][2]int32 // local endpoints of in-community edges the gap removed
	side  [2][]int32 // the two BFS queues of connectedInside

	free [][]int32 // oracle buffers (comm, joinAt, coreAt, joinOf), length 0
}

// movedMember is a member taken out of a view's order for reinsertion.
type movedMember struct {
	v    graph.V
	dist float64
	rank int32 // where it sat
}

// freeBuf hands b to the free list, or to the collector when the list is
// full.
func (s *Searcher) freeBuf(b []int32) {
	if cap(b) > 0 && len(s.rep.free) < maxFreeBuffers {
		s.rep.free = append(s.rep.free, b[:0])
	}
}

// takeBuf returns b when it has storage, else a buffer off the free list, if
// there is one.
func (s *Searcher) takeBuf(b []int32) []int32 {
	if n := len(s.rep.free); cap(b) == 0 && n > 0 {
		b = s.rep.free[n-1]
		s.rep.free[n-1] = nil
		s.rep.free = s.rep.free[:n-1]
	}
	return b
}

// releaseOracle drops o and hands all its buffers to the free list: its
// memory should serve the next build, whichever view that is for. builds
// survives; the caller resets it when the view changes hands.
func (s *Searcher) releaseOracle(o *prefixOracle) {
	s.freeBuf(o.comm)
	s.freeBuf(o.joinAt)
	s.freeBuf(o.coreAt)
	s.freeBuf(o.joinOf)
	*o = prefixOracle{builds: o.builds, dirty: o.dirty[:0], edges: o.edges[:0]}
}

// staleOracle takes o out of service until its next build and reports
// whether it keeps the state a repair starts from, with room for one more
// record; when it does not, it is released. A built oracle hands back its
// answer — comm, and the memo — keeping, if it is repairable, its joinAt
// turned from answer order into local ids over the same buffer. s.localOf
// must be bound to o's entry.
func (s *Searcher) staleOracle(o *prefixOracle) bool {
	if o.built.Load() {
		o.built.Store(false)
		o.memo = answerMemo{}
		if !o.kept {
			s.releaseOracle(o)
			return false
		}
		s.oracleBuf.ensure(len(o.joinAt))
		old := s.oracleBuf.order[:len(o.joinAt)]
		copy(old, o.joinAt)
		for p, v := range o.comm {
			o.joinAt[s.localOf[v]] = old[p]
		}
		s.freeBuf(o.comm)
		o.comm, o.joinAt, o.joinOf = nil, nil, o.joinAt
	}
	if o.kept && len(o.dirty)+len(o.edges) == maxDirty {
		s.releaseOracle(o)
	}
	return o.kept
}

// touchOracle records that o's view may hold another set in the prefixes of
// lengths [a, b].
func (s *Searcher) touchOracle(o *prefixOracle, a, b int32) {
	if s.staleOracle(o) {
		o.dirty = append(o.dirty, [2]int32{a, b})
	}
}

// touchOracleEdge records an edge op between two members.
func (s *Searcher) touchOracleEdge(o *prefixOracle, op edgeOp) {
	if s.staleOracle(o) {
		o.edges = append(o.edges, op)
	}
}

// revalidate brings e, found under (q, k) behind the graph's topology and
// held exclusively by the caller (bringForward), up to it, or reports false:
// the community did not survive, or the journal cannot say, and e's CSR may
// be left half patched.
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
// A kept entry's induced CSR is patched row by row; each view's oracle
// records the edge ops inside M when the view next comes forward
// (reposition). k-truss and k-clique entries have no such test and are
// dropped on any edge op, as is any entry whose gap the journal cannot
// produce.
func (s *Searcher) revalidate(e *cacheEntry, q graph.V, k int) bool {
	if !s.topologyAbsorbed(e, q, k) {
		return false
	}
	now := s.now()
	e.topo.Store(now.topo)
	e.seq.Store(now.seq())
	return true
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
	gap, ok := s.g.MutationsSince(e.seq.Load(), s.rep.gap[:0])
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
		return true // nothing inside M changed: the CSR stands
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	if len(rows) > maxSplicedRows {
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

// refreshView returns q's view of e in current (distance, id) order, held
// shared until release. A view behind the graph's locations takes each
// member that checked in since its stamp out of the order and reinserts it at
// its new rank; a check-in of a non-member costs nothing. q's own move
// changes every key, so it — like more than maxRepositioned moved members, a
// gap out of the journal's reach, or a slot that held another vertex's view —
// is sorted from scratch, and the oracle starts over. The prefix oracle
// depends on the order alone (and on induced edges, which the same gap
// names), so a repositioned view keeps it and records the prefix lengths each
// member that changed rank crossed, and the edge ops inside the community.
//
// One query at a time brings a view forward (fill), and the next finds it
// current. A view ahead of the query's snapshot is left as it stands, and so
// is one behind it that another query is reading: the query then sorts a
// view of its own, as it does when every slot of the entry is held.
func (s *Searcher) refreshView(e *cacheEntry, q graph.V) *sortedView {
	now := s.now()
	for {
		vw, fresh := e.views.viewFor(q)
		if vw == nil {
			return s.ownView(e, q, now)
		}
		if !fresh {
			vw.fill.Lock()
			switch {
			case vw.q != q: // recycled for another vertex in between
				vw.fill.Unlock()
				continue
			case vw.at == now:
				s.stats.ViewHits++
				vw.mu.RLock()
				vw.fill.Unlock()
				return vw
			case now.before(vw.at) || !vw.mu.TryLock():
				vw.fill.Unlock()
				return s.ownView(e, q, now)
			}
		}
		if fresh || !s.reposition(vw, q) {
			s.sortView(e, vw, q, fresh)
		}
		vw.at = now
		vw.share()
		return vw
	}
}

// sortView sorts vw from scratch around q, starting its oracle over; fresh
// says the view just took q, so its build count starts over too.
func (s *Searcher) sortView(e *cacheEntry, vw *sortedView, q graph.V, fresh bool) {
	vw.verts = append(vw.verts[:0], e.members...)
	s.sortAround(q, vw.verts)
	s.releaseOracle(&vw.oracle)
	if fresh {
		vw.oracle.builds = 0
	}
	s.stats.ViewRebuilds++
}

// ownView is the searcher's own view of q in e, for a query the shared one
// cannot serve; it is held like a shared one, so release treats both alike.
func (s *Searcher) ownView(e *cacheEntry, q graph.V, now stamp) *sortedView {
	vw := &s.own
	s.sortView(e, vw, q, true)
	vw.q, vw.at = q, now
	vw.mu.RLock()
	return vw
}

// reposition repairs vw's order and records its oracle's edge ops from the
// journal, reporting false when the view must be sorted from scratch
// instead. e is bound (bindLocal), so
// localValid answers membership.
func (s *Searcher) reposition(vw *sortedView, q graph.V) bool {
	gap, ok := s.g.MutationsSince(vw.at.seq(), s.rep.gap[:0])
	s.rep.gap = gap
	if !ok {
		return false
	}
	// The distinct members that moved, marked in inX (free between queries),
	// and the edge ops inside the community, recorded as they come.
	s.inX.Reset()
	nMoved := 0
	for _, m := range gap {
		switch {
		case m.Kind != graph.WriteCheckin:
			if s.localValid.Has(m.V) && s.localValid.Has(m.W) {
				s.touchOracleEdge(&vw.oracle, edgeOp{u: s.localOf[m.V], w: s.localOf[m.W], insert: m.Kind == graph.WriteAddEdge})
			}
		case !s.localValid.Has(m.V) || s.inX.Has(m.V):
		case m.V == q || nMoved == maxRepositioned:
			return false
		default:
			s.inX.Mark(m.V)
			nMoved++
		}
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
			s.touchOracle(&vw.oracle, min(at, mv.rank)+1, max(at, mv.rank))
		}
		kept = idx
	}
	return true
}
