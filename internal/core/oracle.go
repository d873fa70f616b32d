package core

import (
	"cmp"
	"math"
	"slices"

	"sacsearch/internal/graph"
)

// Prefix-feasibility oracle. The binary searches of AppInc/AppFast/AppAcc
// probe "does the distance-prefix X[:i] contain a connected k-core with q?"
// over nested prefixes of one sorted candidate view. Maximal-k-core
// membership is monotone in the prefix (core(X[:i]) ⊆ core(X[:j]) for
// i ≤ j), so a single reverse-deletion sweep over the cached community's
// induced adjacency answers EVERY prefix probe at once:
//
//   - coreAt[v]: the smallest i with v ∈ core(X[:i]) — computed by deleting
//     vertices farthest-first and cascading the k-core peel; each vertex
//     dies exactly once, so the sweep is O(E_induced). The order of death is
//     coreAt-descending, so read backwards it is the activation order of
//     the next pass — no sort.
//   - joinAt[v]: the smallest i with v in q's connected component of
//     core(X[:i]), i.e. the bottleneck (min over paths of max coreAt)
//     distance from q. Vertices activate in ascending coreAt; one joins the
//     moment it is active and adjacent to q's component, and floods the
//     active vertices behind it. Each vertex joins once and scans its
//     adjacency at most twice, so this is O(E_induced) too.
//   - the emitted community is a stable counting sort of the view by joinAt
//     (integers in [1, n]): O(n).
//
// The whole build is O(n + E_induced) on Searcher-owned scratch and
// allocates nothing once that scratch has grown and the store's free list
// holds the versions the new ones replaced (repair.go).
//
// Repair. A write that changes the view's order or an induced edge does not
// throw the oracle away: it goes on the record of the gap the view comes
// forward over, and the view's new version brings a copy of the oracle up to
// date by the cheapest exact means the record allows — a restore, a replay
// or windows. Write core_i for the maximal
// k-core of G[X[:i]] and call a prefix length i clean when X[:i] and its
// induced edges are what the last build saw, or when the writes since
// provably left core_i and q's component in it as they were; then for every
// vertex v
//
//	coreAt_new[v] ≤ i ⟺ coreAt_old[v] ≤ i  and  joinAt_new[v] ≤ i ⟺ joinAt_old[v] ≤ i.
//
// The dirty lengths are a union of spans, one per write, each sound on its
// own: a prefix no write marked dirty saw every write leave it as it was, so
// each rule may read ranks, coreAt and joinAt as the last build saw them —
// for a clean prefix, "u ∈ X[:i]" and "coreAt_old u ≤ i ⟺ u ∈ core_i" read
// the same at every point since.
//
//   - A check-in moving a member from rank r to rank r' marks the lengths
//     (min(r, r'), max(r, r')]. If no moved member changed sides of i, the
//     prefix holds as many moved members as before, hence as many kept ones,
//     and the kept ones keep their relative order: X[:i] is the same set.
//   - Inserting an induced edge (u, w) marks [m, max(joinAt u, joinAt w)),
//     m = max(rank u, rank w)+1, the first length holding both ends. From
//     the upper end on both ends lie in q's component C of core_i, and an
//     edge inside C changes nothing: with both ends in core_i, the new core
//     H gives H ∪ core_i minimum degree ≥ k without the edge, so H ⊆ core_i;
//     and an edge inside one component merges none.
//   - Deleting one marks no length when the delete certificate holds: each
//     end keeps k current neighbours of coreAt ≤ t = max(coreAt u, coreAt
//     w) (the core clause), and if the edge is one of the join forest's
//     (see "Replay" below; each member hangs off a neighbour through which
//     it joined), its child has another current neighbour through which it
//     joins no later — max(coreAt child, joinAt y) = joinAt child — and
//     that does not hang below it, and is re-pointed there (the join
//     clause). Otherwise the delete marks [t, n]. Below t an end lies
//     outside core_i, so the edge is not one of core_i's: core_i and its
//     components are as they were. From t on both ends lie in core_i, and
//     each keeps k neighbours in it, so core_i less every deleted edge
//     still has minimum degree ≥ k — a k-core of the new graph and, deletes
//     only shrinking cores, its maximal one. So coreAt stands, and joinAt
//     cannot fall. Suppose some joinAt rose, and take v of least old
//     joinAt, then least depth in the re-pointed forest. v ≠ q; its parent
//     p has joinAt_old p ≤ joinAt_old v and, at equal joinAt, less depth,
//     so p's joinAt stands by minimality; the edge (v, p) is current — it
//     is an old forest edge no delete took, or a re-point — and
//     max(coreAt v, joinAt p) = joinAt_old v, so v joins where it did
//     after all. Neighbours are counted, and re-points made, in the current
//     induced CSR, which has lost every deleted edge at once, so both
//     clauses hold for any batch of deletes.
//
// A record whose spans all come out empty — certified deletes, inserts past
// both ends' join — is restored as it stood: the copy of a kept oracle holds
// its answer (comm, joinAt) too, so a restore re-emits nothing. Its cost is
// the copy's and the record's plus one pass that reads the answer's joinAt
// back by local id, which the certificate reads; it re-points what the
// certificate re-pointed.
//
// A maximal dirty run of lengths (lo, T) — lo clean or 0, T the clean length
// above it or n — is a window. core_T is {coreAt_old ≤ T} (core_n is all of
// X: the community is a connected k-core), and by the equivalences only the
// vertices with coreAt_old in (lo, T] can change coreAt, and then only to
// another value in (lo, T]; likewise for joinAt. So a window is repaired on
// its own: its sweep starts from core_T with degrees counted among
// coreAt_old ≤ T, deletes positions T-1 … lo and touches only those
// vertices; its join walk replays the activations of the same vertices in
// ascending new coreAt from q's component of core_lo. Windows do not
// interact: a vertex belongs to at most one, a sweep's decrements outside its
// window land on vertices that are dead or untracked, and walks run
// bottom-up, each starting from the joins of every window below it and of
// every vertex whose old joinAt lies in none, which joins where it did. The
// emit is the same O(n) counting sort, which also restores tie order. A
// build from nothing is the one window (0, n], which holds every vertex
// whatever its old values: the same sweep, walk and emit.
//
// Replay. A record of at most one check-in plus deletes — what a standing
// query's evaluation finds after every check-in, and what a hub's trip to
// the far corner leaves — is settled on the old state instead (replay.go),
// whose work follows the values that move and not the lengths in between.
// It rests on a lemma: coreAt is the least fixpoint of
//
//	c(y) = max(rank y + 1, the k-th smallest c over y's neighbours).
//
// coreAt is a fixpoint: v ∈ core_i needs rank v < i and k neighbours in
// core_i, and for i the right side, {coreAt ≤ i} ∪ {v} is a k-core of X[:i].
// It is the least: for a fixpoint c' and any i, {c' ≤ i} is a k-core of
// X[:i], so inside core_i. Hence raising values from any start below coreAt,
// each to its right side while that is larger, with a worklist that revisits
// the neighbours whose support a rise took away, ends at coreAt: the map is
// monotone, so the values never pass coreAt, and they stop where the map
// raises none, which is above its least fixpoint. The start depends on the
// direction:
//
//   - Supports fall — a move outward, from r to r' > r, or an uncertified
//     delete. X_new[:i] ⊆ X_old[:i+1] for r < i ≤ r' and the prefixes are
//     equal otherwise, so the old values shifted by the move (c−1 for c in
//     [r+2, r'+1]) are below the new coreAt; the shift commutes with max and
//     k-th smallest, so only the mover and the deleted edges' ends can lie
//     below their right side at the start.
//   - Supports rise — a move inward, from r to r' < r. The shifted old
//     values (c+1 for c in [r'+1, r]) are now above, and a vertex whose value
//     falls to some i is reached from the mover by a path of late entrants,
//     vertices with rank + 1 ≤ i < shifted old coreAt. (Let D be core_i's
//     vertices above their shifted old coreAt and Z those of D the mover
//     does not reach inside D: core_i less D∖Z is a k-core of X_new[:i]
//     without the mover, so inside the shifted old core, and Z is empty.)
//     The least such i, a bottleneck search from the mover (the arrival
//     bound), is a start below coreAt on the vertices it reaches; the rest
//     keep their shifted values. A reached vertex with fewer than k
//     neighbours starting below its shifted value cannot fall, and keeping
//     it can leave others short: they are peeled before the raising starts.
//
// joinAt, the bottleneck distance from q (min over paths of max coreAt),
// follows on the join forest the walk records for a kept oracle — each
// vertex's neighbour through which it joined, so joinAt v =
// max(coreAt v, joinAt parent). When values fall, the vertices whose coreAt
// fell seed a relaxation in joinAt order. When they rise, a vertex whose
// coreAt passed its joinAt is re-derived, and so is, down the forest, a child
// whose path's largest coreAt now passes its joinAt and that has no other way
// in. Every other vertex keeps its value, which stands: a child whose path
// stays within its joinAt keeps even a parent that is re-derived, since that
// parent ends at most at the path's bound. The re-derived are settled by a
// bottleneck search from the rest, which reaches each one's path bound
// through the path, so only a support that beats the bound seeds it; a kept
// vertex hanging below a pending one waits for it before it may become
// anyone's parent — at a tie it could otherwise close a cycle. A replay's
// work, in vertices evaluated or settled, is held to the length of the span
// its record dirtied: past that the record goes to the windows after all.
// So does, at once, a move inward
// whose span reaches down to q's own join: it lands among the late entrants
// of q's first component, which the arrival search would nearly all reach.
//
// A probe at prefix i then reduces to one binary search: infeasible iff
// i < joinAt[q], otherwise the community is the joinAt-ascending vertex
// list truncated at i. Repeated queries into a cached community skip the
// per-probe peeling entirely — the payoff of candidate caching beyond
// skipping the BFS.
//
// The oracle is exact, not approximate: its answers equal
// kcore.Peeler.KCoreWithin on the same prefix (as sets; callers never
// depend on member order, but the order — ascending joinAt, ties by rank in
// the view, hence a function of the graph and q alone and not of which
// member's BFS filled the cache — is pinned because MCC arithmetic over it
// is not order-independent at the ulp level, and AppAcc's anchors and
// Exact+'s δ are built on such radii). It applies only to the k-core
// structure metric and only to probes whose S is literally a prefix of the
// current sorted view, which every query but θ-SAC has: circle subsets take
// the grid peel (circle.go), θ-SAC's circle the global peeler,
// k-truss/k-clique their checkers.
//
// Farthest-member lemma: an answer comm[:cnt] ends with its farthest member
// from q, verts[J-1] for J = joinAt[cnt-1]. Proof: some vertex joins at J, so
// q's component C of core(X[:J]) is not inside q's component of
// core(X[:J-1]). If C missed w = verts[J-1], the only vertex of X[:J] outside
// X[:J-1], it would be a connected subgraph of G[X[:J-1]] with minimum degree
// ≥ k holding q, hence inside q's component of core(X[:J-1]) — so w ∈ C, w
// joins at exactly J, and having the largest rank of the prefix it is the
// last of the joinAt-J run. Every member has rank < J and the view ascends by
// distance, so w is the farthest; its distance is the same float64 as the
// maximum over the answer. appFastSearch reads Algorithm 3's
// u = max_{v∈Λ}|q,v| off it in O(1), behind isOracleAnswer.
type prefixOracle struct {
	minFeasible int32     // joinAt[q]: smallest feasible prefix length
	comm        []graph.V // q's community members in ascending joinAt order
	joinAt      []int32   // parallel to comm, ascending

	// What a repair starts from. builds counts the builds since the view
	// took its vertex; from the second on the oracle is kept: it holds every
	// member's coreAt and join parent by local id (its joinAt is in the
	// answer), so a view queried once holds no more than its answer. The
	// next version's copy takes all of it over (repair.go: copyView).
	builds int
	kept   bool
	coreAt []int32
	parent []int32 // the neighbour through which a member joined; -1 for q
}

// moveOp is a check-in that moved a member from rank from to rank to: member
// lv, or -1 when others moved in the same reposition. The ranks then still
// say which lengths the member crossed, but not how the order changed around
// it — another member may have passed a neighbour and kept its rank.
type moveOp struct {
	lv, from, to int32
}

// edgeOp is an induced edge inserted or deleted since the oracle's build, in
// local ids.
type edgeOp struct {
	u, w   int32
	insert bool
}

// maxDirty bounds the moves and edge ops a repair settles; a longer record
// starts the oracle from nothing. Records grow with the writes that pass
// between two queries of a view, and their spans soon cover most lengths:
// on syn1@1.0 sixteen σ = 0.01 check-ins dirty a quarter of a 30 000-member
// view, and a member sent to the far corner, or a delete the certificate
// cannot vouch for, everything above it. Past 32 a repair is close to a
// full build.
const maxDirty = 32

// prefixFeasible answers feasible(vw.verts[:i], q, k) via the oracle. The
// returned slice is the version's; callers that retain it must copy (they
// already must, for every feasible path).
func (vw *viewVersion) prefixFeasible(i int) []graph.V {
	o := &vw.oracle
	if int32(i) < o.minFeasible {
		return nil
	}
	// The members with joinAt ≤ i: everything before the first joinAt ≥ i+1.
	cnt, _ := slices.BinarySearch(o.joinAt, int32(i)+1)
	return o.comm[:cnt]
}

// isOracleAnswer reports whether c is an answer prefixFeasible handed out
// for the current view — the aliasing test feasible applies to S — so the
// farthest-member lemma holds for it and it stands as long as the query.
func (s *Searcher) isOracleAnswer(c []graph.V) bool {
	vw := s.curView
	return vw != nil && len(c) > 0 && len(c) <= len(vw.oracle.comm) && &c[0] == &vw.oracle.comm[0]
}

// oracleScratch is the working memory of buildPrefixOracle, indexed by local
// id, sorted position or prefix length and reused across builds. It belongs
// to one Searcher: Pool workers build concurrently.
type oracleScratch struct {
	localAt []int32    // local id at each sorted position
	deg     []int32    // induced degree among the living; the counting-sort buckets after the sweep; the replay's counts and bounds
	coreAt  []int32    // by local id; negated joinAt once the vertex has joined
	order   []int32    // death order of the sweep, which doubles as its cascade queue; ranks before it; the replay's ranks, then its waiting lists
	queue   []int32    // the join walk's flood queue; the replay's worklist
	win     []int32    // window index of each prefix length, -1 outside every window; the replay's heap positions
	parent  []int32    // the join forest a walk records; the one a replay repairs
	join    []int32    // joinAt by local id during a replay
	heap    []int32    // the replay's heap of local ids
	list    []int32    // the vertices a replay moved or reached
	flags   []uint8    // the replay's per-vertex state
	kth     []int32    // the k smallest values around one vertex
	waits   []waitPair // the replay's supports waiting on a pending vertex

	spans   [][2]int32
	windows []window
	lost    []edgeOp // the record's deletes the certificate did not vouch for
	paths   repairPaths
}

// repairPaths counts which way the repairs of a searcher went, for the tests
// that require every way to be taken.
type repairPaths struct {
	certified, restored, outward, inward, fellBack int
}

// window is a maximal run of dirty prefix lengths (lo, T], repaired from the
// clean prefix T (see "Repair" above); from, to delimit its deaths in order.
type window struct {
	lo, t    int32
	from, to int
}

func (sc *oracleScratch) ensure(n, k int) {
	if cap(sc.kth) < k {
		sc.kth = make([]int32, k)
	}
	if cap(sc.localAt) >= n {
		return
	}
	sc.localAt = make([]int32, n)
	sc.deg = make([]int32, n+1) // buckets 0..n
	sc.coreAt = make([]int32, n)
	sc.order = make([]int32, n)
	sc.queue = make([]int32, n)
	sc.win = make([]int32, n+1)
	sc.parent = make([]int32, n)
	sc.join = make([]int32, n)
	sc.heap = make([]int32, n)
	sc.list = make([]int32, n)
	sc.flags = make([]uint8, n)
}

// deadDeg overwrites the degree of a vertex the sweep deletes outright, or
// does not track, so that no later decrement can bring it to k-1.
const deadDeg = math.MinInt32 / 2

// buildPrefixOracle brings the oracle of vw, a version being made, up to
// date for k: from nothing — the window (0, n] — when from, the oracle vw
// replaces, kept no state or the record is over maxDirty, else by the
// cheapest exact means the record allows (see "Repair" above): a restore, a
// replay (one check-in at most), or the windows. It reads from's coreAt and
// answer and re-points vw's copy of the join forest, and reports false when
// the query's context fires mid-build.
func (s *Searcher) buildPrefixOracle(e *cacheEntry, vw *viewVersion, from *prefixOracle, q graph.V, k int) bool {
	n := len(vw.verts)
	sc := &s.oracleBuf
	sc.ensure(n, k)
	o := &vw.oracle
	moves := s.rep.moves
	qLocal := s.localOf[q]
	repair := from != nil && from.kept && len(from.coreAt) == n && len(moves)+len(s.rep.edges) <= maxDirty
	// What a repair starts from: the old coreAt, read only, and the forest.
	prev := prefixOracle{coreAt: o.coreAt, parent: o.parent}
	wins := append(sc.windows[:0], window{lo: 0, t: int32(n)})
	replay := false
	if repair {
		prev.coreAt = from.coreAt
		s.joinOfAnswer(from)
		wins, replay = s.dirtyWindows(e, &prev, vw.verts, k)
		if len(wins) == 0 {
			sc.paths.restored++
			s.stats.OracleRepairs++
			o.standAs(from)
			return true
		}
		// A move inward whose lengths reach down to q's own join lands among
		// the late entrants of q's first component, nearly all of which the
		// arrival search reaches: the windows cost less.
		replay = replay && (len(moves) == 0 || moves[0].to > moves[0].from || wins[0].lo >= from.minFeasible)
	}
	sc.windows = wins
	span := 0
	for _, w := range wins {
		span += int(w.t - w.lo)
	}
	localAt, coreAt := sc.localAt[:n], sc.coreAt[:n]
	for pos, v := range vw.verts {
		localAt[pos] = s.localOf[v]
	}
	if replay {
		work, ok := s.replayRecord(e, &prev, localAt, qLocal, k, span)
		s.stats.OracleReplayed += work
		if ok {
			if s.canceled() {
				return false
			}
			// The replay left coreAt, joinAt and the parents in scratch.
			o.coreAt = sized(o.coreAt, n)
			copy(o.coreAt, coreAt)
			copy(o.parent, sc.parent[:n])
			for lv, j := range sc.join[:n] {
				coreAt[lv] = -j
			}
			s.stats.OracleReplays++
			s.stats.OracleRepairs++
			s.stats.OracleRepairSpan += span
			s.emit(o, vw.verts, localAt, qLocal)
			return true
		}
		sc.paths.fellBack++
		s.joinOfAnswer(from) // the replay worked over it
	}

	// One window of every length holds every vertex: nothing to look up.
	whole := len(wins) == 1 && wins[0].lo == 0 && int(wins[0].t) == n
	win := sc.win[:n+1]
	if !whole {
		j := 0
		for c := range win {
			for j < len(wins) && int32(c) > wins[j].t {
				j++
			}
			if j < len(wins) && int32(c) > wins[j].lo {
				win[c] = int32(j)
			} else {
				win[c] = -1
			}
		}
	}
	if repair {
		copy(coreAt, prev.coreAt)
	}
	s.sweep(e, localAt, coreAt, wins, whole, k)
	if s.canceled() {
		return false
	}

	o.builds++
	keep := o.builds >= 2
	if keep {
		o.coreAt = sized(o.coreAt, n)
		copy(o.coreAt, coreAt)
	}
	parent := sc.parent[:n]
	if repair {
		copy(parent, o.parent) // a vertex no window holds keeps its parent
		if !whole {
			// A vertex whose old joinAt no window holds joins where it did.
			for lv, j := range sc.join[:n] {
				if win[j] < 0 {
					coreAt[lv] = -j
				}
			}
		}
		s.stats.OracleRepairs++
		s.stats.OracleRepairSpan += span
	} else {
		s.stats.OracleBuilds++
	}
	s.joinWalk(e, coreAt, parent, wins, qLocal)
	if keep {
		o.parent = sized(o.parent, n)
		copy(o.parent, parent)
		o.kept = true
	}
	s.emit(o, vw.verts, localAt, qLocal)
	return true
}

// joinOfAnswer writes the joinAt of o's answer by local id into sc.join. The
// answer holds every member: the community is connected, so every member
// joins by the full length.
func (s *Searcher) joinOfAnswer(o *prefixOracle) {
	join := s.oracleBuf.join
	for p, v := range o.comm {
		join[s.localOf[v]] = o.joinAt[p]
	}
}

// standAs takes from's answer and coreAt over as they stand.
func (o *prefixOracle) standAs(from *prefixOracle) {
	o.minFeasible = from.minFeasible
	o.comm, o.joinAt = append(o.comm[:0], from.comm...), append(o.joinAt[:0], from.joinAt...)
	o.coreAt = append(o.coreAt[:0], from.coreAt...)
}

// emit writes q's community into o in ascending join order, ties by view
// rank: a stable counting sort over the view of the negated joinAt the
// scratch coreAt holds. Every member joins by prefix n (the full set is
// connected); a vertex left positive would be outside q's final component,
// which KCoreWithin excludes too.
func (s *Searcher) emit(o *prefixOracle, verts []graph.V, localAt []int32, qLocal int32) {
	n := len(verts)
	coreAt := s.oracleBuf.coreAt[:n]
	count := s.oracleBuf.deg[:n+1]
	clear(count)
	for _, c := range coreAt {
		if c < 0 {
			count[-c]++
		}
	}
	total := int32(0)
	for j := 1; j <= n; j++ {
		c := count[j]
		count[j] = total
		total += c
	}
	o.comm = sized(o.comm, int(total))
	o.joinAt = sized(o.joinAt, int(total))
	for rank, lv := range localAt {
		c := coreAt[lv]
		if c > 0 {
			continue
		}
		p := count[-c]
		count[-c]++
		o.comm[p] = verts[rank]
		o.joinAt[p] = -c
	}
	o.minFeasible = -coreAt[qLocal]
}

// dirtyWindows turns o's record into its windows, ascending, and reports
// whether a replay may settle it instead: one check-in at most, the only
// member its reposition moved, no insert, and no delete the certificate
// turned down beside a move inward, whose values fall where the delete's
// rise. A delete the certificate vouches for
// is settled here, its join parent re-pointed if it cut one; the rest go on
// sc.lost. An insert's span needs the ranks of its ends, read off the current
// order (see "Repair" for why that is sound) in sc.order, which the sweep
// overwrites later.
func (s *Searcher) dirtyWindows(e *cacheEntry, o *prefixOracle, verts []graph.V, k int) ([]window, bool) {
	sc := &s.oracleBuf
	n := int32(len(verts))
	spans := sc.spans[:0]
	for _, mv := range s.rep.moves {
		spans = append(spans, [2]int32{min(mv.from, mv.to) + 1, max(mv.from, mv.to)})
	}
	lost, inserts := sc.lost[:0], false
	var rankOf []int32
	for _, ed := range s.rep.edges {
		if !ed.insert {
			if s.deleteCertified(e, o, ed, k) {
				sc.paths.certified++
			} else {
				lost = append(lost, ed)
				spans = append(spans, [2]int32{max(o.coreAt[ed.u], o.coreAt[ed.w]), n})
			}
			continue
		}
		inserts = true
		if rankOf == nil {
			rankOf = sc.order[:n]
			for pos, v := range verts {
				rankOf[s.localOf[v]] = int32(pos)
			}
		}
		if m, hi := max(rankOf[ed.u], rankOf[ed.w])+1, max(sc.join[ed.u], sc.join[ed.w])-1; m <= hi {
			spans = append(spans, [2]int32{m, hi})
		}
	}
	sc.lost = lost
	slices.SortFunc(spans, func(a, b [2]int32) int { return cmp.Compare(a[0], b[0]) })
	sc.spans = spans
	wins := sc.windows[:0]
	for i := 0; i < len(spans); {
		lo, hi := spans[i][0]-1, spans[i][1]
		for i++; i < len(spans) && spans[i][0] <= hi+1; i++ {
			hi = max(hi, spans[i][1])
		}
		wins = append(wins, window{lo: lo, t: min(hi+1, n)})
	}
	moves := s.rep.moves
	one := len(moves) == 1 && moves[0].lv >= 0
	inward := one && moves[0].to < moves[0].from
	return wins, (len(moves) == 0 || one) && !inserts && !(inward && len(lost) > 0)
}

// deleteCertified reports whether the delete certificate (see "Repair")
// vouches for the deleted induced edge ed: each end keeps, in the current
// induced CSR, k neighbours of coreAt at most the later end's, and if the
// edge was one of the join forest's, its child re-points to another way in
// (joinParent). The re-point is made here: the forest stays a witness.
func (s *Searcher) deleteCertified(e *cacheEntry, o *prefixOracle, ed edgeOp, k int) bool {
	t := max(o.coreAt[ed.u], o.coreAt[ed.w])
	for _, x := range [2]int32{ed.u, ed.w} {
		supports := 0
		for _, y := range e.adjLocal[e.adjOff[x]:e.adjOff[x+1]] {
			if o.coreAt[y] <= t {
				supports++
			}
		}
		if supports < k {
			return false
		}
	}
	child := ed.u
	if o.parent[ed.w] == ed.u {
		child = ed.w
	} else if o.parent[ed.u] != ed.w {
		return true // not a forest edge
	}
	for _, y := range e.adjLocal[e.adjOff[child]:e.adjOff[child+1]] {
		if joinParent(child, y, o.coreAt, s.oracleBuf.join, o.parent) {
			o.parent[child] = y
			return true
		}
	}
	return false
}

// maxClimb bounds the walk up the join forest by which joinParent tells a
// neighbour of equal joinAt from a descendant; past it the neighbour is
// passed over.
const maxClimb = 16

// joinParent reports whether u can be x's join parent: x joins through u no
// later than it does — max(coreAt x, joinAt u) = joinAt x — and u is not
// below x in the forest, so re-pointing x at u closes no cycle. Below x
// every joinAt is at least x's, so a walk up from u decides it once it
// meets x, q or a smaller joinAt.
func joinParent(x, u int32, coreAt, joinAt, parent []int32) bool {
	jx := joinAt[x]
	if max(coreAt[x], joinAt[u]) != jx {
		return false
	}
	for range maxClimb {
		switch {
		case u == x:
			return false
		case u < 0 || joinAt[u] < jx:
			return true
		}
		u = parent[u]
	}
	return false
}

// sweep runs the reverse deletion in every window, top window first, setting
// coreAt[lv] — the smallest prefix length whose maximal k-core contains lv —
// for the vertices whose coreAt lies in a window, and recording each
// window's deaths as order[from:to]. Unless whole — the one window (0, n] —
// win must map each prefix length to its window and coreAt hold every
// vertex's old value.
func (s *Searcher) sweep(e *cacheEntry, localAt, coreAt []int32, wins []window, whole bool, k int) {
	sc := &s.oracleBuf
	n := len(localAt)
	deg, order, win := sc.deg[:n], sc.order[:n], sc.win[:n+1]
	adjOff, adj := e.adjOff, e.adjLocal

	// Only the windows' vertices are tracked: the rest sit at deadDeg, which
	// no decrement brings to k-1. A window starts from core_T, each of its
	// vertices holding its degree among coreAt ≤ T — plus one for every
	// neighbor in a window above, whose sweep runs first and kills it — and
	// keeps "alive ⟺ deg ≥ k": a cascaded vertex stops at k-1 and only falls
	// further, a deleted one is set to deadDeg, so neither needs a separate
	// removed flag and the inner loop decrements unconditionally. Those extra
	// decrements leave a vertex of core_T at ≥ k, so it waits for its own
	// window alive.
	kk := int32(k)
	for lv, c := range coreAt {
		if whole { // core_n is every member
			deg[lv] = adjOff[lv+1] - adjOff[lv]
			continue
		}
		j := win[c]
		if j < 0 {
			deg[lv] = deadDeg
			continue
		}
		row := adj[adjOff[lv]:adjOff[lv+1]]
		t := wins[j].t
		if int(t) == n { // likewise, and no window is above
			deg[lv] = int32(len(row))
			continue
		}
		// Every neighbor counts but those above T in no window: c > T and
		// win[c] < 0, both as sign bits.
		d := int32(len(row))
		for _, y := range row {
			c := coreAt[y]
			d += (t - c) >> 31 & (win[c] >> 31)
		}
		deg[lv] = d
	}
	died := 0
	for j := len(wins) - 1; j >= 0; j-- {
		lo, t := wins[j].lo, wins[j].t
		wins[j].from = died
		for i := t; i > lo; i-- {
			x := localAt[i-1]
			if deg[x] < kk {
				continue
			}
			// Deleting position i-1 shrinks the prefix below i: x dies here,
			// and so does everything its removal cascades.
			deg[x] = deadDeg
			head := died
			order[died] = x
			died++
			for ; head < died; head++ {
				x := order[head]
				coreAt[x] = i
				for _, y := range adj[adjOff[x]:adjOff[x+1]] {
					deg[y]--
					if deg[y] == kk-1 {
						order[died] = y
						died++
					}
				}
			}
		}
		wins[j].to = died
	}
}

// joinWalk runs the joining pass in every window, bottom window first: walk
// the window's deaths backwards (ascending coreAt). q joins when it
// activates; any other vertex joins when it is active and a neighbor already
// has, and then floods every active vertex reachable from it. Nothing joins
// before q does, so a window holding q starts at q and one below it is
// skipped. coreAt doubles as the join record — a vertex that joins at prefix
// i has its (positive) coreAt overwritten with -i — so the flood's test
// "active and not joined yet" reads one word per edge. parent records, for
// each vertex that joins, the neighbor it joined through (-1 for q): the
// join forest a replay repairs.
//
// A repair enters with every vertex whose joinAt no window changes already
// marked, at its joinAt: "joined" means joined by the current length, and
// such a vertex reads as not yet joined below its mark. It is never flooded
// early, because it would then join before its joinAt.
func (s *Searcher) joinWalk(e *cacheEntry, coreAt, parent []int32, wins []window, qLocal int32) {
	n := len(coreAt)
	order, queue, parent := s.oracleBuf.order[:n], s.oracleBuf.queue[:n], parent[:n]
	adjOff, adj := e.adjOff, e.adjLocal
	qAt := coreAt[qLocal]
	for _, w := range wins {
		if qAt > w.t {
			continue
		}
		idx, from := w.to-1, w.from
		if qAt > w.lo {
			for order[idx] != qLocal {
				idx--
			}
		}
		for ; idx >= from; idx-- {
			lv := order[idx]
			at := coreAt[lv]
			if at < 0 {
				continue
			}
			via := int32(-1)
			if lv != qLocal {
				if via = anyJoined(adj[adjOff[lv]:adjOff[lv+1]], coreAt, at); via < 0 {
					continue
				}
			}
			coreAt[lv] = -at
			parent[lv] = via
			queue[0] = lv
			for head, tail := 0, 1; head < tail; head++ {
				x := queue[head]
				for _, y := range adj[adjOff[x]:adjOff[x+1]] {
					// 1 ≤ coreAt[y] ≤ at, as one unsigned comparison.
					if uint32(coreAt[y]-1) < uint32(at) {
						coreAt[y] = -at
						parent[y] = x
						queue[tail] = y
						tail++
					}
				}
			}
		}
	}
}

// anyJoined returns a neighbor among nbrs that has joined q's component by
// prefix length at, or -1: its coreAt is negated (see joinWalk) to a joinAt
// ≤ at, that is -at ≤ coreAt < 0, as one unsigned comparison.
func anyJoined(nbrs, coreAt []int32, at int32) int32 {
	for _, u := range nbrs {
		if uint32(coreAt[u]+at) < uint32(at) {
			return u
		}
	}
	return -1
}
