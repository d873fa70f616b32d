package core

import (
	"cmp"
	"math"
	"slices"

	"sacsearch/internal/geom"
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
// allocates nothing once that scratch has grown and the view has output
// slices — its own, or buffers another oracle handed to the searcher's free
// list (repair.go).
//
// Repair. A write that changes the view's order or an induced edge does not
// throw the oracle away: it records which prefix lengths it may have
// changed, and the next probe recomputes only those. Write core_i for the
// maximal k-core of G[X[:i]] and call a prefix length i clean when X[:i] and
// its induced edges are what the last build saw; then core_i and q's
// component in it are too, so for every vertex v
//
//	coreAt_new[v] ≤ i ⟺ coreAt_old[v] ≤ i  and  joinAt_new[v] ≤ i ⟺ joinAt_old[v] ≤ i.
//
// The dirty lengths are a union of spans, one per write, each sound on its
// own: a prefix no write marked dirty saw every write leave it as it was, so
// each rule may read ranks and joinAt as the last build saw them — for a
// clean prefix, "u ∈ X[:i]" reads the same at every point since.
//
//   - A check-in moving a member from rank r to rank r' marks the lengths
//     (min(r, r'), max(r, r')]. If no moved member changed sides of i, the
//     prefix holds as many moved members as before, hence as many kept ones,
//     and the kept ones keep their relative order: X[:i] is the same set.
//   - Deleting an induced edge (u, w) marks [m, n], m = max(rank u, rank w)+1,
//     the first length holding both ends; a shorter prefix does not see it.
//   - Inserting one marks [m, max(joinAt u, joinAt w)). From that length on
//     both ends lie in q's component C of core_i, and an edge inside C
//     changes nothing: with both ends in core_i, the new core H gives
//     H ∪ core_i minimum degree ≥ k without the edge, so H ⊆ core_i; and an
//     edge inside one component merges none.
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
	built       bool
	minFeasible int32     // joinAt[q]: smallest feasible prefix length
	comm        []graph.V // q's community members in ascending joinAt order
	joinAt      []int32   // parallel to comm, ascending
	memo        answerMemo

	// What a repair starts from. builds counts the builds since the view
	// took its vertex; from the second on, coreAt keeps every member's coreAt
	// (by local id) and kept is set, so a view queried once holds no more
	// than its answer. A kept oracle taken out of service keeps joinOf, the
	// last build's joinAt by local id, on the joinAt buffer, and hands comm
	// back (repair.go: staleOracle); every write since is on record: dirty
	// holds the check-in spans [a, b] of prefix lengths, edges the induced
	// edge ops, which become spans at the next build, where ranks are at hand.
	builds int
	kept   bool
	coreAt []int32
	joinOf []int32
	dirty  [][2]int32
	edges  []edgeOp
}

// edgeOp is an induced edge inserted or deleted since the oracle's build, in
// local ids.
type edgeOp struct {
	u, w   int32
	insert bool
}

// maxDirty bounds the spans and edge ops an oracle records before it gives
// its old state up and the next build starts from nothing. Records pile up
// on a view that many writes pass between probes, and their union soon
// covers most lengths: on syn1@1.0 sixteen σ = 0.01 check-ins dirty a
// quarter of a 30 000-member view, a member sent to the far corner or a
// deleted edge everything above it. Past 32 a repair is close to a full
// build, and the 8 bytes a member the state holds are better freed: under
// single_churn the rarely queried hot views drop it, the often queried keep
// it.
const maxDirty = 32

// answerMemo is the finished form of the last answer buildResult took from
// an oracle (finish, in core.go). Every answer of one build is a prefix of
// comm, so its length names it. The memo holds only at the stamp it was
// recorded at: a check-in that moves a member without changing its rank
// keeps the oracle — and the answer — but moves the MCC.
type answerMemo struct {
	n   int         // the answer's length; 0 = none since the build
	at  stamp       // the view's stamp when the answer was finished
	mcc geom.Circle // the MCC of the answer's members at that stamp
	ids []graph.V   // the answer in id order, once seen twice (len n), else empty
}

// prefixFeasible answers feasible(view.verts[:i], q, k) via the oracle,
// building it on first use. The returned slice is oracle-owned; callers
// that retain it must copy (they already must, for every feasible path).
// A build abandoned by cancellation answers nil; the caller's next loop
// boundary reports the latched context error.
func (s *Searcher) prefixFeasible(e *cacheEntry, vw *sortedView, i int, q graph.V, k int) []graph.V {
	if !vw.oracle.built && !s.buildPrefixOracle(e, vw, q, k) {
		return nil
	}
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
// farthest-member lemma holds for it and it stands until the view changes.
func (s *Searcher) isOracleAnswer(c []graph.V) bool {
	vw := s.curView
	return vw != nil && len(c) > 0 && len(c) <= len(vw.oracle.comm) && &c[0] == &vw.oracle.comm[0]
}

// oracleScratch is the working memory of buildPrefixOracle, indexed by local
// id, sorted position or prefix length and reused across builds. It belongs
// to one Searcher: Pool workers build concurrently.
type oracleScratch struct {
	localAt []int32 // local id at each sorted position
	deg     []int32 // induced degree among the living; the counting-sort buckets after the sweep
	coreAt  []int32 // by local id; negated joinAt once the vertex has joined
	order   []int32 // death order of the sweep, which doubles as its cascade queue; ranks before it
	queue   []int32 // the join walk's flood queue
	win     []int32 // window index of each prefix length, -1 outside every window

	spans   [][2]int32
	windows []window
}

// window is a maximal run of dirty prefix lengths (lo, T], repaired from the
// clean prefix T (see "Repair" above); from, to delimit its deaths in order.
type window struct {
	lo, t    int32
	from, to int
}

func (sc *oracleScratch) ensure(n int) {
	if cap(sc.localAt) >= n {
		return
	}
	sc.localAt = make([]int32, n)
	sc.deg = make([]int32, n+1) // buckets 0..n
	sc.coreAt = make([]int32, n)
	sc.order = make([]int32, n)
	sc.queue = make([]int32, n)
	sc.win = make([]int32, n+1)
}

// deadDeg overwrites the degree of a vertex the sweep deletes outright, or
// does not track, so that no later decrement can bring it to k-1.
const deadDeg = math.MinInt32 / 2

// buildPrefixOracle brings vw's oracle for k up to date in O(n) plus the
// arcs of the vertices it recomputes: a repair of the windows its record
// names when it kept its last build's state, the window (0, n] otherwise. It
// runs when a view is first probed and again after its order or an induced
// edge changed. It reports false, leaving the oracle as it was — unbuilt,
// its record intact — when the query's context fires mid-build.
func (s *Searcher) buildPrefixOracle(e *cacheEntry, vw *sortedView, q graph.V, k int) bool {
	if e.adjOff == nil {
		e.buildInduced(s.g, s.localOf, s.localValid)
	}
	n := len(vw.verts)
	sc := &s.oracleBuf
	sc.ensure(n)
	localAt, coreAt := sc.localAt[:n], sc.coreAt[:n]
	o := &vw.oracle
	for pos, v := range vw.verts {
		localAt[pos] = s.localOf[v]
	}
	repair := o.kept && len(o.joinOf) == n // kept and out of service
	var wins []window
	if repair {
		copy(coreAt, o.coreAt)
		wins = s.dirtyWindows(o, localAt)
	} else {
		wins = append(sc.windows[:0], window{lo: 0, t: int32(n)})
	}
	sc.windows = wins
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

	s.sweep(e, localAt, coreAt, wins, whole, k)
	if s.canceled() {
		return false
	}

	o.builds++
	if o.builds >= 2 {
		o.coreAt = append(s.takeBuf(o.coreAt)[:0], coreAt...)
		o.kept = true
	}
	if repair && !whole {
		// A vertex whose old joinAt no window holds joins where it did.
		for lv, j := range o.joinOf {
			if win[j] < 0 {
				coreAt[lv] = -j
			}
		}
	}
	if repair {
		s.stats.OracleRepairs++
		for _, w := range wins {
			s.stats.OracleRepairSpan += int(w.t - w.lo)
		}
		o.joinAt, o.joinOf = o.joinOf, nil
		o.dirty, o.edges = o.dirty[:0], o.edges[:0]
	} else {
		s.stats.OracleBuilds++
	}
	s.joinWalk(e, coreAt, wins, s.localOf[q])

	// Emit q's community in ascending join order, ties by view rank: a stable
	// counting sort over the view. Every member joins by prefix n (the full
	// set is connected); a vertex left positive would be outside q's final
	// component, which KCoreWithin excludes too.
	count := sc.deg[:n+1]
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
	o.comm = slices.Grow(s.takeBuf(o.comm)[:0], int(total))[:total]
	o.joinAt = slices.Grow(s.takeBuf(o.joinAt)[:0], int(total))[:total]
	for rank, lv := range localAt {
		c := coreAt[lv]
		if c > 0 {
			continue
		}
		p := count[-c]
		count[-c]++
		o.comm[p] = vw.verts[rank]
		o.joinAt[p] = -c
	}
	o.minFeasible = -coreAt[s.localOf[q]]
	o.memo = answerMemo{ids: o.memo.ids[:0]}
	o.built = true
	return true
}

// dirtyWindows turns o's record into its windows, ascending. An edge op's
// span needs the ranks of its ends, read off the current order (see "Repair"
// for why that is sound) in sc.order, which the sweep overwrites later.
func (s *Searcher) dirtyWindows(o *prefixOracle, localAt []int32) []window {
	sc := &s.oracleBuf
	n := int32(len(localAt))
	spans := append(sc.spans[:0], o.dirty...)
	if len(o.edges) > 0 {
		rankOf := sc.order[:n]
		for pos, lv := range localAt {
			rankOf[lv] = int32(pos)
		}
		for _, ed := range o.edges {
			m, hi := max(rankOf[ed.u], rankOf[ed.w])+1, n
			if ed.insert {
				hi = max(o.joinOf[ed.u], o.joinOf[ed.w]) - 1
			}
			if m <= hi {
				spans = append(spans, [2]int32{m, hi})
			}
		}
	}
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
	return wins
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
// "active and not joined yet" reads one word per edge.
//
// A repair enters with every vertex whose joinAt no window changes already
// marked, at its joinAt: "joined" means joined by the current length, and
// such a vertex reads as not yet joined below its mark. It is never flooded
// early, because it would then join before its joinAt.
func (s *Searcher) joinWalk(e *cacheEntry, coreAt []int32, wins []window, qLocal int32) {
	n := len(coreAt)
	order, queue := s.oracleBuf.order[:n], s.oracleBuf.queue[:n]
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
			if lv != qLocal && !anyJoined(adj[adjOff[lv]:adjOff[lv+1]], coreAt, at) {
				continue
			}
			coreAt[lv] = -at
			queue[0] = lv
			for head, tail := 0, 1; head < tail; head++ {
				x := queue[head]
				for _, y := range adj[adjOff[x]:adjOff[x+1]] {
					// 1 ≤ coreAt[y] ≤ at, as one unsigned comparison.
					if uint32(coreAt[y]-1) < uint32(at) {
						coreAt[y] = -at
						queue[tail] = y
						tail++
					}
				}
			}
		}
	}
}

// anyJoined reports whether any of nbrs has joined q's component by prefix
// length at: its coreAt is negated (see joinWalk) to a joinAt ≤ at, that is
// -at ≤ coreAt < 0, as one unsigned comparison.
func anyJoined(nbrs, coreAt []int32, at int32) bool {
	for _, u := range nbrs {
		if uint32(coreAt[u]+at) < uint32(at) {
			return true
		}
	}
	return false
}
