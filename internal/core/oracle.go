package core

import (
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
// slices — its own from the last build, or a pair an invalidated oracle
// handed to the searcher's free list (repair.go).
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
}

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
// id (or sorted position) and reused across builds. It belongs to one
// Searcher: Pool workers build concurrently.
type oracleScratch struct {
	localAt []int32 // local id at each sorted position
	deg     []int32 // induced degree among the living; the counting-sort buckets after the sweep
	coreAt  []int32 // by local id; negated joinAt once the vertex has joined
	order   []int32 // death order of the sweep, which doubles as its cascade queue
	queue   []int32 // the joining pass's flood queue
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
}

// deadDeg overwrites the degree of a vertex the sweep deletes outright, so
// that no later decrement can bring it back to k-1.
const deadDeg = math.MinInt32 / 2

// buildPrefixOracle runs the reverse-deletion sweep, the joining pass and
// the counting sort for (vw, k), in O(n + E_induced). It runs when a view is
// first probed and again after its order or an induced edge changed. It
// reports false, leaving the oracle unbuilt, when the query's context fires
// mid-build.
func (s *Searcher) buildPrefixOracle(e *cacheEntry, vw *sortedView, q graph.V, k int) bool {
	if e.adjOff == nil {
		e.buildInduced(s.g, s.localOf, s.localValid)
	}
	n := len(vw.verts)
	sc := &s.oracleBuf
	sc.ensure(n)
	localAt, deg, coreAt, order := sc.localAt[:n], sc.deg[:n], sc.coreAt[:n], sc.order[:n]
	adjOff, adj := e.adjOff, e.adjLocal

	for pos, v := range vw.verts {
		localAt[pos] = s.localOf[v]
	}
	// The full set is the connected k-ĉore, so every vertex starts with
	// induced degree ≥ k. The sweep keeps "alive ⟺ deg ≥ k": a cascaded
	// vertex stops at k-1 and only falls further, a deleted one is set to
	// deadDeg, so neither needs a separate removed flag and the inner loop
	// decrements unconditionally.
	for lv := range deg {
		deg[lv] = adjOff[lv+1] - adjOff[lv]
	}

	// Reverse deletion: coreAt[lv] = smallest prefix length whose maximal
	// k-core contains lv.
	kk := int32(k)
	died := 0
	for i := int32(n); i >= 1; i-- {
		w := localAt[i-1]
		if deg[w] < kk {
			continue
		}
		// Deleting position i-1 shrinks the prefix below i: w dies here, and
		// so does everything its removal cascades.
		deg[w] = deadDeg
		head := died
		order[died] = w
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

	if s.canceled() {
		return false
	}

	// Joining pass: walk the death order backwards (ascending coreAt). q
	// joins when it activates; any other vertex joins when it is active and
	// a neighbor already has, and then floods every active vertex reachable
	// from it. Nothing can join before q does, so the walk starts at q.
	// coreAt doubles as the join record — a vertex that joins at prefix i
	// has its (positive) coreAt overwritten with -i — so the flood's test
	// "active and not joined yet" reads one word per edge.
	qLocal := s.localOf[q]
	queue := sc.queue[:n]
	idx := n - 1
	for order[idx] != qLocal {
		idx--
	}
	for ; idx >= 0; idx-- {
		lv := order[idx]
		at := coreAt[lv]
		if at < 0 {
			continue
		}
		if lv != qLocal && !anyJoined(adj[adjOff[lv]:adjOff[lv+1]], coreAt) {
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
	o := &vw.oracle
	s.adoptOracleBuffers(o)
	o.comm = slices.Grow(o.comm[:0], int(total))[:total]
	o.joinAt = slices.Grow(o.joinAt[:0], int(total))[:total]
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
	o.minFeasible = -coreAt[qLocal]
	o.memo = answerMemo{ids: o.memo.ids[:0]}
	o.built = true
	return true
}

// anyJoined reports whether any of nbrs has joined q's component (its coreAt
// is negated, see buildPrefixOracle).
func anyJoined(nbrs, coreAt []int32) bool {
	for _, u := range nbrs {
		if coreAt[u] < 0 {
			return true
		}
	}
	return false
}
