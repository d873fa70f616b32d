// Package core implements the paper's primary contribution: spatial-aware
// community (SAC) search over large spatial graphs (Problem 1).
//
// Given a spatial graph G, a query vertex q and a degree threshold k, SAC
// search returns a connected subgraph containing q whose vertices all have
// degree ≥ k inside the subgraph, covered by the minimum covering circle
// (MCC) of smallest radius among all such subgraphs. The package provides
// the five algorithms of Section 4 plus the θ-SAC variant of Section 3:
//
//	Exact     — Algorithm 1, ratio 1,      O(m·n³)
//	AppInc    — Algorithm 2, ratio 2,      O(m·n)
//	AppFast   — Algorithm 3, ratio 2+εF,   O(m·min{n, log 1/εF})
//	AppAcc    — Algorithm 4, ratio 1+εA,   O(m/εA² · min{n, log 1/εA})
//	ExactPlus — Algorithm 5, ratio 1,      AppAcc + O(m·|F1|³)
//	ThetaSAC  — Global [29] restricted to the circle O(q, θ)
//
// Every query enters through Searcher.Search, which validates it against the
// algorithm registry (registry.go) and runs the chosen algorithm's body
// through the one query lifecycle (Searcher.run); the per-algorithm methods
// are one-line conveniences that build a Query and call Search.
//
// Structure cohesiveness is pluggable: the default is the minimum-degree
// k-core metric; the k-truss and k-clique metrics (Section 3 "Remarks") are
// available via StructureKTruss and StructureKClique.
//
// Every algorithm reduces to one question asked many times — which connected
// k-structure holding q lies inside this vertex set? — and for the k-core
// metric it has three answers that agree on the members (the last two on
// their order as well, a BFS from q; the oracle's is its own, see there):
//
//   - the prefix oracle (oracle.go), for a distance prefix of q's cached
//     sorted view: one sweep answers every prefix, a probe is a binary search.
//     AppInc's growth, AppFast's bisection and AppAcc's first phase reach it.
//   - the grid peel (circle.go), for the vertices of the query's working set
//     inside a circle, or any subset of it: the per-query spatial.SubGrid is
//     the id space of a compact CSR cut from the cached community's induced
//     rows, and the peel runs over grid positions. AppAcc's anchor probes,
//     the Exact / Exact+ circle scans and the minimum-diameter searches
//     reach it.
//   - the global kcore.Peeler, for a vertex set that is a subset of nothing
//     cached. Only θ-SAC's circle is: every other query takes its candidate
//     set from the cache (candidates), so it never comes here.
//
// k-truss and k-clique have one checker each (Searcher.feasible dispatches).
// The independent side of every differential is reference_test.go: the
// paper's definitions brute-forced over the graph alone.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/kclique"
	"sacsearch/internal/kcore"
	"sacsearch/internal/ktruss"
)

// ErrNoCommunity is returned when the query vertex belongs to no connected
// structure (k-core, k-truss or k-clique community) of the requested order,
// so no feasible solution exists.
var ErrNoCommunity = errors.New("core: query vertex has no feasible community")

// Structure selects the structure-cohesiveness metric (Section 3, Remarks).
type Structure int

const (
	// StructureKCore requires every community vertex to have degree ≥ k
	// within the community (Definition 1; the paper's default).
	StructureKCore Structure = iota
	// StructureKTruss requires every community edge to close ≥ k-2
	// triangles within the community.
	StructureKTruss
	// StructureKClique requires the community to be a k-clique community:
	// a union of k-cliques connected through shared (k-1)-vertex overlaps
	// (clique percolation).
	StructureKClique
)

func (s Structure) String() string {
	switch s {
	case StructureKCore:
		return "k-core"
	case StructureKTruss:
		return "k-truss"
	case StructureKClique:
		return "k-clique"
	default:
		return fmt.Sprintf("Structure(%d)", int(s))
	}
}

// Stats records per-query work counters; they feed the efficiency figures
// and the server's per-algorithm metrics. At two or more workers an Exact or
// Exact+ scan's FeasibilityChecks and CirclesExamined depend on how its
// strips interleave (parallel.go), so one query on one state may report
// different counts from run to run; its answer does not differ.
type Stats struct {
	CandidateSize     int           // |X|: size of q's k-ĉore
	FeasibilityChecks int           // restricted peeling invocations
	CirclesExamined   int           // pair/triple circles evaluated (Exact, Exact+)
	AnchorsProcessed  int           // AppAcc anchors binary-searched
	AnchorsPruned     int           // AppAcc anchors cut by Pruning1/Pruning2
	BinaryIters       int           // binary-search iterations (AppFast, AppAcc)
	F1Size            int           // |F1| potential fixed vertices (Exact+)
	Workers           int           // searchers the circle scan ran on (Exact, Exact+; 1 = inline)
	CacheHits         int           // candidate sets served from the membership cache
	ViewHits          int           // sorted views reused as they stood
	ViewRepairs       int           // sorted views brought current by moving checked-in members
	ViewRebuilds      int           // sorted views computed and sorted from scratch
	EntriesDropped    int           // cached communities a topology change (or a lost journal) invalidated
	OracleBuilds      int           // prefix oracles built from nothing
	OracleRepairs     int           // prefix oracles repaired from their last build
	OracleRepairSpan  int           // prefix lengths the repaired records dirtied, whether windows or a replay settled them
	OracleReplays     int           // repairs a replay settled, of OracleRepairs
	OracleReplayed    int           // vertices the replays evaluated or settled, those that fell back to windows too
	AnswerHits        int           // finished answers read from a view version: no algorithm ran (answers.go)
	Elapsed           time.Duration // wall-clock time of the query
}

// Result is the outcome of one SAC query. Members is read-only: a repeat of
// the query on the same state is answered from the answer the store kept
// (answers.go), and every repeat shares its Members. Search gives a repeat
// its own stats; the kept Answer's are those of the search that finished
// it, the exact scans' interleaving-dependent counts included (see Stats),
// and a snapshot's door reports them on every hit.
type Result struct {
	Query   graph.V
	K       int
	Members []graph.V   // community vertices, ascending
	MCC     geom.Circle // minimum covering circle of Members
	// Delta is the radius δ of the smallest q-centered circle known to
	// contain a feasible solution (AppInc, AppFast, AppAcc); it is the MCC
	// radius itself for the exact algorithms and θ for ThetaSAC.
	Delta float64
	Stats Stats
}

// Radius returns the MCC radius of the community (the quantity the paper's
// approximation ratios are defined over).
func (r *Result) Radius() float64 { return r.MCC.R }

// Size returns the number of community members.
func (r *Result) Size() int { return len(r.Members) }

// Contains reports whether v is a community member.
func (r *Result) Contains(v graph.V) bool {
	i := sort.Search(len(r.Members), func(i int) bool { return r.Members[i] >= v })
	return i < len(r.Members) && r.Members[i] == v
}

// Searcher runs SAC queries against one graph. It precomputes the core
// decomposition (O(m), once) and owns the scratch space reused across
// queries, so it is cheap to query repeatedly but not safe for concurrent
// use; use Clone for parallel query streams.
type Searcher struct {
	g         *graph.Graph
	structure Structure

	cores []int32          // k-core numbers, computed eagerly
	truss map[uint64]int32 // k-truss numbers, computed lazily

	// maint keeps cores current across edge writes routed through Apply
	// (lazily created; see maintain.go in
	// internal/kcore). cores is shared across clones, so one searcher's
	// maintainer refreshes every worker drawn from the same pool.
	maint *kcore.Maintainer

	peeler    *kcore.Peeler
	trussChk  *ktruss.Checker
	cliqueChk *kclique.Checker

	// Candidate-set cache (see cache.go), the only source of a query's
	// candidate set, shared with every searcher of the pool; rep is the
	// scratch of its repairs (repair.go). noCache: see SetCandidateCaching.
	store   *viewStore
	noCache bool
	rep     repairScratch

	// curEntry/curView identify the cache entry and view version of the
	// query in flight (nil for θ-SAC, which gathers from its circle
	// instead); the k-core feasibility fast paths answer prefix probes
	// through the view's oracle and cut the working set's CSR from the
	// entry's induced adjacency. The query pins both until release.
	curEntry, pinnedEntry *cacheEntry
	curView, pinnedView   *viewVersion
	// Global→local id translation for the members of localMembers (see
	// bindLocal).
	localMembers []graph.V
	localOf      []int32
	localValid   *graph.Marker
	oracleBuf    oracleScratch

	// Scratch buffers shared by the algorithms.
	distBuf   []float64
	vertBuf   []graph.V
	subBuf    []graph.V
	fastBuf   []graph.V // appFastSearch's Λ when it is neither X nor an oracle answer
	bestBuf   []graph.V // Exact's incumbent community
	anchorBuf []graph.V // anchorSearch's incumbent community
	anchorPos []int32   // and its positions in the working set (holdAnswer)
	f1Buf     []graph.V // ExactPlus's potential fixed vertices F1
	ptsBuf    []geom.Point
	inX       *graph.Marker
	visited   *graph.Marker

	// cand is the query's candidate set: it aliases the cache entry's sorted
	// view. sortKeys holds the distances a sort runs on and nothing
	// afterwards.
	cand     candidateSet
	sortKeys []float64
	distSort distSorter

	// ws indexes the working set of the query in flight: X for Exact, S (the
	// k-ĉore inside O(q, 2γ)) for AppAcc/ExactPlus. Circle enumeration and
	// anchor probes go through circleFeasible against it (circle.go), with pk
	// as the peel's scratch.
	ws workingSet
	pk posPeeler

	// acc is AppAcc's per-query state, reused across queries.
	acc appAccState

	// pool is the pool this searcher was cloned by (recorded by Pool.Get),
	// or the one it makes for itself on its first scan in strips; the Exact
	// and Exact+ circle scan borrows its helpers from it (parallel.go).
	// wsFrom points a helper at the dispatching searcher's working set
	// (read-only once indexed) for the duration of one scan.
	pool   *Pool
	wsFrom *workingSet

	stats Stats // counters for the query in flight

	// qctx is the context of the query in flight (nil when the query is not
	// cancellable); ctxErr latches the first context error observed at a loop
	// boundary so later boundaries short-circuit, and ctxTick amortizes the
	// innermost-loop checks (see ctx.go).
	qctx      context.Context
	ctxErr    error
	ctxTick   uint
	qdeadline time.Time
}

// SetCandidateCaching(false) makes every later query of this searcher start
// from a cold candidate cache: candidates gives the searcher an empty store
// of its own as the query begins, and the query then fills it and runs
// exactly as a first query would. The store the searcher shared with its
// pool is left alone. It is not a second implementation; answers are the
// same either way. The repeated-query benchmarks use it to time the
// from-scratch cost. On is the default.
func (s *Searcher) SetCandidateCaching(enabled bool) { s.noCache = !enabled }

// NewSearcher creates a Searcher with the default k-core structure metric.
func NewSearcher(g *graph.Graph) *Searcher {
	return &Searcher{
		g:         g,
		structure: StructureKCore,
		store:     &viewStore{},
		cores:     kcore.Decompose(g),
		peeler:    kcore.NewPeeler(g),
		inX:       graph.NewMarker(g.NumVertices()),
		visited:   graph.NewMarker(g.NumVertices()),
	}
}

// NewSearcherWithStructure creates a Searcher using the given structure
// cohesiveness metric.
func NewSearcherWithStructure(g *graph.Graph, st Structure) *Searcher {
	s := NewSearcher(g)
	s.structure = st
	switch st {
	case StructureKTruss:
		s.truss = ktruss.Decompose(g)
		s.trussChk = ktruss.NewChecker(g)
	case StructureKClique:
		s.cliqueChk = kclique.NewChecker(g)
	}
	return s
}

// Clone returns a Searcher over the same graph for use from another
// goroutine. It shares the immutable decompositions and the candidate cache
// (the store is safe for concurrent use, see cache.go), but not the scratch
// space. The caching toggle carries over.
func (s *Searcher) Clone() *Searcher {
	n := s.g.NumVertices()
	c := &Searcher{
		g:         s.g,
		structure: s.structure,
		store:     s.store,
		cores:     s.cores,
		truss:     s.truss,
		peeler:    kcore.NewPeeler(s.g),
		inX:       graph.NewMarker(n),
		visited:   graph.NewMarker(n),
		noCache:   s.noCache,
	}
	switch s.structure {
	case StructureKTruss:
		c.trussChk = ktruss.NewChecker(s.g)
	case StructureKClique:
		c.cliqueChk = kclique.NewChecker(s.g)
	}
	return c
}

// Graph returns the graph the searcher operates on.
func (s *Searcher) Graph() *graph.Graph { return s.g }

// CoreNumber returns the k-core number of v.
func (s *Searcher) CoreNumber(v graph.V) int { return int(s.cores[v]) }

// trivialK resolves the orders at which the optimum needs no search
// (Section 4.1): q alone for a 1-clique, q plus its nearest neighbor when a
// single edge already satisfies the structure. handled is true when the
// query was resolved here.
func (s *Searcher) trivialK(q graph.V, k int) (members []graph.V, delta float64, handled bool, err error) {
	limit := 1 // k-core: k=1 pairs with the nearest neighbor
	switch s.structure {
	case StructureKTruss:
		limit = 2 // a 2-truss is just an edge
	case StructureKClique:
		if k == 1 {
			// q alone is a 1-clique: the optimal community has radius 0.
			return []graph.V{q}, 0, true, nil
		}
		limit = 2 // a 2-clique is just an edge
	}
	if k > limit {
		return nil, 0, false, nil
	}
	nn := s.g.NearestNeighbor(q)
	if nn < 0 {
		return nil, 0, true, ErrNoCommunity
	}
	return []graph.V{q, nn}, s.g.Dist(q, nn), true, nil
}

// feasible returns the maximal connected structure (k-core, k-truss or
// k-clique community) containing q within G[S], or nil. The returned slice is
// scratch-owned. Circle subsets of the working set do not come here with
// their ids: they go through circleFeasible.
func (s *Searcher) feasible(S []graph.V, q graph.V, k int) []graph.V {
	s.stats.FeasibilityChecks++
	switch s.structure {
	case StructureKTruss:
		return s.trussChk.KTrussWithin(S, q, k)
	case StructureKClique:
		return s.cliqueChk.KCliqueWithin(S, q, k)
	default:
		// Three k-core paths, all returning the members the last one would. A
		// distance prefix of the cached view (the binary searches) is answered
		// by the view's prefix oracle in O(answer). Any other subset of an
		// indexed working set is translated to grid positions and peeled over
		// the working set's own CSR (circle.go). θ-SAC takes the global
		// peeler: its circle is not a subset of anything cached.
		if vw := s.curView; vw != nil && len(S) > 0 && len(S) <= len(vw.verts) && &S[0] == &vw.verts[0] {
			return vw.prefixFeasible(len(S))
		}
		if s.ws.peelable {
			return s.subsetFeasible(S, k)
		}
		return s.peeler.KCoreWithin(S, q, k)
	}
}

// minQueryNeighbors is the minimum number of q's neighbors any feasible
// community must contain: k for k-core, k-1 for k-truss (each incident edge
// closes k-2 triangles) and k-clique (q sits in at least one k-clique).
func (s *Searcher) minQueryNeighbors(k int) int {
	if s.structure == StructureKTruss || s.structure == StructureKClique {
		return k - 1
	}
	return k
}

// candidateSet is the vertex list X of q's connected k-structure, sorted by
// ascending distance from q (Algorithm 1, lines 2-3). Every feasible
// solution is a subset of X, so all algorithms operate inside it. Distances
// are read off the graph's locations, not stored.
type candidateSet struct {
	verts []graph.V    // ascending by (dist from q, id); verts[0] == q
	locs  []geom.Point // the graph's locations
	qp    geom.Point   // q's location
}

// distFrom is the sort key of v in a view around a vertex at qp; every
// distance a candidate set reports goes through this one expression, so the
// value recomputed at a rank is the float64 the sort ordered by.
func distFrom(qp geom.Point, locs []geom.Point, v graph.V) float64 { return qp.Dist(locs[v]) }

// dist returns the distance from q of the candidate at rank i.
func (c *candidateSet) dist(i int) float64 { return distFrom(c.qp, c.locs, c.verts[i]) }

// rankBeyond returns the number of candidates within distance r of q (with
// geometric tolerance): the first rank whose distance reaches r+Eps.
func (c *candidateSet) rankBeyond(r float64) int {
	r += geom.Eps
	return sort.Search(len(c.verts), func(i int) bool { return c.dist(i) >= r })
}

// prefixWithin returns the prefix of verts whose distance from q is ≤ r
// (with geometric tolerance).
func (c *candidateSet) prefixWithin(r float64) []graph.V { return c.verts[:c.rankBeyond(r)] }

// nextDistAfter returns the smallest candidate distance strictly greater
// than r, or -1 when none exists.
func (c *candidateSet) nextDistAfter(r float64) float64 {
	i := c.rankBeyond(r)
	if i >= len(c.verts) {
		return -1
	}
	return c.dist(i)
}

// maxDist returns the largest candidate distance.
func (c *candidateSet) maxDist() float64 { return c.dist(len(c.verts) - 1) }

// sortAround puts verts in ascending (distance from q, id) order.
func (s *Searcher) sortAround(q graph.V, verts []graph.V) {
	keys := slices.Grow(s.sortKeys[:0], len(verts))
	qp, locs := s.g.Loc(q), s.g.Locs()
	for _, v := range verts {
		keys = append(keys, distFrom(qp, locs, v))
	}
	s.distSort.sort(verts, keys)
	s.sortKeys = keys
}

// communityOf walks the topology for the connected k-structure containing q
// (nil when none exists). The returned slice is freshly allocated.
func (s *Searcher) communityOf(q graph.V, k int) []graph.V {
	switch s.structure {
	case StructureKTruss:
		return ktruss.CommunityOf(s.g, s.truss, q, k)
	case StructureKClique:
		return kclique.CommunityOf(s.g, q, k)
	default:
		return kcore.CommunityOf(s.g, s.cores, q, k)
	}
}

// candidates builds the candidate set for (q, k), or ErrNoCommunity.
//
// Membership comes from the per-community cache whenever any member of q's
// community was queried before at this k, and the order from the view q left
// there. Either may be behind the graph — the graph was mutated, or the
// query is pinned to a newer snapshot than the one that last touched them —
// and is then brought current from the mutation journal: see revalidate for
// what keeps an entry across edge ops and makeView for how a view follows
// check-ins. What cannot be repaired is recomputed here, as on first use.
// The entry and the view stay pinned until the query ends (release).
func (s *Searcher) candidates(q graph.V, k int) (*candidateSet, error) {
	// Candidate construction — community BFS, induced CSR, distance sort —
	// is the dominant pre-loop cost of the cheap algorithms on a cold
	// cache, so a dead context bails here too, not only inside the search
	// loops.
	if s.canceled() {
		return nil, s.canceledError()
	}
	if s.noCache {
		s.store = &viewStore{}
	}

	e, hit := s.enter(q, k)
	if hit {
		s.stats.CacheHits++
	}
	if e.members == nil {
		return nil, ErrNoCommunity
	}
	s.bindLocal(e)
	vw := s.refreshView(e, q, k)
	if vw == nil {
		return nil, s.canceledError()
	}
	s.curView, s.pinnedView = vw, vw
	s.cand = candidateSet{verts: vw.verts, locs: s.g.Locs(), qp: s.g.Loc(q)}
	s.stats.CandidateSize = len(vw.verts)
	return &s.cand, nil
}

// deltaIsRadius is the δ a body returns to report the result's own MCC
// radius (the exact algorithms): the radius over the sorted members, not the
// scan's running value, whose last bits depend on the order the winning
// feasibility check happened to emit the community in.
const deltaIsRadius = -1

// buildAnswer finishes members — a fresh copy in id order and their MCC,
// see finish — into an Answer with the stats so far.
func (s *Searcher) buildAnswer(q graph.V, k int, members []graph.V, delta float64) *Answer {
	ms, mcc := s.finish(members)
	if delta == deltaIsRadius {
		delta = mcc.R
	}
	return &Answer{Result: Result{Query: q, K: k, Members: ms, MCC: mcc, Delta: delta, Stats: s.stats}}
}

// finish returns members in id order, freshly allocated, and their MCC.
func (s *Searcher) finish(members []graph.V) ([]graph.V, geom.Circle) {
	ms := make([]graph.V, len(members))
	s.distSort.sortIDs(ms, members)
	return ms, s.mccOf(ms)
}

// algoBody is what one algorithm contributes to a query: from the armed
// searcher, the candidate set, q, k and the resolved query, whose parameters
// it reads, to the community and its δ. The returned slice may be
// scratch-owned; run copies it.
type algoBody func(s *Searcher, cand *candidateSet, q graph.V, k int, p Resolved) (members []graph.V, delta float64, err error)

// run is the query lifecycle, the only place one runs: reset the per-query
// state and arm ctx, open the way Algorithm 1 does (lines 2-3: trivial k,
// then q's k-ĉore sorted by distance from q), hand the candidate set to the
// algorithm's body, and turn what it found — or the cancellation it latched —
// into the Answer, leaving the query's own counters in s.stats. circleOnly is
// θ-SAC, which gathers from O(q, θ) instead of the candidate set and has no
// trivial k; its body gets a nil cand.
//
// A query the registry resolved (key.Algo set), θ-SAC's aside, keeps its
// answer on the view version candidates pinned (answers.go). An answer the
// version holds already is returned as it stands, with no body run.
func (s *Searcher) run(ctx context.Context, key Resolved, body algoBody, circleOnly bool) (*Answer, error) {
	start := time.Now()
	queriesInFlight.Add(1)
	defer queriesInFlight.Add(-1)
	s.begin(ctx)
	defer s.release()
	q, k := key.Q, key.K
	var (
		cand    *candidateSet
		vw      *viewVersion // the version whose answer key reads and keeps
		members []graph.V
		delta   float64
		handled bool
		err     error
	)
	if !circleOnly {
		if members, delta, handled, err = s.trivialK(q, k); !handled {
			if cand, err = s.candidates(q, k); err == nil && key.Algo != "" {
				vw = s.curView
				if a := vw.lookup(key); a != nil {
					s.stats.AnswerHits++
					s.stats.Elapsed = time.Since(start)
					return a, nil
				}
			}
		}
	}
	if !handled && err == nil {
		members, delta, err = body(s, cand, q, k, key)
	}
	if s.ctxErr != nil {
		return nil, s.canceledError()
	}
	if err != nil {
		return nil, err
	}
	a := s.buildAnswer(q, k, members, delta)
	a.Stats.Elapsed = time.Since(start)
	s.stats.Elapsed = a.Stats.Elapsed
	if vw != nil {
		a.key = key
		vw.keep(a)
	}
	return a, nil
}

// mccOf returns the minimum covering circle of the given vertices' locations:
// graph.MCCOf, bit for bit, on the searcher's point buffer instead of two
// fresh copies per call.
func (s *Searcher) mccOf(vs []graph.V) geom.Circle {
	s.ptsBuf = s.g.Points(vs, s.ptsBuf[:0])
	return geom.MCCInPlace(s.ptsBuf)
}

// maxDistFrom returns the largest distance from p to any member's location.
func (s *Searcher) maxDistFrom(p geom.Point, members []graph.V) float64 {
	var best float64
	for _, v := range members {
		if d := p.Dist(s.g.Loc(v)); d > best {
			best = d
		}
	}
	return best
}
