package core

import (
	"slices"

	"sacsearch/internal/graph"
)

// Shared candidate plans. A batch of queries pinned to one snapshot repeats
// the same per-community work on every worker: the membership BFS, the
// induced CSR, and — for the binary-search algorithms — the prefix-
// feasibility oracle are all rebuilt per worker cache, even though they
// depend only on the (immutable) snapshot. A SharedPlans table front-loads
// that work once on a single builder searcher and shares it read-only:
//
//   - one membership BFS + induced CSR per distinct community per k
//     (k-core communities partition vertices per k, so the table fans each
//     entry out to every member — the candCache.store trick applied across
//     the whole batch up front), and
//   - one sorted view + prefix oracle per distinct (q, k), built by the
//     builder instead of once per worker that happens to draw the query.
//
// The table is immutable after Build: entries are stored with their induced
// CSR forced and views with their oracle forced, so every lazy-build
// mutation path in the cached hot paths short-circuits and concurrent
// workers only ever read. Lookups are guarded by the graph pointer and its
// timeline stamp; any churn since Build makes every lookup miss and the
// searcher falls back to its own cache — a stale table can cost time, never
// correctness.
type SharedPlans struct {
	g           *graph.Graph
	at          stamp
	plans       map[cacheKey]*sharedPlan
	communities int
}

// sharedPlan is one (q, k)'s prebuilt candidate state: the community entry
// (shared between plans of the same community) and the q-sorted view with
// its oracle.
type sharedPlan struct {
	entry *cacheEntry
	view  sortedView
}

// PlanKey names one (q, k) pair to plan for.
type PlanKey struct {
	Q graph.V
	K int
}

// BuildSharedPlans precomputes candidate plans for the given (q, k) pairs on
// the builder searcher s, which must not be in use by another goroutine for
// the duration of the call. Only the k-core structure metric has prefix
// oracles; for other metrics the call returns nil and callers run the batch
// unshared. Duplicate keys are planned once; keys whose vertex has no
// feasible community get a negative plan that answers ErrNoCommunity
// directly.
func BuildSharedPlans(s *Searcher, keys []PlanKey) *SharedPlans {
	if s.structure != StructureKCore {
		return nil
	}
	// Drop whatever context the builder's last query left armed: the table
	// is shared read-only, so every oracle in it must be built to completion.
	s.begin()
	p := &SharedPlans{
		g:     s.g,
		at:    s.now(),
		plans: make(map[cacheKey]*sharedPlan, len(keys)),
	}
	// entryFor fans every built entry out to all community members, so later
	// keys into the same community reuse the BFS and induced CSR.
	entryFor := make(map[cacheKey]*cacheEntry, len(keys))
	for _, key := range keys {
		if key.Q < 0 || int(key.Q) >= s.g.NumVertices() || key.K < 0 {
			continue // invalid keys fall back to the normal path's error
		}
		ck := cacheKey{key.Q, int32(key.K)}
		if _, ok := p.plans[ck]; ok {
			continue
		}
		e, ok := entryFor[ck]
		if !ok {
			members := s.communityOf(key.Q, key.K)
			e = &cacheEntry{members: members, at: p.at}
			if members == nil {
				entryFor[ck] = e
			} else {
				s.bindLocal(e)
				e.buildInduced(s.g, s.localOf, s.localValid)
				for _, v := range members {
					entryFor[cacheKey{v, int32(key.K)}] = e
				}
				p.communities++
			}
		}
		pl := &sharedPlan{entry: e}
		if e.members != nil {
			vw := &pl.view
			vw.q = key.Q
			vw.at = p.at
			vw.verts = slices.Clone(e.members)
			s.sortAround(key.Q, vw.verts)
			s.bindLocal(e)
			s.buildPrefixOracle(e, vw, key.Q, key.K)
		}
		p.plans[ck] = pl
	}
	// The builder's local binding points at a table entry; drop it so the
	// builder's next ordinary query rebinds cleanly.
	s.localEntry = nil
	return p
}

// lookup returns the plan for (q, k) when the table was built for exactly
// this graph at its current epochs, else nil.
func (p *SharedPlans) lookup(g *graph.Graph, q graph.V, k int) *sharedPlan {
	if p.g != g || p.at != stampOf(g) {
		return nil
	}
	return p.plans[cacheKey{q, int32(k)}]
}

// Len returns the number of planned (q, k) pairs.
func (p *SharedPlans) Len() int { return len(p.plans) }

// Communities returns the number of distinct feasible communities the table
// holds (the number of BFS + induced-CSR builds it amortizes).
func (p *SharedPlans) Communities() int { return p.communities }

// SetSharedPlans points the searcher at a prebuilt plan table (nil
// detaches). Planned queries resolve their candidate set from the table —
// read-only, so any number of searchers over the same snapshot may share
// one table concurrently; unplanned or epoch-stale queries take the normal
// cached path.
func (s *Searcher) SetSharedPlans(p *SharedPlans) { s.sharedPlans = p }
