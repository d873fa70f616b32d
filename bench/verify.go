package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"sacsearch/client"
	"sacsearch/internal/core"
	"sacsearch/internal/graph"
)

// verifyCap bounds how many answers per run are recomputed by the
// in-process reference searcher. Recomputing a cold syn1 query costs what
// the server paid for it (~30 ms), so recomputing every answer of a cold run
// would double the run; instead every distinct answer gets the structural
// check below, every repeat must equal its first occurrence, and an evenly
// spaced sample of verifyCap distinct answers is recomputed, by
// verifyWorkers goroutines (one per CPU of the reference sandbox; the
// daemons are idle by then).
const (
	verifyCap     = 64
	verifyWorkers = 2
)

// radiusTol is how far an answer's MCC radius may sit from the reference's.
const radiusTol = 1e-9

// verdict is the outcome of checking one run.
type verdict struct {
	checked    int      // answers compared against the reference searcher
	wrong      int      // answers that failed any check
	complaints []string // the first few failures, for the report
}

func (v *verdict) fail(format string, args ...any) {
	v.wrong++
	if len(v.complaints) < 5 {
		v.complaints = append(v.complaints, fmt.Sprintf(format, args...))
	}
}

// structural checks an answer against the paper's definition, with no
// reference to how it was computed: the members contain q, induce a
// connected subgraph of minimum degree k, and the reported circle is their
// minimum covering circle.
func structural(g *graph.Graph, res *client.Result) error {
	n := len(res.Members)
	if n == 0 {
		return fmt.Errorf("empty community")
	}
	vs := make([]graph.V, n)
	idx := make(map[graph.V]int, n)
	for i, m := range res.Members {
		if i > 0 && m <= res.Members[i-1] {
			return fmt.Errorf("members not strictly ascending at %d", m)
		}
		vs[i] = graph.V(m)
		idx[vs[i]] = i
	}
	if _, ok := idx[graph.V(res.Q)]; !ok {
		return fmt.Errorf("community does not contain q")
	}
	seen := make([]bool, n)
	queue := []int{idx[graph.V(res.Q)]}
	seen[queue[0]] = true
	reached := 1
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		deg := 0
		for _, w := range g.Neighbors(vs[i]) {
			j, ok := idx[w]
			if !ok {
				continue
			}
			deg++
			if !seen[j] {
				seen[j] = true
				reached++
				queue = append(queue, j)
			}
		}
		if deg < res.K {
			return fmt.Errorf("member %d has %d neighbours in the community, k = %d", vs[i], deg, res.K)
		}
	}
	if reached != n {
		return fmt.Errorf("community is not connected (%d of %d reachable from q)", reached, n)
	}
	if r := g.MCCOf(vs).R; math.Abs(r-res.MCC.R) > radiusTol {
		return fmt.Errorf("reported radius %.12g, members' covering circle has %.12g", res.MCC.R, r)
	}
	return nil
}

// sameAnswer compares an answer with the reference's for the same query on
// the same graph: equal members and an equal radius. AppInc is the
// exception. It grows its circle one vertex at a time in distance order and
// stops at the first feasible prefix, so which vertices of a group at equal
// distance it has taken when it stops depends on how the sort broke the tie
// — and syn1 places over a thousand vertices at one point, so such groups
// are common and the members differ from one warm cache to the next. What
// does not depend on the tie-break is δ, the distance at which the prefix
// became feasible: an AppInc answer must report the reference's δ and lie
// inside O(q, δ) (the structural check has already shown it is a community).
func sameAnswer(g *graph.Graph, algo string, res *client.Result, ref *core.Result) error {
	if algo == "appinc" {
		if res.Delta != ref.Delta {
			return fmt.Errorf("δ = %.17g, reference %.17g", res.Delta, ref.Delta)
		}
		q := g.Loc(graph.V(res.Q))
		for _, m := range res.Members {
			if d := q.Dist(g.Loc(graph.V(m))); d > res.Delta {
				return fmt.Errorf("member %d lies %.17g from q, outside δ = %.17g", m, d, res.Delta)
			}
		}
		return nil
	}
	if len(res.Members) != len(ref.Members) {
		return fmt.Errorf("%d members, reference has %d", len(res.Members), len(ref.Members))
	}
	for i, m := range ref.Members {
		if res.Members[i] != int64(m) {
			return fmt.Errorf("member %d is %d, reference has %d", i, res.Members[i], m)
		}
	}
	if math.Abs(res.MCC.R-ref.MCC.R) > radiusTol {
		return fmt.Errorf("radius %.12g, reference %.12g", res.MCC.R, ref.MCC.R)
	}
	return nil
}

// sameResponse reports whether two answers to one query on an unchanged
// graph agree (for AppInc, in δ: see sameAnswer).
func sameResponse(algo string, a, b *client.Result) bool {
	if algo == "appinc" {
		return a.Delta == b.Delta
	}
	if len(a.Members) != len(b.Members) || a.MCC != b.MCC {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	return true
}

// evenSample picks at most max of n indices, evenly spaced.
func evenSample(n, max int) []int {
	if n <= max {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, max)
	for i := range out {
		out[i] = i * n / max
	}
	return out
}

// verify checks every answer of a run. Errors and time-outs are already on
// the records; this adds wrong answers.
func verify(rr *runResult) *verdict {
	if rr.Workload == wlChurn {
		return verifyChurn(rr)
	}
	return verifyReadOnly(rr)
}

type answerKey struct {
	v    graph.V
	algo string
}

// verifyReadOnly: the graph never changes, so every (q, algo) has one right
// answer for the whole run.
func verifyReadOnly(rr *runResult) *verdict {
	vd := &verdict{}
	g := rr.in.g
	first := map[answerKey]*client.Result{}
	var keys []answerKey
	for i := range rr.records {
		r := &rr.records[i]
		k := answerKey{r.op.V, r.op.Algo}
		if r.changed {
			vd.fail("q=%d %s: answer changed between two reads of an unchanged graph", k.v, k.algo)
		}
		if r.err != nil || r.res == nil {
			continue
		}
		// Each connection kept its own first answer; they must agree too.
		if prev, ok := first[k]; ok {
			if !sameResponse(k.algo, prev, r.res) {
				vd.fail("q=%d %s: two connections got different answers on an unchanged graph", k.v, k.algo)
			}
			continue
		}
		first[k] = r.res
		keys = append(keys, k)
		if err := structural(g, r.res); err != nil {
			vd.fail("q=%d %s: %v", k.v, k.algo, err)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].v != keys[j].v {
			return keys[i].v < keys[j].v
		}
		return keys[i].algo < keys[j].algo
	})
	sample := evenSample(len(keys), verifyCap)
	base := core.NewSearcher(g)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < verifyWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := base.Clone()
			for i := w; i < len(sample); i += verifyWorkers {
				k := keys[sample[i]]
				ref, err := s.Search(context.Background(), core.Query{Algo: k.algo, Q: k.v, K: queryK})
				if err == nil {
					err = sameAnswer(g, k.algo, first[k], ref)
				}
				mu.Lock()
				vd.checked++
				if err != nil {
					vd.fail("q=%d %s: %v", k.v, k.algo, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return vd
}

// verifyChurn replays the run's op log, in order, onto a reference graph.
// Every query answer gets the structural check against the graph as it stood
// when the query ran; an evenly spaced sample of the loop's queries and the
// whole final sweep are recomputed by a fresh searcher (fresh core
// decomposition, empty caches) on a copy of that graph; and the community
// tracked from the delta stream must equal a fresh search on the final graph.
func verifyChurn(rr *runResult) *verdict {
	vd := &verdict{}
	g := rr.in.g.Clone()

	var queries []int
	for i := range rr.records {
		r := &rr.records[i]
		if r.op.Kind == opQuery && r.err == nil && r.res != nil && r.conn >= 0 {
			queries = append(queries, i)
		}
	}
	recompute := map[int]bool{}
	for _, j := range evenSample(len(queries), verifyCap) {
		recompute[queries[j]] = true
	}

	type job struct {
		g   *graph.Graph
		rec *opRecord
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < verifyWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ref, err := core.NewSearcher(j.g).Search(context.Background(),
					core.Query{Algo: j.rec.op.Algo, Q: j.rec.op.V, K: queryK})
				if err == nil {
					err = sameAnswer(j.g, j.rec.op.Algo, j.rec.res, ref)
				}
				mu.Lock()
				vd.checked++
				if err != nil {
					vd.fail("q=%d after replay: %v", j.rec.op.V, err)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range rr.records {
		r := &rr.records[i]
		if r.err != nil {
			// A write that failed may or may not have been applied; nothing
			// after it can be checked against a replay.
			if r.op.Kind != opQuery {
				mu.Lock()
				vd.fail("write failed (%v); replay stops here", r.err)
				mu.Unlock()
				break
			}
			continue
		}
		switch r.op.Kind {
		case opCheckin, opTargeted:
			g.SetLoc(r.op.V, r.pos)
		case opEdge:
			if r.op.Insert {
				g.AddEdge(r.op.V, r.op.W)
			} else {
				g.RemoveEdge(r.op.V, r.op.W)
			}
		case opQuery:
			if err := structural(g, r.res); err != nil {
				mu.Lock()
				vd.fail("q=%d: %v", r.op.V, err)
				mu.Unlock()
			}
			if recompute[i] || r.conn < 0 {
				jobs <- job{g.Clone(), r}
			}
		}
	}
	close(jobs)
	wg.Wait()

	q := rr.in.hot[0]
	ref, err := core.NewSearcher(g).Search(context.Background(), core.Query{Algo: "appfast", Q: q, K: queryK})
	vd.checked++
	switch {
	case err != nil:
		vd.fail("standing query on the final graph: %v", err)
	case len(ref.Members) != len(rr.standing):
		vd.fail("delta stream ends at %d members, fresh search has %d", len(rr.standing), len(ref.Members))
	default:
		for _, m := range ref.Members {
			if _, ok := rr.standing[int64(m)]; !ok {
				vd.fail("delta stream lost member %d of the final community", m)
				break
			}
		}
	}
	return vd
}
