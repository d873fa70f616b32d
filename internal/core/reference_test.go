package core_test

// The reference: the paper's definitions, brute-forced. It shares nothing with
// the code under test but the graph (adjacency and locations), geom.Point and
// geom.Eps — its own peels, its own connectivity, its own distances and its
// own smallest enclosing circle — so a bug in the core's peels, cache, oracle,
// grid or MCC cannot pass by agreeing with itself. It is the independent side
// of the core's differentials: every answer of every registered algorithm is
// checked against it on small graphs built to tie.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// refTol absorbs the last bits two correct computations of one radius may
// differ by.
const refTol = 1e-9

func refDist(a, b geom.Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// refKCore is q's connected k-core in G[set], ascending, or nil: delete every
// vertex of degree < k until none is left, then walk from q.
func refKCore(g *graph.Graph, set []graph.V, q graph.V, k int) []graph.V {
	alive := refSet(set)
	for changed := true; changed; {
		changed = false
		for _, v := range set {
			if !alive[v] {
				continue
			}
			d := 0
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					d++
				}
			}
			if d < k {
				delete(alive, v)
				changed = true
			}
		}
	}
	if !alive[q] {
		return nil
	}
	return refWalk(q, func(v graph.V) []graph.V {
		var out []graph.V
		for _, u := range g.Neighbors(v) {
			if alive[u] {
				out = append(out, u)
			}
		}
		return out
	})
}

// refKTruss is the vertex set of q's connected k-truss in G[set], ascending,
// or nil: delete every edge in fewer than k-2 triangles until none is left,
// then walk from q along the edges that remain.
func refKTruss(g *graph.Graph, set []graph.V, q graph.V, k int) []graph.V {
	in := refSet(set)
	type edge struct{ u, v graph.V }
	alive := map[edge]bool{}
	key := func(u, v graph.V) edge {
		if u > v {
			u, v = v, u
		}
		return edge{u, v}
	}
	var edges []edge
	for _, u := range set {
		for _, v := range g.Neighbors(u) {
			if u < v && in[v] {
				alive[edge{u, v}] = true
				edges = append(edges, edge{u, v})
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if !alive[e] {
				continue
			}
			support := 0
			for _, w := range set {
				if alive[key(e.u, w)] && alive[key(e.v, w)] {
					support++
				}
			}
			if support < k-2 {
				delete(alive, e)
				changed = true
			}
		}
	}
	next := func(v graph.V) []graph.V {
		var out []graph.V
		for _, u := range set {
			if alive[key(v, u)] {
				out = append(out, u)
			}
		}
		return out
	}
	if !in[q] || len(next(q)) == 0 {
		return nil
	}
	return refWalk(q, next)
}

// refKClique is q's k-clique community in G[set], ascending, or nil: the union
// of the k-cliques reachable from a k-clique holding q through k-cliques that
// share k-1 vertices (clique percolation). A 1-clique is q alone.
func refKClique(g *graph.Graph, set []graph.V, q graph.V, k int) []graph.V {
	in := refSet(set)
	if !in[q] {
		return nil
	}
	if k <= 1 {
		return []graph.V{q}
	}
	vs := slices.Clone(set)
	slices.Sort(vs)
	var cliques [][]graph.V
	var grow func(c []graph.V, from int)
	grow = func(c []graph.V, from int) {
		if len(c) == k {
			cliques = append(cliques, slices.Clone(c))
			return
		}
		for i := from; i < len(vs); i++ {
			ok := true
			for _, u := range c {
				ok = ok && g.HasEdge(u, vs[i])
			}
			if ok {
				grow(append(c, vs[i]), i+1)
			}
		}
	}
	grow(nil, 0)
	// Cliques sharing k-1 vertices share the key of that (k-1)-subset.
	bySub := map[string][]int{}
	subKey := func(c []graph.V, skip int) string {
		return fmt.Sprint(slices.Delete(slices.Clone(c), skip, skip+1))
	}
	for i, c := range cliques {
		for skip := range c {
			bySub[subKey(c, skip)] = append(bySub[subKey(c, skip)], i)
		}
	}
	seen := make([]bool, len(cliques))
	var queue []int
	for i, c := range cliques {
		if slices.Contains(c, q) {
			seen[i] = true
			queue = append(queue, i)
		}
	}
	if len(queue) == 0 {
		return nil
	}
	members := map[graph.V]bool{}
	for head := 0; head < len(queue); head++ {
		c := cliques[queue[head]]
		for skip, v := range c {
			members[v] = true
			for _, j := range bySub[subKey(c, skip)] {
				if !seen[j] {
					seen[j] = true
					queue = append(queue, j)
				}
			}
		}
	}
	return refSorted(members)
}

// refStructure is q's connected k-structure in G[set] under st.
func refStructure(st core.Structure, g *graph.Graph, set []graph.V, q graph.V, k int) []graph.V {
	switch st {
	case core.StructureKTruss:
		return refKTruss(g, set, q, k)
	case core.StructureKClique:
		return refKClique(g, set, q, k)
	default:
		return refKCore(g, set, q, k)
	}
}

func refSet(vs []graph.V) map[graph.V]bool {
	m := make(map[graph.V]bool, len(vs))
	for _, v := range vs {
		m[v] = true
	}
	return m
}

func refSorted(m map[graph.V]bool) []graph.V {
	out := make([]graph.V, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// refWalk returns the vertices reachable from q through next, ascending.
func refWalk(q graph.V, next func(graph.V) []graph.V) []graph.V {
	seen := map[graph.V]bool{q: true}
	queue := []graph.V{q}
	for head := 0; head < len(queue); head++ {
		for _, u := range next(queue[head]) {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return refSorted(seen)
}

func refAll(g *graph.Graph) []graph.V {
	all := make([]graph.V, g.NumVertices())
	for v := range all {
		all[v] = graph.V(v)
	}
	return all
}

// refDisk is a circle of the reference's own making.
type refDisk struct {
	c geom.Point
	r float64
}

func (d refDisk) holds(p geom.Point) bool { return refDist(d.c, p) <= d.r+geom.Eps }

// refCircles returns every circle through one, two (as a diameter) or three
// (circumscribed) of pts — by Lemma 1 the candidates for any point set's
// smallest enclosing circle.
func refCircles(pts []geom.Point) []refDisk {
	var out []refDisk
	for i, a := range pts {
		out = append(out, refDisk{a, 0})
		for j := i + 1; j < len(pts); j++ {
			b := pts[j]
			mid := geom.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
			out = append(out, refDisk{mid, refDist(a, b) / 2})
			for h := j + 1; h < len(pts); h++ {
				c := pts[h]
				bx, by, cx, cy := b.X-a.X, b.Y-a.Y, c.X-a.X, c.Y-a.Y
				d := 2 * (bx*cy - by*cx)
				if d == 0 {
					continue // collinear: a pair's circle is the one that matters
				}
				b2, c2 := bx*bx+by*by, cx*cx+cy*cy
				ux, uy := (cy*b2-by*c2)/d, (bx*c2-cx*b2)/d
				out = append(out, refDisk{geom.Point{X: a.X + ux, Y: a.Y + uy}, math.Hypot(ux, uy)})
			}
		}
	}
	return out
}

// refMCC is the radius of the smallest circle through one, two or three of
// the members that holds them all.
func refMCC(g *graph.Graph, members []graph.V) float64 {
	pts := make([]geom.Point, len(members))
	for i, v := range members {
		pts[i] = g.Loc(v)
	}
	best := math.Inf(1)
	for _, d := range refCircles(pts) {
		if d.r >= best {
			continue
		}
		all := true
		for _, p := range pts {
			if all = d.holds(p); !all {
				break
			}
		}
		if all {
			best = d.r
		}
	}
	return best
}

// refOptimum is Algorithm 1's optimum for (q, k): among the circles through
// one, two or three vertices of q's k-ĉore X, the smallest holding a
// connected k-structure with q, whose community's MCC radius is r_opt (the
// optimal community's own MCC is such a circle, so none is smaller). It
// returns -1 when q has no community.
func refOptimum(st core.Structure, g *graph.Graph, q graph.V, k int) float64 {
	X := refStructure(st, g, refAll(g), q, k)
	if X == nil {
		return -1
	}
	pts := make([]geom.Point, len(X))
	for i, v := range X {
		pts[i] = g.Loc(v)
	}
	circles := refCircles(pts)
	slices.SortStableFunc(circles, func(a, b refDisk) int { return cmp.Compare(a.r, b.r) })
	for _, d := range circles {
		if !d.holds(g.Loc(q)) {
			continue
		}
		var in []graph.V
		for i, v := range X {
			if d.holds(pts[i]) {
				in = append(in, v)
			}
		}
		if c := refStructure(st, g, in, q, k); c != nil {
			return refMCC(g, c)
		}
	}
	panic("reference: X holds no community in any circle")
}

// refDeltaStar is the radius δ* of the smallest circle centred on q that
// holds a connected k-structure with q (Lemma 3's δ, which AppInc returns):
// the first distance from q at which the vertices of X no farther away hold
// one. It returns -1 when q has no community.
func refDeltaStar(st core.Structure, g *graph.Graph, q graph.V, k int) float64 {
	X := refStructure(st, g, refAll(g), q, k)
	if X == nil {
		return -1
	}
	dist := func(v graph.V) float64 { return refDist(g.Loc(q), g.Loc(v)) }
	sort.Slice(X, func(i, j int) bool { return dist(X[i]) < dist(X[j]) })
	for i := range X {
		if i+1 < len(X) && dist(X[i+1]) == dist(X[i]) {
			continue // the whole run at one distance enters together
		}
		if refStructure(st, g, X[:i+1], q, k) != nil {
			return dist(X[i])
		}
	}
	panic("reference: X holds no community")
}

// refTheta is θ-SAC's answer: q's connected k-structure among the vertices of
// O(q, θ).
func refTheta(st core.Structure, g *graph.Graph, q graph.V, k int, theta float64) []graph.V {
	disk := refDisk{g.Loc(q), theta}
	var in []graph.V
	for _, v := range refAll(g) {
		if disk.holds(g.Loc(v)) {
			in = append(in, v)
		}
	}
	return refStructure(st, g, in, q, k)
}

// --- fixtures built to tie --------------------------------------------------

// refLattice places n vertices on a side×side lattice of exact dyadic
// coordinates — co-located vertices and equal distances everywhere — and
// adds m random edges.
func refLattice(seed int64, n, m, side int) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: float64(rnd.Intn(side)) / 8, Y: float64(rnd.Intn(side)) / 8})
	}
	for i := 0; i < m; i++ {
		if u, v := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)); u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// refBoundary puts two co-located vertices at every point of a 5×5 lattice of
// exact coordinates around q (vertex 12, the centre's first copy), links
// lattice neighbours at random and q to every vertex two steps away along an
// axis, so the circles that matter run through whole runs of equidistant
// vertices with q on or at the centre of them.
func refBoundary(seed int64) (*graph.Graph, graph.V) {
	const side, points = 5, 25
	rnd := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(2 * points)
	at := func(v int) (int, int) { return v%points%side - 2, v%points/side - 2 }
	for v := 0; v < 2*points; v++ {
		x, y := at(v)
		b.SetLoc(graph.V(v), geom.Point{X: 0.5 + float64(x)/8, Y: 0.5 + float64(y)/8})
	}
	q := graph.V(12)
	for u := 0; u < 2*points; u++ {
		xu, yu := at(u)
		if xu*xu+yu*yu == 4 {
			b.AddEdge(q, graph.V(u))
		}
		for w := u + 1; w < 2*points; w++ {
			if xw, yw := at(w); max(xu-xw, xw-xu, yu-yw, yw-yu) <= 1 && rnd.Intn(3) > 0 {
				b.AddEdge(graph.V(u), graph.V(w))
			}
		}
	}
	return b.Build(), q
}

// refClustered plants nc cliques of cs vertices at random centres in the unit
// square, jittered, plus extra random edges: no ties, a tight community per
// vertex.
func refClustered(seed int64, nc, cs, extra int) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	n := nc * cs
	b := graph.NewBuilder(n)
	for c := 0; c < nc; c++ {
		cx, cy := rnd.Float64(), rnd.Float64()
		for i := 0; i < cs; i++ {
			v := graph.V(c*cs + i)
			b.SetLoc(v, geom.Point{X: cx + (rnd.Float64()-0.5)*0.05, Y: cy + (rnd.Float64()-0.5)*0.05})
			for j := 0; j < i; j++ {
				b.AddEdge(v, graph.V(c*cs+j))
			}
		}
	}
	for i := 0; i < extra; i++ {
		if u, v := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)); u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

type refFixture struct {
	name string
	g    *graph.Graph
	qs   []graph.V
}

// refPick returns count distinct vertices of degree ≥ 2, drawn with seed.
func refPick(g *graph.Graph, seed int64, count int) []graph.V {
	rnd := rand.New(rand.NewSource(seed))
	var qs []graph.V
	for _, i := range rnd.Perm(g.NumVertices()) {
		if v := graph.V(i); len(g.Neighbors(v)) >= 2 && len(qs) < count {
			qs = append(qs, v)
		}
	}
	return qs
}

// --- the checks ---------------------------------------------------------------

// refQueries is every registry algorithm at the parameters the checks use,
// for one (q, k). θ-SAC runs at twice the optimum (0.25 without one) and at
// the distance from q of the vertex a quarter of the graph away — on the
// lattices a circle through a run of equidistant vertices.
func refQueries(t *testing.T, g *graph.Graph, q graph.V, k int, ropt float64) []core.Query {
	t.Helper()
	qs := []core.Query{
		{Algo: "appfast", EpsF: core.Float(0)},
		{Algo: "appfast"},
		{Algo: "appfast", EpsF: core.Float(2)},
		{Algo: "appinc"},
		{Algo: "appacc"},
		{Algo: "appacc", EpsA: core.Float(0.1)},
		{Algo: "exact+"},
		{Algo: "exact+", EpsA: core.Float(0.5)},
		{Algo: "exact"},
	}
	var ds []float64
	for _, v := range refAll(g) {
		ds = append(ds, refDist(g.Loc(q), g.Loc(v)))
	}
	slices.Sort(ds)
	thetas := []float64{max(ds[len(ds)/4], ds[1]), 0.25}
	if ropt > 0 {
		thetas[1] = 2 * ropt
	}
	for _, th := range thetas {
		if th > 0 {
			qs = append(qs, core.Query{Algo: "theta", Theta: core.Float(th)})
		}
	}
	covered := map[string]bool{}
	for i := range qs {
		qs[i].Q, qs[i].K = q, k
		covered[qs[i].Algo] = true
	}
	for _, spec := range core.Algorithms() {
		if !covered[spec.Name] {
			t.Fatalf("registry algorithm %q has no reference check", spec.Name)
		}
	}
	return qs
}

// param returns the value query runs with for the named parameter.
func param(query core.Query, name string) float64 {
	spec, _ := core.LookupAlgo(query.Algo)
	p, _ := spec.Param(name)
	switch {
	case name == "epsF" && query.EpsF != nil:
		return *query.EpsF
	case name == "epsA" && query.EpsA != nil:
		return *query.EpsA
	}
	return p.Default
}

// refOpt is what the reference knows of one (q, k): Algorithm 1's optimum
// r_opt and Lemma 3's δ*, both -1 when q has no community.
type refOpt struct{ r, delta float64 }

// checkAnswer holds one fresh answer to the reference: the structure and the
// MCC; δ — δ* for AppInc and AppAcc (whose δ is AppFast(0)'s), at most
// (1+εF/2)·δ* for AppFast (Lemma 5); and for k-core the ratio each algorithm
// promises, Lemma 3 for AppInc and the optimum for the exact algorithms
// (Exact alone for k-truss and k-clique).
func checkAnswer(t *testing.T, label string, st core.Structure, g *graph.Graph, query core.Query, opt refOpt, res *core.Result, err error) {
	t.Helper()
	q, k := query.Q, query.K
	if query.Algo == "theta" {
		want := refTheta(st, g, q, k, *query.Theta)
		if want == nil {
			if !errors.Is(err, core.ErrNoCommunity) {
				t.Fatalf("%s: θ-SAC answered %v, %v; the reference finds no community", label, res, err)
			}
			return
		}
		if err != nil || !slices.Equal(res.Members, want) || res.Delta != *query.Theta {
			t.Fatalf("%s: θ-SAC answered %v, %v; the reference %v", label, res, err, want)
		}
	} else if opt.r < 0 {
		if !errors.Is(err, core.ErrNoCommunity) {
			t.Fatalf("%s: answered %v, %v; the reference finds no community", label, res, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got := refStructure(st, g, res.Members, q, k); !slices.Equal(got, res.Members) {
		t.Fatalf("%s: answer %v is not a connected %v holding q (the reference keeps %v)", label, res.Members, st, got)
	}
	for _, v := range res.Members {
		if !(refDisk{res.MCC.C, res.MCC.R}).holds(g.Loc(v)) {
			t.Fatalf("%s: MCC %+v misses member %d", label, res.MCC, v)
		}
	}
	if r := refMCC(g, res.Members); math.Abs(r-res.MCC.R) > refTol {
		t.Fatalf("%s: MCC radius %v, the members' smallest enclosing circle %v", label, res.MCC.R, r)
	}
	ratio, minDelta, maxDelta := 1.0, opt.delta, opt.delta
	switch query.Algo {
	case "exact", "exact+":
		minDelta, maxDelta = 0, math.Inf(1) // δ is the MCC radius
	case "appinc":
		ratio = 2
		if st == core.StructureKCore && (res.Delta/2 > opt.r+refTol || opt.r > res.Delta+refTol) {
			t.Fatalf("%s: Lemma 3 fails: δ = %v, r_opt = %v", label, res.Delta, opt.r)
		}
	case "appfast":
		epsF := param(query, "epsF")
		ratio, maxDelta = 2+epsF, (1+epsF/2)*opt.delta
	case "appacc":
		ratio = 1 + param(query, "epsA")
	default:
		return
	}
	if res.Delta < minDelta-refTol || res.Delta > maxDelta+refTol {
		t.Fatalf("%s: δ = %v outside [%v, %v] for δ* = %v", label, res.Delta, minDelta, maxDelta, opt.delta)
	}
	if st != core.StructureKCore && query.Algo != "exact" {
		return
	}
	if res.MCC.R < opt.r-refTol || res.MCC.R > ratio*opt.r+refTol {
		t.Fatalf("%s: radius %v outside [r_opt, %v·r_opt] for r_opt = %v", label, res.MCC.R, ratio, opt.r)
	}
}

// sameAnswer requires bit-identical members, MCC and δ.
func sameAnswer(t *testing.T, label string, want, got *core.Result, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) || wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: error %v, fresh searcher %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	bits := func(r *core.Result) [4]uint64 {
		return [4]uint64{math.Float64bits(r.MCC.C.X), math.Float64bits(r.MCC.C.Y), math.Float64bits(r.MCC.R), math.Float64bits(r.Delta)}
	}
	if !slices.Equal(want.Members, got.Members) || bits(want) != bits(got) {
		t.Fatalf("%s: %d members, MCC %+v, δ %v; a fresh searcher %d, %+v, %v",
			label, len(got.Members), got.MCC, got.Delta, len(want.Members), want.MCC, want.Delta)
	}
}

// runReference checks every registry algorithm for every fixture query and
// k ≤ 4 against the reference, and requires the answer to be a function of
// (graph, query) alone: a fresh searcher, a warm one that served every other
// query first in shuffled order, a pooled worker (another order) and a
// searcher scanning with a budget of two workers answer bit for bit alike.
func runReference(t *testing.T, st core.Structure, fixtures []refFixture) (parallelScans int) {
	ctx := context.Background()
	for fi, f := range fixtures {
		type job struct {
			query core.Query
			opt   refOpt
		}
		var jobs []job
		for _, q := range f.qs {
			for k := 1; k <= 4; k++ {
				opt := refOpt{refOptimum(st, f.g, q, k), refDeltaStar(st, f.g, q, k)}
				for _, query := range refQueries(t, f.g, q, k, opt.r) {
					jobs = append(jobs, job{query, opt})
				}
			}
		}
		type answer struct {
			res *core.Result
			err error
		}
		fresh := make([]answer, len(jobs))
		for i, j := range jobs {
			res, err := core.NewSearcherWithStructure(f.g, st).Search(ctx, j.query)
			label := fmt.Sprintf("%s %v q=%d k=%d %s%s", f.name, st, j.query.Q, j.query.K, j.query.Algo, refParams(j.query))
			checkAnswer(t, label, st, f.g, j.query, j.opt, res, err)
			fresh[i] = answer{res, err}
		}

		warm := core.NewSearcherWithStructure(f.g, st)
		pool := core.NewPool(core.NewSearcherWithStructure(f.g, st))
		budget := core.NewSearcherWithStructure(f.g, st)
		budget.SetParallelism(2)
		rnd := rand.New(rand.NewSource(int64(fi) + 1))
		for _, path := range []struct {
			name  string
			order []int
			get   func() *core.Searcher
			put   func(*core.Searcher)
		}{
			{"warm", rnd.Perm(len(jobs)), func() *core.Searcher { return warm }, func(*core.Searcher) {}},
			{"pooled", rnd.Perm(len(jobs)), pool.Get, pool.Put},
			{"budget 2", rnd.Perm(len(jobs)), func() *core.Searcher { return budget }, func(*core.Searcher) {}},
		} {
			for _, i := range path.order {
				j := jobs[i]
				s := path.get()
				res, err := s.Search(ctx, j.query)
				path.put(s)
				if err == nil && res.Stats.Workers >= 2 {
					parallelScans++
				}
				label := fmt.Sprintf("%s %v q=%d k=%d %s%s (%s)", f.name, st, j.query.Q, j.query.K, j.query.Algo, refParams(j.query), path.name)
				sameAnswer(t, label, fresh[i].res, res, fresh[i].err, err)
			}
		}
	}
	return parallelScans
}

func refParams(q core.Query) string {
	switch {
	case q.EpsF != nil:
		return fmt.Sprintf("(εF=%v)", *q.EpsF)
	case q.EpsA != nil:
		return fmt.Sprintf("(εA=%v)", *q.EpsA)
	case q.Theta != nil:
		return fmt.Sprintf("(θ=%v)", *q.Theta)
	}
	return ""
}

// TestReference is the k-core suite: lattice, co-located and boundary
// graphs that tie, and clustered graphs that do not.
func TestReference(t *testing.T) {
	var fixtures []refFixture
	for seed := int64(1); seed <= 2; seed++ {
		g := refLattice(seed, 40, 170, 8)
		fixtures = append(fixtures, refFixture{"lattice", g, refPick(g, seed, 3)})
		g = refLattice(seed+10, 30, 110, 3)
		fixtures = append(fixtures, refFixture{"co-located", g, refPick(g, seed, 3)})
		g, q := refBoundary(seed)
		fixtures = append(fixtures, refFixture{"boundary", g, []graph.V{q, q + 25, q + 2}})
		g = refClustered(seed+50, 5, 7, 25)
		fixtures = append(fixtures, refFixture{"clustered", g, refPick(g, seed, 2)})
	}
	if runReference(t, core.StructureKCore, fixtures) == 0 {
		t.Fatal("no query ran its circle scan on two workers: the budget-2 path went unchecked")
	}
}

// TestReferenceOtherStructures runs the same checks for the k-truss and
// k-clique metrics on smaller graphs (their checkers and the reference's are
// slower): validity, Exact's optimum, θ-SAC and the pure-function property.
func TestReferenceOtherStructures(t *testing.T) {
	for _, st := range []core.Structure{core.StructureKTruss, core.StructureKClique} {
		var fixtures []refFixture
		for seed := int64(1); seed <= 2; seed++ {
			g := refLattice(seed+20, 18, 70, 4)
			fixtures = append(fixtures, refFixture{"lattice", g, refPick(g, seed, 2)})
			g = refLattice(seed+30, 14, 45, 2)
			fixtures = append(fixtures, refFixture{"co-located", g, refPick(g, seed, 2)})
		}
		runReference(t, st, fixtures)
	}
}

// TestExactMatchesBruteForceOracle pins Exact to Algorithm 1's optimum on
// clustered graphs whose k-ĉores hold one or two planted cliques.
func TestExactMatchesBruteForceOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := refClustered(seed, 3, 5, 4)
		const q, k = 0, 3
		want := refOptimum(core.StructureKCore, g, q, k)
		res, err := core.NewSearcher(g).Exact(q, k)
		if want < 0 {
			if !errors.Is(err, core.ErrNoCommunity) {
				t.Fatalf("seed %d: Exact %v, %v; the reference finds no community", seed, res, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(res.Radius()-want) > refTol {
			t.Fatalf("seed %d: Exact radius %v, the reference optimum %v", seed, res.Radius(), want)
		}
	}
}

// TestReferenceAcrossWrites takes one warm searcher through check-ins and
// edge ops on graphs built to tie and holds every AppInc, AppFast and AppAcc
// answer it gives after each round of writes to the reference on the graph
// as it stands — validity, the optimum bounds and the ratios — and to a
// fresh searcher, bit for bit. A check-in moves a vertex onto another
// vertex's point, so ties keep forming. The warm searcher answers from views
// and prefix oracles repaired across the writes, and the test requires that
// some were: this is the repaired path held to the paper's definitions, not
// only to the core's own fresh build.
func TestReferenceAcrossWrites(t *testing.T) {
	ctx := context.Background()
	repairs := 0
	for seed := int64(1); seed <= 2; seed++ {
		bg, bq := refBoundary(seed + 5)
		lattice, colocated := refLattice(seed+60, 40, 190, 8), refLattice(seed+70, 30, 120, 3)
		for _, f := range []refFixture{
			{"lattice", lattice, refPick(lattice, seed, 2)},
			{"co-located", colocated, refPick(colocated, seed, 2)},
			{"boundary", bg, []graph.V{bq, bq + 25}},
		} {
			g, n := f.g, f.g.NumVertices()
			warm := core.NewSearcher(g)
			rnd := rand.New(rand.NewSource(seed * 31))
			for step := 0; step < 6; step++ {
				for w := rnd.Intn(4); w >= 0; w-- {
					u, v := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n))
					switch r := rnd.Intn(4); {
					case r < 2:
						g.SetLoc(u, g.Loc(v))
					case r == 2 && u != v:
						if _, err := warm.Apply(graph.Write{Kind: graph.WriteAddEdge, V: u, W: v}); err != nil {
							t.Fatal(err)
						}
					case r == 3:
						if nb := g.Neighbors(u); len(nb) > 0 {
							if _, err := warm.Apply(graph.Write{Kind: graph.WriteRemoveEdge, V: u, W: nb[rnd.Intn(len(nb))]}); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for _, q := range f.qs {
					for k := 2; k <= 4; k++ {
						opt := refOpt{refOptimum(core.StructureKCore, g, q, k), refDeltaStar(core.StructureKCore, g, q, k)}
						for _, query := range []core.Query{
							{Algo: "appinc"},
							{Algo: "appfast", EpsF: core.Float(0)},
							{Algo: "appfast"},
							{Algo: "appfast", EpsF: core.Float(2)},
							{Algo: "appacc"},
							{Algo: "appacc", EpsA: core.Float(0.1)},
						} {
							query.Q, query.K = q, k
							label := fmt.Sprintf("%s seed %d step %d q=%d k=%d %s%s", f.name, seed, step, q, k, query.Algo, refParams(query))
							res, err := warm.Search(ctx, query)
							checkAnswer(t, label, core.StructureKCore, g, query, opt, res, err)
							want, wantErr := core.NewSearcher(g).Search(ctx, query)
							sameAnswer(t, label, want, res, wantErr, err)
							if err == nil {
								repairs += res.Stats.OracleRepairs
							}
						}
					}
				}
			}
		}
	}
	if repairs == 0 {
		t.Fatal("no answer came from a repaired oracle")
	}
	t.Logf("%d answers from a repaired oracle", repairs)
}
