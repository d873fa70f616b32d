package batch

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// clusteredGraph plants nc cliques of size cs in the unit square with a few
// long-range edges — every vertex has a spatially tight community.
func clusteredGraph(seed int64, nc, cs, extra int) *graph.Graph {
	rnd := rand.New(rand.NewSource(seed))
	n := nc * cs
	b := graph.NewBuilder(n)
	for c := 0; c < nc; c++ {
		cx, cy := rnd.Float64(), rnd.Float64()
		for i := 0; i < cs; i++ {
			v := graph.V(c*cs + i)
			b.SetLoc(v, geom.Point{
				X: cx + (rnd.Float64()-0.5)*0.05,
				Y: cy + (rnd.Float64()-0.5)*0.05,
			})
			for j := 0; j < i; j++ {
				b.AddEdge(v, graph.V(c*cs+j))
			}
		}
	}
	for i := 0; i < extra; i++ {
		b.AddEdge(graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n)))
	}
	return b.Build()
}

func sameMembers(a, b []graph.V) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]graph.V(nil), a...)
	bs := append([]graph.V(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestRunMatchesSequential(t *testing.T) {
	g := clusteredGraph(7, 8, 6, 12)
	s := core.NewSearcher(g)
	var queries []Query
	for v := 0; v < g.NumVertices(); v += 3 {
		queries = append(queries, Query{Q: graph.V(v), K: 4})
	}
	items := Run(context.Background(), s, queries, Options{Workers: 4})
	if len(items) != len(queries) {
		t.Fatalf("got %d items for %d queries", len(items), len(queries))
	}
	for i, it := range items {
		if it.Query != queries[i] {
			t.Fatalf("item %d out of order: %v vs %v", i, it.Query, queries[i])
		}
		want, wantErr := s.AppFast(queries[i].Q, queries[i].K, 0.5)
		if (it.Err != nil) != (wantErr != nil) {
			t.Fatalf("item %d: err %v vs sequential %v", i, it.Err, wantErr)
		}
		if it.Err != nil {
			continue
		}
		if !sameMembers(it.Result.Members, want.Members) {
			t.Fatalf("item %d: members %v vs sequential %v", i, it.Result.Members, want.Members)
		}
	}
}

func TestRunDeduplicates(t *testing.T) {
	g := clusteredGraph(11, 6, 6, 8)
	s := core.NewSearcher(g)
	queries := []Query{
		{Q: 0, K: 4},
		{Q: 1, K: 4},
		{Q: 0, K: 4}, // duplicate of 0
		{Q: 0, K: 3}, // same vertex, different k — not a duplicate
		{Q: 0, K: 4}, // duplicate of 0
	}
	items := Run(context.Background(), s, queries, Options{Workers: 2})
	if items[0].Result == nil || items[2].Result == nil {
		t.Fatal("duplicate queries not answered")
	}
	if items[0].Result != items[2].Result || items[0].Result != items[4].Result {
		t.Fatal("duplicates were recomputed instead of shared")
	}
	if items[0].Result == items[3].Result {
		t.Fatal("different k wrongly deduplicated")
	}
}

// TestRunDeduplicatedAliasingSafe pins the documented Item aliasing: all
// occurrences of a deduplicated (q, k) share one *core.Result, and that
// shared result is a stable copy — it must survive later batches run on the
// same pool (whose workers reuse their scratch space) bit-for-bit.
func TestRunDeduplicatedAliasingSafe(t *testing.T) {
	g := clusteredGraph(11, 6, 6, 8)
	pool := core.NewPool(core.NewSearcher(g))
	queries := []Query{{Q: 0, K: 4}, {Q: 0, K: 4}, {Q: 0, K: 4}}
	items := RunOn(context.Background(), pool, queries, Options{Workers: 1})
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if it.Result != items[0].Result {
			t.Fatalf("item %d does not alias the first answer", i)
		}
	}
	members := append([]graph.V(nil), items[0].Result.Members...)
	mcc := items[0].Result.MCC

	// Churn the pooled workers' scratch with a different, larger batch.
	var wide []Query
	for v := 0; v < g.NumVertices(); v++ {
		wide = append(wide, Query{Q: graph.V(v), K: 3})
	}
	RunOn(context.Background(), pool, wide, Options{Workers: 4})

	if !sameMembers(items[0].Result.Members, members) || items[0].Result.MCC != mcc {
		t.Fatalf("shared result mutated by a later batch: %v (was %v)", items[0].Result.Members, members)
	}
}

func TestRunErrorsPerQuery(t *testing.T) {
	g := clusteredGraph(13, 5, 5, 5)
	s := core.NewSearcher(g)
	bad := graph.V(g.NumVertices() + 5)
	queries := []Query{{Q: 0, K: 4}, {Q: bad, K: 4}, {Q: 1, K: 4}}
	items := Run(context.Background(), s, queries, Options{})
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("valid queries errored: %v %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("out-of-range query did not error")
	}
}

func TestRunNoCommunity(t *testing.T) {
	// A path graph has no 3-core anywhere.
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.V(i), graph.V(i+1))
		b.SetLoc(graph.V(i), geom.Point{X: float64(i) * 0.1, Y: 0.5})
	}
	b.SetLoc(4, geom.Point{X: 0.4, Y: 0.5})
	g := b.Build()
	s := core.NewSearcher(g)
	items := Run(context.Background(), s, []Query{{Q: 2, K: 3}}, Options{})
	if !errors.Is(items[0].Err, core.ErrNoCommunity) {
		t.Fatalf("err = %v, want ErrNoCommunity", items[0].Err)
	}
}

func TestRunWorkerCountsAgree(t *testing.T) {
	g := clusteredGraph(17, 8, 6, 20)
	s := core.NewSearcher(g)
	queries := Workload(func() []graph.V {
		var qs []graph.V
		for v := 0; v < g.NumVertices(); v += 2 {
			qs = append(qs, graph.V(v))
		}
		return qs
	}(), 4)

	base := Run(context.Background(), s, queries, Options{Workers: 1})
	for _, workers := range []int{2, 4, 16} {
		got := Run(context.Background(), s, queries, Options{Workers: workers})
		for i := range base {
			if (base[i].Err != nil) != (got[i].Err != nil) {
				t.Fatalf("workers=%d item %d: error mismatch", workers, i)
			}
			if base[i].Err != nil {
				continue
			}
			if !sameMembers(base[i].Result.Members, got[i].Result.Members) {
				t.Fatalf("workers=%d item %d: %v vs %v",
					workers, i, got[i].Result.Members, base[i].Result.Members)
			}
		}
	}
}

// TestRunAlgorithms runs a batch under every registered algorithm, named
// through Template the way every caller names one.
func TestRunAlgorithms(t *testing.T) {
	g := clusteredGraph(23, 5, 6, 10)
	s := core.NewSearcher(g)
	queries := []Query{{Q: 0, K: 4}, {Q: 6, K: 4}}
	for _, spec := range core.Algorithms() {
		tmpl := core.Query{Algo: spec.Name}
		if spec.Name == "theta" {
			tmpl.Theta = core.Float(0.4) // θ-SAC's one required parameter
		}
		items := Run(context.Background(), s, queries, Options{Template: tmpl, Workers: 2})
		for i, it := range items {
			if it.Err != nil && !errors.Is(it.Err, core.ErrNoCommunity) {
				t.Fatalf("%s item %d: %v", spec.Name, i, it.Err)
			}
			if it.Err == nil && !it.Result.Contains(queries[i].Q) {
				t.Fatalf("%s item %d: community misses q", spec.Name, i)
			}
		}
	}
}

// TestTemplateTheta pins a θ-SAC batch, parameter and all, against the
// direct call.
func TestTemplateTheta(t *testing.T) {
	g := clusteredGraph(23, 5, 6, 10)
	s := core.NewSearcher(g)
	queries := []Query{{Q: 0, K: 3}, {Q: 6, K: 3}}
	items := Run(context.Background(), s, queries, Options{
		Template: core.Query{Algo: "theta", Theta: core.Float(0.4)},
		Workers:  2,
	})
	ref := core.NewSearcher(g)
	for i, it := range items {
		want, wantErr := ref.ThetaSAC(queries[i].Q, queries[i].K, 0.4)
		if (it.Err == nil) != (wantErr == nil) {
			t.Fatalf("item %d: err = %v, want %v", i, it.Err, wantErr)
		}
		if it.Err == nil && !slicesEqualV(it.Result.Members, want.Members) {
			t.Fatalf("item %d: members %v, want %v", i, it.Result.Members, want.Members)
		}
	}
}

func slicesEqualV(a, b []graph.V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWorkload(t *testing.T) {
	qs := []graph.V{3, 1, 4}
	w := Workload(qs, 5)
	if len(w) != 3 || w[0] != (Query{Q: 3, K: 5}) || w[2] != (Query{Q: 4, K: 5}) {
		t.Fatalf("Workload = %v", w)
	}
}

func BenchmarkBatch(b *testing.B) {
	g := clusteredGraph(31, 20, 8, 60)
	s := core.NewSearcher(g)
	var qs []graph.V
	for v := 0; v < g.NumVertices(); v++ {
		qs = append(qs, graph.V(v))
	}
	queries := Workload(qs, 4)
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Run(context.Background(), s, queries, Options{Workers: workers})
			}
		})
	}
}
