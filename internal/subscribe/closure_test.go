package subscribe

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/snapshot"
)

// TestClosureCarriedWhileTopologyStands pins when an evaluation may take the
// previous gate's closure over: across check-ins, yes — the closure is a
// function of topology — but not across an edge op, and not across a
// notification with an unknown change set, after which the engine behind the
// snapshots may be a different one whose epochs mean something else.
func TestClosureCarriedWhileTopologyStands(t *testing.T) {
	const size = 6
	eng := snapshot.New(twoClusterGraph(size), snapshot.Options{})
	defer eng.Close()
	mgr := NewManager(ManagerOptions{Current: eng.Current, Hub: Options{StreamBuf: 1024}})
	defer mgr.Close()
	eng.SetOnPublish(mgr.Notify)
	sub, err := mgr.Register("near", core.Query{Q: 0, K: 3, Algo: "appfast"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// closure returns the gate's marking once the dispatcher has caught up
	// (ProcessedSeq is stored after the round, so the read is ordered) and
	// requires that the newest snapshot was evaluated, not gated out.
	closure := func() map[graph.V]byte {
		t.Helper()
		seq := eng.Current().Seq()
		waitProcessed(t, mgr, seq)
		g := sub.Gate.(*gate)
		if g.lastSeq != seq {
			t.Fatalf("snapshot %d was not evaluated (gate is at %d)", seq, g.lastSeq)
		}
		return g.in
	}
	same := func(a, b map[graph.V]byte) bool {
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	}
	moveMember := func(x float64) {
		t.Helper()
		if err := eng.CheckIn(ctx, 1, geom.Point{X: x, Y: 0.5}); err != nil {
			t.Fatal(err)
		}
	}

	moveMember(0.3)
	first := closure()
	if len(first) != size {
		t.Fatalf("closure marks %d vertices, want the %d clique members", len(first), size)
	}
	moveMember(0.4)
	if got := closure(); !same(got, first) {
		t.Fatal("a member's check-in re-evaluated without carrying the closure over")
	}

	// An edge from a member into the far clique merges the two 3-cores,
	// which only a recomputed closure shows.
	if _, err := eng.UpdateEdge(ctx, 0, graph.V(size), true); err != nil {
		t.Fatal(err)
	}
	second := closure()
	if same(second, first) || len(second) != 2*size {
		t.Fatalf("closure after an edge op: carried=%v, marks %d vertices", same(second, first), len(second))
	}
	moveMember(0.5)
	if got := closure(); !same(got, second) {
		t.Fatal("closure not carried after the edge op's evaluation")
	}

	// Unknown change set at an unchanged topology epoch.
	mgr.Notify(eng.Current(), nil)
	moveMember(0.6) // forces a later round, so the full one has completed
	if got := closure(); same(got, second) || len(got) != len(second) {
		t.Fatal("closure carried across a notification with an unknown change set")
	}
}

// TestClosureMatchesFreshWalk pins the closure an evaluation takes from the
// pool's cache — the community its Search has just revalidated —
// against a fresh walk of the topology: after every edge op the gate's
// members and frontier must be, as sets, what a searcher with an empty cache
// finds on the evaluated snapshot. Inserts and deletes land inside the
// community, on its frontier and far away, so some change the set and some
// leave it standing.
func TestClosureMatchesFreshWalk(t *testing.T) {
	g := churnGraph(t, 150, 600, 11)
	n := g.NumVertices()
	eng := snapshot.New(g, snapshot.Options{})
	defer eng.Close()
	mgr := NewManager(ManagerOptions{Current: eng.Current, Hub: Options{StreamBuf: 4096}})
	defer mgr.Close()
	eng.SetOnPublish(mgr.Notify)

	const k = 3
	q := graph.V(0)
	for v := 1; v < n; v++ {
		if g.Degree(graph.V(v)) > g.Degree(q) {
			q = graph.V(v)
		}
	}
	sub, err := mgr.Register("closure", core.Query{Q: q, K: k, Algo: "appfast"})
	if err != nil {
		t.Fatal(err)
	}
	sorted := func(vs []graph.V) []graph.V {
		out := slices.Clone(vs)
		slices.Sort(out)
		return out
	}
	rnd := rand.New(rand.NewSource(5))
	ctx := context.Background()
	compared := 0
	for i := 0; i < 150; i++ {
		u, w := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n))
		if nb := eng.Current().Graph().Neighbors(u); rnd.Intn(2) == 0 && len(nb) > 0 {
			w = nb[rnd.Intn(len(nb))]
		}
		insert := !eng.Current().Graph().HasEdge(u, w)
		if u == w {
			continue
		}
		if _, err := eng.UpdateEdge(ctx, u, w, insert); err != nil {
			t.Fatal(err)
		}
		sn := eng.Current()
		waitProcessed(t, mgr, sn.Seq())
		gt := sub.Gate.(*gate)
		if gt.lastSeq != sn.Seq() {
			continue // gated out: the op touched neither X nor its frontier
		}
		wantM, wantF := core.NewSearcher(sn.Graph()).CandidateClosure(q, k)
		if !slices.Equal(sorted(gt.members), sorted(wantM)) || !slices.Equal(sorted(gt.frontier), sorted(wantF)) {
			t.Fatalf("op %d (%d-%d insert=%v): closure has %d members and %d frontier vertices, a fresh walk %d and %d",
				i, u, w, insert, len(gt.members), len(gt.frontier), len(wantM), len(wantF))
		}
		compared++
	}
	if compared < 20 {
		t.Fatalf("only %d evaluations compared", compared)
	}
}

// TestEvaluationStoresItsAnswer: a standing query's evaluation answers
// through the snapshot's one door and stores its answer in the snapshot's
// memo at once, for the hot queries of its key that follow the write; the
// members it hands the hub are a copy, so nothing the hub does to them can
// reach the stored answer.
func TestEvaluationStoresItsAnswer(t *testing.T) {
	eng := snapshot.New(twoClusterGraph(6), snapshot.Options{})
	defer eng.Close()
	snap := eng.Current()
	sub := &Sub{Query: core.Query{Q: 0, K: 3, Algo: "appfast"}}
	er, err := engineBackend{eng.Current}.Evaluate(sub, &pend{snap: snap})
	if err != nil {
		t.Fatal(err)
	}
	key, err := core.Resolve(sub.Query, snap.Graph().NumVertices(), snap.Structure())
	if err != nil {
		t.Fatal(err)
	}
	stored := snap.Memo().Lookup(key)
	if stored == nil {
		t.Fatal("the evaluation's answer is not in the snapshot's memo")
	}
	if len(er.Members) == 0 || !slices.Equal(er.Members, stored.Result.Members) {
		t.Fatalf("delivered %v, stored %v", er.Members, stored.Result.Members)
	}
	if &er.Members[0] == &stored.Result.Members[0] {
		t.Fatal("the delivered members alias the stored answer's")
	}
}
