package subscribe

import (
	"context"
	"slices"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/telemetry"
)

// TestClosureCarriedWhileTopologyStands pins, through evaluations and
// skips, when a standing query's community is carried from one evaluation
// to the next: a member's check-in re-evaluates on the community the store
// holds, with no walk (the token stays); an edge op that merges X with
// another community re-evaluates on a fresh walk; and a notification with
// an unknown change set re-evaluates too, since the engine behind the
// snapshots may be a different one.
func TestClosureCarriedWhileTopologyStands(t *testing.T) {
	const size = 6
	eng := snapshot.New(twoClusterGraph(size), snapshot.Options{})
	defer eng.Close()
	mgr := NewManager(ManagerOptions{Current: eng.Current, Hub: Options{Metrics: telemetry.NewRegistry(), StreamBuf: 1024}})
	defer mgr.Close()
	eng.SetOnPublish(mgr.Notify)
	sub, err := mgr.Register("near", core.Query{Q: 0, K: 3, Algo: "appfast"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// evaluated waits for the dispatcher to catch up (ProcessedSeq is stored
	// after the round, so the read is ordered), requires that the newest
	// snapshot was evaluated, not gated out, and returns the token the
	// evaluation recorded.
	evaluated := func() core.Token {
		t.Helper()
		seq := eng.Current().Seq()
		waitProcessed(t, mgr, seq)
		g := sub.Gate.(*gate)
		if g.lastSeq != seq {
			t.Fatalf("snapshot %d was not evaluated (gate is at %d)", seq, g.lastSeq)
		}
		if g.token == (core.Token{}) {
			t.Fatal("the evaluation recorded no token")
		}
		return g.token
	}
	moveMember := func(x float64) {
		t.Helper()
		if err := eng.CheckIn(ctx, 1, geom.Point{X: x, Y: 0.5}); err != nil {
			t.Fatal(err)
		}
	}

	moveMember(0.3)
	first := evaluated()
	moveMember(0.4)
	if got := evaluated(); got != first {
		t.Fatal("a member's check-in walked the community again")
	}

	// Unknown change set at an unchanged topology epoch: everything
	// re-evaluates, though the only write is a check-in outside X.
	evals := mgr.Hub().Evals().Value()
	mgr.Notify(eng.Current(), nil)
	// The check-in's round comes after the full one, or is the same round.
	if err := eng.CheckIn(ctx, graph.V(size+1), geom.Point{X: 100.5, Y: 100}); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, mgr, eng.Current().Seq())
	if mgr.Hub().Evals().Value() == evals {
		t.Fatal("a notification with an unknown change set did not re-evaluate")
	}

	// An edge from a member into the far clique merges the two 3-cores:
	// the store drops the entry and the evaluation walks the merged one.
	evals = mgr.Hub().Evals().Value()
	if _, err := eng.UpdateEdge(ctx, 0, graph.V(size), true); err != nil {
		t.Fatal(err)
	}
	second := evaluated()
	if second == first || mgr.Hub().Evals().Value() == evals {
		t.Fatal("an edge op that merges X did not re-evaluate on a fresh walk")
	}
	moveMember(0.5)
	if got := evaluated(); got != second {
		t.Fatal("the merged community was not carried after the edge op's evaluation")
	}
}

// TestEvaluationStoresItsAnswer: a standing query's evaluation answers
// through the snapshot's one door, which keeps its answer, body encoded at
// once, where the engine's store finds it for the snapshot's state, for the
// hot queries of its key that follow the write; the members it hands the hub
// are a copy, so nothing the hub does to them can reach the stored answer.
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
	w := snap.Get()
	a := w.Finished(key)
	snap.Put(w)
	if a == nil {
		t.Fatal("the evaluation's answer is not in the store")
	}
	stored, ok := a.Attached().(*snapshot.Answer)
	if !ok {
		t.Fatal("the evaluation's answer has no body attached")
	}
	if len(er.Members) == 0 || !slices.Equal(er.Members, stored.Result.Members) {
		t.Fatalf("delivered %v, stored %v", er.Members, stored.Result.Members)
	}
	if &er.Members[0] == &stored.Result.Members[0] {
		t.Fatal("the delivered members alias the stored answer's")
	}
}
