package subscribe

import (
	"context"
	"reflect"
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
