package subscribe

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/wire"
)

// The differential contract: for every algorithm, replaying a standing
// query's event stream (init + deltas) over the initial state must land on
// exactly the community a fresh Search reports on the final snapshot. Any
// gate that wrongly skips a re-evaluation, or any diff that drops a member,
// breaks this equality.

// replayState folds a subscription's event stream into the member set a
// client would hold after consuming it.
type replayState struct {
	members     map[int64]bool
	mcc         wire.Circle
	delta       float64
	noCommunity bool
	sawInit     bool
	events      int
}

func (rs *replayState) apply(t *testing.T, ev Event) {
	t.Helper()
	if ev.Kind == KindBye {
		return
	}
	var p EventJSON
	if err := json.Unmarshal(ev.Data, &p); err != nil {
		t.Fatalf("unmarshal %s event: %v", ev.Kind, err)
	}
	rs.events++
	switch ev.Kind {
	case KindInit:
		rs.sawInit = true
		rs.members = make(map[int64]bool, len(p.Members))
		for _, v := range p.Members {
			rs.members[v] = true
		}
	case KindDelta:
		if !rs.sawInit {
			t.Fatalf("delta before init (seq %d)", ev.Seq)
		}
		for _, v := range p.Joined {
			if rs.members[v] {
				t.Fatalf("delta joins %d which is already a member", v)
			}
			rs.members[v] = true
		}
		for _, v := range p.Left {
			if !rs.members[v] {
				t.Fatalf("delta removes %d which is not a member", v)
			}
			delete(rs.members, v)
		}
	default:
		t.Fatalf("unexpected event kind %q", ev.Kind)
	}
	rs.noCommunity = p.NoCommunity
	if p.MCC != nil {
		rs.mcc = *p.MCC
	}
	rs.delta = p.Delta
	if rs.noCommunity && len(rs.members) != 0 {
		t.Fatalf("noCommunity event carried %d members", len(rs.members))
	}
}

func (rs *replayState) sorted() []int64 {
	out := make([]int64, 0, len(rs.members))
	for v := range rs.members {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// drainStream empties the buffered events of a quiesced stream.
func drainStream(st *Stream) []Event {
	var out []Event
	for {
		select {
		case ev := <-st.C:
			out = append(out, ev)
		default:
			return out
		}
	}
}

// waitProcessed blocks until the manager has dispatched through seq.
func waitProcessed(t *testing.T, m *Manager, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for m.ProcessedSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("manager stuck: processed %d, want >= %d", m.ProcessedSeq(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// churnGraph builds a connected spatial social graph small enough for the
// exact algorithms to keep up with re-evaluation.
func churnGraph(t *testing.T, n, m int, seed int64) *graph.Graph {
	t.Helper()
	b := gen.SocialGraph(n, m, seed)
	gen.PlaceSpatial(b, gen.DefaultDistMean, gen.DefaultDistSigma, seed+1)
	return b.Build()
}

func TestDifferentialAllAlgorithms(t *testing.T) {
	g := churnGraph(t, 120, 420, 7)
	n := g.NumVertices()
	eng := snapshot.New(g, snapshot.Options{})
	defer eng.Close()

	mgr := NewManager(ManagerOptions{
		Current: eng.Current,
		// A big stream buffer lets the test read events after quiescence
		// instead of racing a consumer goroutine against the dispatcher.
		Hub: Options{StreamBuf: 8192},
	})
	defer mgr.Close()
	eng.SetOnPublish(mgr.Notify)

	// The highest-degree vertex anchors the standing queries: it is the
	// likeliest to stay in the 3-core through churn, so the streams see both
	// member turnover and (occasionally) no-community transitions.
	q := graph.V(0)
	for v := 1; v < n; v++ {
		if g.Degree(graph.V(v)) > g.Degree(q) {
			q = graph.V(v)
		}
	}
	theta := 0.35
	queries := []core.Query{
		{Q: q, K: 3, Algo: "exact"},
		{Q: q, K: 3, Algo: "exact+"},
		{Q: q, K: 3, Algo: "appfast"},
		{Q: q, K: 3, Algo: "appinc"},
		{Q: q, K: 3, Algo: "appacc"},
		{Q: q, K: 3, Algo: "theta", Theta: &theta},
		// A k no vertex reaches exercises the no-community gate arm.
		{Q: q, K: 40, Algo: "appfast"},
	}
	// Register can finish the first evaluation before Attach runs; Attach
	// then hands the init over as replay instead of live (its documented
	// contract), so a consumer folds replay and stream together.
	type tracked struct {
		sub    *Sub
		st     *Stream
		replay []Event
	}
	subs := make([]tracked, len(queries))
	for i, cq := range queries {
		sub, err := mgr.Register(fmt.Sprintf("diff-%d", i), cq)
		if err != nil {
			t.Fatalf("register %s: %v", cq.Algo, err)
		}
		st, replay, err := sub.Attach(0, false)
		if err != nil {
			t.Fatalf("attach %s: %v", cq.Algo, err)
		}
		subs[i] = tracked{sub, st, replay}
	}

	// Churn: moves dominate (the check-in workload of the paper), with
	// enough edge churn to reshape candidate sets.
	rnd := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		switch {
		case rnd.Float64() < 0.6:
			v := graph.V(rnd.Intn(n))
			cur := eng.Current().Graph().Loc(v)
			p := geom.Point{
				X: cur.X + (rnd.Float64()-0.5)*0.1,
				Y: cur.Y + (rnd.Float64()-0.5)*0.1,
			}
			if err := eng.CheckIn(ctx, v, p); err != nil {
				t.Fatalf("checkin: %v", err)
			}
		default:
			u, w := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n))
			if u == w {
				continue
			}
			if _, err := eng.UpdateEdge(ctx, u, w, rnd.Float64() < 0.7); err != nil {
				t.Fatalf("edge: %v", err)
			}
		}
	}

	final := eng.Current()
	waitProcessed(t, mgr, final.Seq())

	worker := final.Get()
	defer final.Put(worker)
	for i, cq := range queries {
		var rs replayState
		inits := 0
		for _, ev := range append(subs[i].replay, drainStream(subs[i].st)...) {
			if ev.Kind == KindInit {
				inits++
			}
			rs.apply(t, ev)
		}
		if inits != 1 {
			t.Fatalf("%s: %d init events across replay and stream, want 1", cq.Algo, inits)
		}
		res, err := worker.Search(ctx, cq)
		label := fmt.Sprintf("%s k=%d", cq.Algo, cq.K)
		switch {
		case err == nil:
			if rs.noCommunity {
				t.Fatalf("%s: stream says no community, fresh search found %d members",
					label, len(res.Members))
			}
			want := make([]int64, len(res.Members))
			for j, v := range res.Members {
				want[j] = int64(v)
			}
			got := rs.sorted()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: replayed members %v != fresh %v (%d events)",
					label, got, want, rs.events)
			}
			if math.Abs(rs.mcc.R-res.MCC.R) > 1e-9 {
				t.Errorf("%s: replayed radius %v != fresh %v", label, rs.mcc.R, res.MCC.R)
			}
		case err == core.ErrNoCommunity || rs.noCommunity:
			if (err == core.ErrNoCommunity) != rs.noCommunity {
				t.Errorf("%s: stream noCommunity=%v, fresh search err=%v", label, rs.noCommunity, err)
			}
		default:
			t.Fatalf("%s: fresh search: %v", label, err)
		}
		if t.Failed() {
			return
		}
	}
}

// TestDifferentialCommunityFlips drives a subscription through
// community → no-community → community transitions by deleting and
// re-inserting the edges that keep q in the k-core.
func TestDifferentialCommunityFlips(t *testing.T) {
	// Two triangles sharing vertex 0 plus a stranded pair: k=2 community
	// around 0 exists iff its triangle edges do.
	b := graph.NewBuilder(7)
	rnd := rand.New(rand.NewSource(3))
	for v := 0; v < 7; v++ {
		b.SetLoc(graph.V(v), geom.Point{X: rnd.Float64(), Y: rnd.Float64()})
	}
	tri := [][2]graph.V{{0, 1}, {1, 2}, {0, 2}, {0, 3}, {3, 4}, {0, 4}}
	for _, e := range tri {
		b.AddEdge(e[0], e[1])
	}
	b.AddEdge(5, 6)
	g := b.Build()

	eng := snapshot.New(g, snapshot.Options{})
	defer eng.Close()
	mgr := NewManager(ManagerOptions{Current: eng.Current, Hub: Options{StreamBuf: 8192}})
	defer mgr.Close()
	eng.SetOnPublish(mgr.Notify)

	cq := core.Query{Q: 0, K: 2, Algo: "appfast"}
	sub, err := mgr.Register("flip", cq)
	if err != nil {
		t.Fatal(err)
	}
	st, replay, err := sub.Attach(0, false)
	if err != nil {
		t.Fatal(err)
	}

	// Quiesce between phases: the dispatcher coalesces publications, so
	// without a barrier a delete+re-insert round can collapse into a single
	// no-op evaluation. Each barrier forces the transition onto the stream —
	// the first one the init itself: registration is answered by an
	// asynchronous round, and one that pins a snapshot taken after the first
	// deletes opens on no-community, leaving the first phase nothing to flip.
	ctx := context.Background()
	waitProcessed(t, mgr, eng.Current().Seq())
	for round := 0; round < 3; round++ {
		for _, e := range tri {
			if _, err := eng.UpdateEdge(ctx, e[0], e[1], false); err != nil {
				t.Fatal(err)
			}
		}
		waitProcessed(t, mgr, eng.Current().Seq())
		for _, e := range tri {
			if _, err := eng.UpdateEdge(ctx, e[0], e[1], true); err != nil {
				t.Fatal(err)
			}
		}
		waitProcessed(t, mgr, eng.Current().Seq())
	}
	final := eng.Current()
	waitProcessed(t, mgr, final.Seq())

	var rs replayState
	for _, ev := range append(replay, drainStream(st)...) { // the init is replayed when its round beat the Attach
		rs.apply(t, ev)
	}
	if !rs.sawInit {
		t.Fatal("no init event")
	}
	// init + at least one delta per quiesced phase (6 phases, each flipping
	// community existence).
	if rs.events < 7 {
		t.Fatalf("expected a transition per quiesced phase, got %d events", rs.events)
	}
	worker := final.Get()
	defer final.Put(worker)
	res, err := worker.Search(ctx, cq)
	if err != nil {
		t.Fatalf("fresh search after re-insert: %v", err)
	}
	want := make([]int64, len(res.Members))
	for j, v := range res.Members {
		want[j] = int64(v)
	}
	if rs.noCommunity {
		t.Fatal("stream ended on no-community; edges were re-inserted")
	}
	if fmt.Sprint(rs.sorted()) != fmt.Sprint(want) {
		t.Fatalf("replayed members %v != fresh %v", rs.sorted(), want)
	}
}
