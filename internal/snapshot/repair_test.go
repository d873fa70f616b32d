package snapshot

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// TestRepairAcrossSnapshots drives the engine cache's journal repair the way
// serving does: one pooled worker (sequential Get/Put on a LIFO pool) is
// rebound, query after query, between the newest snapshot and an older
// pinned one while check-ins and edge ops publish new ones. Going forward
// the cache absorbs the journal gap; going back its stamps lie in the
// adopted graph's future, so the older query answers from state of its own
// and leaves the cache as it stands — the next query on the newest snapshot
// finds its view current. Every answer must equal a fresh searcher's on that
// snapshot's frozen graph. Under -race this also checks that frozen clones
// and the writer's graph can share adjacency rows.
func TestRepairAcrossSnapshots(t *testing.T) {
	ds, err := dataset.Load("syn1", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	eng := New(ds.Graph, Options{})
	defer eng.Close()
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(5))
	n := eng.NumVertices()

	var hot []graph.V
	for v := 0; v < n && len(hot) < 5; v += 37 {
		if eng.Current().CoreNumber(graph.V(v)) >= k {
			hot = append(hot, graph.V(v))
		}
	}
	if len(hot) < 5 {
		t.Fatalf("only %d hot vertices", len(hot))
	}
	algos := []string{"appfast", "appinc", "appacc", "appfast", "exact+"}

	steps := 120
	if testing.Short() {
		steps = 40
	}
	var st core.Stats
	forward := 0 // newest-snapshot queries after an older one that found their view current
	pinned := eng.Current()
	for step := 0; step < steps; step++ {
		for i := rnd.Intn(4); i > 0; i-- {
			switch rnd.Intn(4) {
			case 0:
				u, w := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n))
				if _, err := eng.UpdateEdge(ctx, u, w, true); err != nil {
					t.Fatal(err)
				}
			case 1:
				u := graph.V(rnd.Intn(n))
				if nb := eng.Current().Graph().Neighbors(u); len(nb) > 0 {
					if _, err := eng.UpdateEdge(ctx, u, nb[rnd.Intn(len(nb))], false); err != nil {
						t.Fatal(err)
					}
				}
			default:
				v := graph.V(rnd.Intn(n))
				p := eng.Current().Graph().Loc(v)
				p = geom.Point{X: p.X + rnd.NormFloat64()*0.02, Y: p.Y + rnd.NormFloat64()*0.02}
				if err := eng.CheckIn(ctx, v, p); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Re-pin now and then, so the older snapshot is sometimes a few
		// mutations behind and sometimes hundreds.
		if rnd.Intn(40) == 0 {
			pinned = eng.Current()
		}
		query := core.Query{Algo: algos[step%len(algos)], Q: hot[rnd.Intn(len(hot))], K: k}
		for i, sn := range []*Snap{eng.Current(), pinned, eng.Current()} {
			w := sn.Get()
			got, gotErr := w.Search(ctx, query)
			sn.Put(w)
			want, wantErr := core.NewSearcher(sn.Graph()).Search(ctx, query)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && !errors.Is(gotErr, core.ErrNoCommunity) {
				t.Fatalf("step %d snapshot %d %s q=%d: pooled err %v, fresh err %v",
					step, sn.Seq(), query.Algo, query.Q, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !slices.Equal(got.Members, want.Members) || got.MCC != want.MCC || got.Delta != want.Delta ||
				got.Stats.CandidateSize != want.Stats.CandidateSize {
				t.Fatalf("step %d snapshot %d %s q=%d: pooled %d members |X|=%d δ %v, fresh %d members |X|=%d δ %v",
					step, sn.Seq(), query.Algo, query.Q,
					len(got.Members), got.Stats.CandidateSize, got.Delta,
					len(want.Members), want.Stats.CandidateSize, want.Delta)
			}
			if i == 2 && pinned.Seq() < sn.Seq() {
				if got.Stats.ViewHits != 1 || got.Stats.ViewRebuilds != 0 || got.Stats.CacheHits != 1 {
					t.Fatalf("step %d %s q=%d: the query on snapshot %d after one on %d did not find its view current: %+v",
						step, query.Algo, query.Q, sn.Seq(), pinned.Seq(), got.Stats)
				}
				forward++
			}
			st.CacheHits += got.Stats.CacheHits
			st.ViewHits += got.Stats.ViewHits
			st.ViewRepairs += got.Stats.ViewRepairs
			st.ViewRebuilds += got.Stats.ViewRebuilds
			st.EntriesDropped += got.Stats.EntriesDropped
		}
	}
	if eng.PoolClones() != 1 {
		t.Fatalf("%d pool workers served a sequential loop; the test wants one cache seeing every snapshot", eng.PoolClones())
	}
	t.Logf("hits %d, views hit/repaired/rebuilt %d/%d/%d, entries dropped %d, forward after back %d",
		st.CacheHits, st.ViewHits, st.ViewRepairs, st.ViewRebuilds, st.EntriesDropped, forward)
	if st.ViewHits == 0 || st.ViewRepairs == 0 || st.ViewRebuilds == 0 || forward == 0 || st.CacheHits == 0 {
		t.Fatalf("an outcome never occurred: %+v", st)
	}
}
