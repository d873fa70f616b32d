package core

import (
	"context"
	"fmt"
	"testing"

	"sacsearch/internal/graph"
)

// scanCounters is the work the Exact and Exact+ circle scans did on one
// worker (GOMAXPROCS 1: no intra-query parallelism), recorded at 7eb1d3c,
// when the one-worker scan was a serial loop of its own: CirclesExamined,
// FeasibilityChecks and F1Size per query. "clustered" rows are every exact /
// exact+ row of searchGolden (clusteredGraph(17, 5, 7, 25), εA = 1e-3);
// "spread" rows are spreadClique(5, 64) with εA = 0.5, wide enough that two
// or more workers would fan the scan out. Zero counters are the trivial-k
// and no-community rows. A scan that examines a circle more or less, or
// probes one more or less, fails here even when its answer does not change.
var scanCounters = []struct {
	graph         string
	algo          string
	q, k          int
	circles, feas int
	f1            int
}{
	{"clustered", "exact", 0, 1, 0, 0, 0},
	{"clustered", "exact", 0, 2, 4, 3, 0},
	{"clustered", "exact", 0, 4, 30, 17, 0},
	{"clustered", "exact", 0, 7, 0, 0, 0},
	{"clustered", "exact", 2, 1, 0, 0, 0},
	{"clustered", "exact", 2, 2, 7, 4, 0},
	{"clustered", "exact", 2, 4, 34, 13, 0},
	{"clustered", "exact", 2, 7, 0, 0, 0},
	{"clustered", "exact", 4, 1, 0, 0, 0},
	{"clustered", "exact", 4, 2, 7, 5, 0},
	{"clustered", "exact", 4, 4, 30, 17, 0},
	{"clustered", "exact", 4, 7, 0, 0, 0},
	{"clustered", "exact", 6, 1, 0, 0, 0},
	{"clustered", "exact", 6, 2, 4, 3, 0},
	{"clustered", "exact", 6, 4, 35, 13, 0},
	{"clustered", "exact", 6, 7, 0, 0, 0},
	{"clustered", "exact", 8, 1, 0, 0, 0},
	{"clustered", "exact", 8, 2, 4, 3, 0},
	{"clustered", "exact", 8, 4, 40, 20, 0},
	{"clustered", "exact", 8, 7, 0, 0, 0},
	{"clustered", "exact", 10, 1, 0, 0, 0},
	{"clustered", "exact", 10, 2, 8, 6, 0},
	{"clustered", "exact", 10, 4, 40, 20, 0},
	{"clustered", "exact", 10, 7, 0, 0, 0},
	{"clustered", "exact", 12, 1, 0, 0, 0},
	{"clustered", "exact", 12, 2, 4, 2, 0},
	{"clustered", "exact", 12, 4, 35, 11, 0},
	{"clustered", "exact", 12, 7, 0, 0, 0},
	{"clustered", "exact", 14, 1, 0, 0, 0},
	{"clustered", "exact", 14, 2, 4, 3, 0},
	{"clustered", "exact", 14, 4, 30, 14, 0},
	{"clustered", "exact", 14, 7, 0, 0, 0},
	{"clustered", "exact", 16, 1, 0, 0, 0},
	{"clustered", "exact", 16, 2, 4, 2, 0},
	{"clustered", "exact", 16, 4, 20, 10, 0},
	{"clustered", "exact", 16, 7, 0, 0, 0},
	{"clustered", "exact", 18, 1, 0, 0, 0},
	{"clustered", "exact", 18, 2, 4, 2, 0},
	{"clustered", "exact", 18, 4, 20, 10, 0},
	{"clustered", "exact", 18, 7, 0, 0, 0},
	{"clustered", "exact", 20, 1, 0, 0, 0},
	{"clustered", "exact", 20, 2, 4, 2, 0},
	{"clustered", "exact", 20, 4, 30, 25, 0},
	{"clustered", "exact", 20, 7, 0, 0, 0},
	{"clustered", "exact", 22, 1, 0, 0, 0},
	{"clustered", "exact", 22, 2, 9, 6, 0},
	{"clustered", "exact", 22, 4, 30, 16, 0},
	{"clustered", "exact", 22, 7, 0, 0, 0},
	{"clustered", "exact", 24, 1, 0, 0, 0},
	{"clustered", "exact", 24, 2, 4, 3, 0},
	{"clustered", "exact", 24, 4, 34, 11, 0},
	{"clustered", "exact", 24, 7, 0, 0, 0},
	{"clustered", "exact", 26, 1, 0, 0, 0},
	{"clustered", "exact", 26, 2, 7, 4, 0},
	{"clustered", "exact", 26, 4, 42, 25, 0},
	{"clustered", "exact", 26, 7, 0, 0, 0},
	{"clustered", "exact", 28, 1, 0, 0, 0},
	{"clustered", "exact", 28, 2, 8, 6, 0},
	{"clustered", "exact", 28, 4, 31, 18, 0},
	{"clustered", "exact", 28, 7, 0, 0, 0},
	{"clustered", "exact", 30, 1, 0, 0, 0},
	{"clustered", "exact", 30, 2, 4, 2, 0},
	{"clustered", "exact", 30, 4, 26, 17, 0},
	{"clustered", "exact", 30, 7, 0, 0, 0},
	{"clustered", "exact", 32, 1, 0, 0, 0},
	{"clustered", "exact", 32, 2, 4, 2, 0},
	{"clustered", "exact", 32, 4, 35, 11, 0},
	{"clustered", "exact", 32, 7, 0, 0, 0},
	{"clustered", "exact", 34, 1, 0, 0, 0},
	{"clustered", "exact", 34, 2, 4, 3, 0},
	{"clustered", "exact", 34, 4, 30, 19, 0},
	{"clustered", "exact", 34, 7, 0, 0, 0},
	{"clustered", "exact+", 0, 1, 0, 0, 0},
	{"clustered", "exact+", 0, 2, 1, 2031, 2},
	{"clustered", "exact+", 0, 4, 2, 618, 3},
	{"clustered", "exact+", 0, 7, 0, 0, 0},
	{"clustered", "exact+", 2, 1, 0, 0, 0},
	{"clustered", "exact+", 2, 2, 1, 1210, 2},
	{"clustered", "exact+", 2, 4, 1, 1229, 2},
	{"clustered", "exact+", 2, 7, 0, 0, 0},
	{"clustered", "exact+", 4, 1, 0, 0, 0},
	{"clustered", "exact+", 4, 2, 3, 236, 3},
	{"clustered", "exact+", 4, 4, 2, 579, 3},
	{"clustered", "exact+", 4, 7, 0, 0, 0},
	{"clustered", "exact+", 6, 1, 0, 0, 0},
	{"clustered", "exact+", 6, 2, 3, 190, 3},
	{"clustered", "exact+", 6, 4, 3, 318, 3},
	{"clustered", "exact+", 6, 7, 0, 0, 0},
	{"clustered", "exact+", 8, 1, 0, 0, 0},
	{"clustered", "exact+", 8, 2, 1, 1339, 2},
	{"clustered", "exact+", 8, 4, 1, 1520, 2},
	{"clustered", "exact+", 8, 7, 0, 0, 0},
	{"clustered", "exact+", 10, 1, 0, 0, 0},
	{"clustered", "exact+", 10, 2, 3, 331, 3},
	{"clustered", "exact+", 10, 4, 1, 1780, 2},
	{"clustered", "exact+", 10, 7, 0, 0, 0},
	{"clustered", "exact+", 12, 1, 0, 0, 0},
	{"clustered", "exact+", 12, 2, 1, 977, 2},
	{"clustered", "exact+", 12, 4, 1, 1045, 2},
	{"clustered", "exact+", 12, 7, 0, 0, 0},
	{"clustered", "exact+", 14, 1, 0, 0, 0},
	{"clustered", "exact+", 14, 2, 2, 244, 3},
	{"clustered", "exact+", 14, 4, 3, 551, 3},
	{"clustered", "exact+", 14, 7, 0, 0, 0},
	{"clustered", "exact+", 16, 1, 0, 0, 0},
	{"clustered", "exact+", 16, 2, 1, 953, 2},
	{"clustered", "exact+", 16, 4, 3, 566, 3},
	{"clustered", "exact+", 16, 7, 0, 0, 0},
	{"clustered", "exact+", 18, 1, 0, 0, 0},
	{"clustered", "exact+", 18, 2, 1, 954, 2},
	{"clustered", "exact+", 18, 4, 3, 162, 3},
	{"clustered", "exact+", 18, 7, 0, 0, 0},
	{"clustered", "exact+", 20, 1, 0, 0, 0},
	{"clustered", "exact+", 20, 2, 1, 811, 2},
	{"clustered", "exact+", 20, 4, 3, 960, 3},
	{"clustered", "exact+", 20, 7, 0, 0, 0},
	{"clustered", "exact+", 22, 1, 0, 0, 0},
	{"clustered", "exact+", 22, 2, 3, 400, 3},
	{"clustered", "exact+", 22, 4, 2, 253, 3},
	{"clustered", "exact+", 22, 7, 0, 0, 0},
	{"clustered", "exact+", 24, 1, 0, 0, 0},
	{"clustered", "exact+", 24, 2, 2, 233, 3},
	{"clustered", "exact+", 24, 4, 1, 1092, 2},
	{"clustered", "exact+", 24, 7, 0, 0, 0},
	{"clustered", "exact+", 26, 1, 0, 0, 0},
	{"clustered", "exact+", 26, 2, 1, 1318, 2},
	{"clustered", "exact+", 26, 4, 2, 325, 3},
	{"clustered", "exact+", 26, 7, 0, 0, 0},
	{"clustered", "exact+", 28, 1, 0, 0, 0},
	{"clustered", "exact+", 28, 2, 2, 293, 3},
	{"clustered", "exact+", 28, 4, 3, 375, 3},
	{"clustered", "exact+", 28, 7, 0, 0, 0},
	{"clustered", "exact+", 30, 1, 0, 0, 0},
	{"clustered", "exact+", 30, 2, 1, 929, 2},
	{"clustered", "exact+", 30, 4, 3, 461, 3},
	{"clustered", "exact+", 30, 7, 0, 0, 0},
	{"clustered", "exact+", 32, 1, 0, 0, 0},
	{"clustered", "exact+", 32, 2, 1, 910, 2},
	{"clustered", "exact+", 32, 4, 1, 1118, 2},
	{"clustered", "exact+", 32, 7, 0, 0, 0},
	{"clustered", "exact+", 34, 1, 0, 0, 0},
	{"clustered", "exact+", 34, 2, 1, 1925, 2},
	{"clustered", "exact+", 34, 4, 3, 449, 3},
	{"clustered", "exact+", 34, 7, 0, 0, 0},
	{"spread", "exact", 0, 20, 5141, 2252, 0},
	{"spread", "exact", 0, 40, 32721, 13945, 0},
	{"spread", "exact", 17, 20, 4693, 1532, 0},
	{"spread", "exact", 17, 40, 24119, 5854, 0},
	{"spread", "exact+", 0, 20, 4272, 1693, 36},
	{"spread", "exact+", 0, 40, 29760, 12653, 64},
	{"spread", "exact+", 17, 20, 6726, 1383, 43},
	{"spread", "exact+", 17, 40, 29934, 5395, 63},
}

// TestScanCountersPinned replays scanCounters on one searcher per graph at
// GOMAXPROCS 1 and requires every counter to match.
func TestScanCountersPinned(t *testing.T) {
	SetProcs(t, 1)
	searchers := map[string]*Searcher{
		"clustered": NewSearcher(clusteredGraph(17, 5, 7, 25)),
		"spread":    NewSearcher(spreadClique(5, 64)),
	}
	epsA := map[string]float64{"clustered": 1e-3, "spread": 0.5}
	for _, row := range scanCounters {
		label := fmt.Sprintf("%s %s q=%d k=%d", row.graph, row.algo, row.q, row.k)
		q := Query{Algo: row.algo, Q: graph.V(row.q), K: row.k}
		if row.algo == "exact+" {
			q.EpsA = Float(epsA[row.graph])
		}
		var st Stats
		if res, err := searchers[row.graph].Search(context.Background(), q); err == nil {
			st = res.Stats
		}
		if st.CirclesExamined != row.circles || st.FeasibilityChecks != row.feas || st.F1Size != row.f1 {
			t.Errorf("%s: circles %d, feasibility checks %d, |F1| %d; recorded %d, %d, %d",
				label, st.CirclesExamined, st.FeasibilityChecks, st.F1Size, row.circles, row.feas, row.f1)
		}
	}
}
