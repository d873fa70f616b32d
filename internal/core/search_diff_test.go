package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"sacsearch/internal/graph"
)

// hashMembers is the member-list digest searchGolden records: FNV-64a over
// each id's four little-endian bytes.
func hashMembers(ms []graph.V) uint64 {
	h := fnv.New64a()
	for _, v := range ms {
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
	}
	return h.Sum64()
}

// TestSearchMatchesLegacyDifferential is the unified-API contract test: for
// every one of the six algorithms, Searcher.Search(ctx, Query) must return
// what the legacy per-algorithm implementation returned — same members, same
// MCC, same δ, bit for bit — or fail with the same sentinel. The legacy
// implementations are gone (their methods are conveniences over Search now),
// so their side is searchGolden, recorded before they went. The Search side
// runs on pooled workers across goroutines, so `go test -race` also proves
// the unified path is safe under the pool.
func TestSearchMatchesLegacyDifferential(t *testing.T) {
	g := clusteredGraph(17, 5, 7, 25)
	pool := NewPool(NewSearcher(g))

	params := map[string]Query{
		"exact":   {},
		"exact+":  {EpsA: Float(1e-3)},
		"appinc":  {},
		"appfast": {EpsF: Float(0.5)},
		"appacc":  {EpsA: Float(0.5)},
		"theta":   {Theta: Float(0.3)},
	}
	covered := map[string]bool{}
	for _, row := range searchGolden {
		covered[row.algo] = true
	}
	for _, spec := range Algorithms() {
		if !covered[spec.Name] {
			t.Fatalf("searchGolden has no rows for registered algorithm %q", spec.Name)
		}
	}

	type outcome struct {
		res *Result
		err error
	}
	got := make([]outcome, len(searchGolden))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := pool.Get()
			defer pool.Put(ws)
			for i := w; i < len(searchGolden); i += 4 {
				row := searchGolden[i]
				cq := params[row.algo]
				cq.Algo, cq.Q, cq.K = row.algo, graph.V(row.q), row.k
				res, err := ws.Search(context.Background(), cq)
				got[i] = outcome{res, err}
			}
		}(w)
	}
	wg.Wait()

	for i, row := range searchGolden {
		label := fmt.Sprintf("%s q=%d k=%d", row.algo, row.q, row.k)
		res, err := got[i].res, got[i].err
		if row.n == 0 {
			if !errors.Is(err, ErrNoCommunity) {
				t.Fatalf("%s: legacy answered ErrNoCommunity, Search (%v, %v)", label, res, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: legacy answered %d members, Search err = %v", label, row.n, err)
		}
		if len(res.Members) != row.n || hashMembers(res.Members) != row.members {
			t.Fatalf("%s: members differ from legacy (%d members, hash %#x): %v",
				label, row.n, row.members, res.Members)
		}
		if math.Float64bits(res.MCC.C.X) != row.cx || math.Float64bits(res.MCC.C.Y) != row.cy ||
			math.Float64bits(res.MCC.R) != row.r || math.Float64bits(res.Delta) != row.delta64 {
			t.Fatalf("%s: geometry differs from legacy: MCC %+v δ %v", label, res.MCC, res.Delta)
		}
		if int(res.Query) != row.q || res.K != row.k {
			t.Fatalf("%s: echo differs: (%d,%d)", label, res.Query, res.K)
		}
	}
}
