// Package quality implements the community-quality measures of Section 5:
//
//	radius  — the MCC radius of the community (Section 5.2.2)
//	distPr  — average pairwise member distance (Section 5.2.2)
//	CJS     — community Jaccard similarity, Equation 9
//	CAO     — community area overlap, Equation 10
//
// plus the mean the experiment tables report.
package quality

import (
	"math/rand"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// Radius returns the MCC radius of the members' locations.
func Radius(g *graph.Graph, members []graph.V) float64 {
	return g.MCCOf(members).R
}

// distPrSampleCap bounds the number of pairs evaluated exactly; beyond it,
// DistPr samples. Global communities can span half the graph, and the exact
// O(c²) sum would dominate experiment time without changing the headline.
const distPrSampleCap = 200000

// DistPr returns the average pairwise Euclidean distance between members.
// Exact when the pair count is at most distPrSampleCap; otherwise it is a
// uniform sample mean over that many pairs (deterministic in seed).
func DistPr(g *graph.Graph, members []graph.V, seed int64) float64 {
	n := len(members)
	if n < 2 {
		return 0
	}
	pairs := n * (n - 1) / 2
	if pairs <= distPrSampleCap {
		sum := 0.0
		for i := 1; i < n; i++ {
			pi := g.Loc(members[i])
			for j := 0; j < i; j++ {
				sum += pi.Dist(g.Loc(members[j]))
			}
		}
		return sum / float64(pairs)
	}
	rnd := rand.New(rand.NewSource(seed))
	sum := 0.0
	for s := 0; s < distPrSampleCap; s++ {
		i := rnd.Intn(n)
		j := rnd.Intn(n - 1)
		if j >= i {
			j++
		}
		sum += g.Loc(members[i]).Dist(g.Loc(members[j]))
	}
	return sum / float64(distPrSampleCap)
}

// CJS is the community Jaccard similarity |A∩B| / |A∪B| (Equation 9).
func CJS(a, b []graph.V) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[graph.V]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	inter := 0
	union := len(set)
	seen := make(map[graph.V]bool, len(b))
	for _, v := range b {
		if seen[v] {
			continue
		}
		seen[v] = true
		if set[v] {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// CAO is the community area overlap (Equation 10): the Jaccard similarity of
// the areas of the two communities' MCCs.
func CAO(a, b geom.Circle) float64 {
	return geom.OverlapRatio(a, b)
}

// Mean returns the arithmetic mean, 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
