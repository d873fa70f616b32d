// Package gen implements the synthetic-data substrate. The paper evaluates
// on four geo-social datasets (Brightkite, Gowalla, Flickr, Foursquare) plus
// two synthetic graphs produced by GTGraph; neither the datasets nor GTGraph
// can be shipped here, so this package regenerates their statistical shape
// from scratch following the paper's own recipe (Section 5.1):
//
//  1. a power-law-degree graph of the target size (preferential attachment
//     by default; R-MAT also available),
//  2. vertex locations assigned by BFS propagation — a seed vertex lands
//     uniformly in [0,1]², and each newly reached neighbor is placed at a
//     distance drawn from N(µ=0.09, σ=0.16) from its parent (values the
//     paper derived from Brightkite), clipped to the unit square,
//  3. optionally, a timestamped check-in stream per user for the dynamic
//     experiment of Section 5.2.3.
package gen

import (
	"math"
	"math/rand"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// Spatial placement defaults from Section 5.1.
const (
	DefaultDistMean  = 0.09
	DefaultDistSigma = 0.16
)

// PowerLawGraph generates an undirected graph with n vertices and
// approximately m edges whose degree distribution follows a power law, using
// preferential attachment with a repeated-endpoints sampler. The result is
// connected for n ≥ 2 (every new vertex attaches to existing ones).
func PowerLawGraph(n, m int, seed int64) *graph.Builder {
	rnd := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	if n < 2 {
		return b
	}
	// Average attachments per vertex; spread the remainder stochastically so
	// the final edge count lands near m.
	avg := float64(m) / float64(n-1)
	if avg < 1 {
		avg = 1
	}
	// endpoints holds every edge endpoint seen so far; sampling uniformly
	// from it realizes degree-proportional attachment.
	endpoints := make([]graph.V, 0, 2*m+2)
	b.AddEdge(0, 1)
	endpoints = append(endpoints, 0, 1)
	for v := 2; v < n; v++ {
		attach := int(avg)
		if rnd.Float64() < avg-float64(attach) {
			attach++
		}
		if attach < 1 {
			attach = 1
		}
		for e := 0; e < attach; e++ {
			var to graph.V
			if rnd.Float64() < 0.1 {
				// Small uniform component keeps the tail from starving.
				to = graph.V(rnd.Intn(v))
			} else {
				to = endpoints[rnd.Intn(len(endpoints))]
			}
			if to == graph.V(v) {
				continue
			}
			b.AddEdge(graph.V(v), to)
			endpoints = append(endpoints, graph.V(v), to)
		}
	}
	return b
}

// CommunityOverlay spends roughly extraEdges additional edges planting
// dense groups over the builder's vertices: repeatedly pick a random group
// of 12-40 vertices and wire it with edge probability ≈0.55. Preferential
// attachment alone caps every core number at the attachment count (the
// well-known BA property), which would leave the paper's k ∈ {4..16} sweep
// with nothing to find; real geo-social graphs get their deep cores from
// exactly this kind of dense cluster.
func CommunityOverlay(b *graph.Builder, extraEdges int, seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	n := b.NumVertices()
	if n < 4 || extraEdges <= 0 {
		return
	}
	spent := 0
	group := make([]graph.V, 0, 40)
	for spent < extraEdges {
		size := 12 + rnd.Intn(29)
		if size > n {
			size = n
		}
		group = group[:0]
		for len(group) < size {
			group = append(group, graph.V(rnd.Intn(n)))
		}
		for i := 1; i < len(group); i++ {
			for j := 0; j < i; j++ {
				if rnd.Float64() < 0.55 {
					b.AddEdge(group[i], group[j])
					spent++
				}
			}
		}
	}
}

// SocialGraph composes PowerLawGraph and CommunityOverlay: a power-law
// backbone carrying ~72% of the edge budget plus dense planted groups for
// the rest. This is the generator dataset presets use.
func SocialGraph(n, m int, seed int64) *graph.Builder {
	backbone := int(float64(m) * 0.72)
	b := PowerLawGraph(n, backbone, seed)
	CommunityOverlay(b, m-backbone, seed+7)
	return b
}

// PlaceSpatial assigns a location to every vertex of the builder by BFS
// propagation (Section 5.1): seed vertices get uniform positions; each newly
// reached neighbor is placed at distance ~ N(mean, sigma) (truncated at 0)
// and uniform angle from its parent, clipped to [0,1]². Disconnected
// components each get their own uniform seed.
func PlaceSpatial(b *graph.Builder, mean, sigma float64, seed int64) {
	rnd := rand.New(rand.NewSource(seed))
	n := b.NumVertices()
	if n == 0 {
		return
	}
	// The builder has no adjacency yet (only the edge log), so build a
	// temporary adjacency for the BFS.
	g := b.Build()
	placed := make([]bool, n)
	queue := make([]graph.V, 0, n)
	for s := 0; s < n; s++ {
		if placed[s] {
			continue
		}
		p := geom.Point{X: rnd.Float64(), Y: rnd.Float64()}
		b.SetLoc(graph.V(s), p)
		placed[s] = true
		queue = append(queue[:0], graph.V(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			vp := b.LocOf(v)
			for _, u := range g.Neighbors(v) {
				if placed[u] {
					continue
				}
				d := rnd.NormFloat64()*sigma + mean
				if d < 0 {
					d = -d
				}
				ang := rnd.Float64() * 2 * math.Pi
				up := geom.Point{
					X: clamp01(vp.X + d*math.Cos(ang)),
					Y: clamp01(vp.Y + d*math.Sin(ang)),
				}
				b.SetLoc(u, up)
				placed[u] = true
				queue = append(queue, u)
			}
		}
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
