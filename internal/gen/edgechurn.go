package gen

import (
	"math/rand"
	"sort"

	"sacsearch/internal/graph"
)

// EdgeEvent is one friendship change at a point in time: an insertion
// (Insert = true) or a deletion. Times use the same fractional-day clock as
// Checkin, so the two streams interleave into one dynamic replay.
type EdgeEvent struct {
	U, V   graph.V
	Time   float64 // days since stream start
	Insert bool
}

// EdgeChurnConfig controls the synthetic friendship-churn stream.
type EdgeChurnConfig struct {
	Days       float64 // stream duration (matches the check-in stream's)
	Events     int     // total edge events to generate
	InsertFrac float64 // fraction of events that are insertions
}

// DefaultEdgeChurnConfig mirrors the observation that friendships churn far
// more slowly than locations: a few events per hundred check-ins, two thirds
// of them new ties (networks densify over time).
func DefaultEdgeChurnConfig() EdgeChurnConfig {
	return EdgeChurnConfig{Days: 900, Events: 500, InsertFrac: 0.66}
}

// EdgeChurn generates a time-sorted friendship event stream for g.
// Insertions prefer triadic closure — a new tie between two vertices sharing
// a friend, the dominant mechanism of social-network growth — with a uniform
// random fallback; deletions sample existing edges. Events are generated
// against g's current topology without applying them, so a replayed stream
// may contain occasional no-ops (re-inserting an edge a later event already
// restored); appliers treat those as benign, the way the server's /v1/edge
// reports changed = false.
func EdgeChurn(g *graph.Graph, cfg EdgeChurnConfig, seed int64) []EdgeEvent {
	rnd := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	if n < 2 || cfg.Events <= 0 {
		return nil
	}
	out := make([]EdgeEvent, 0, cfg.Events)
	for len(out) < cfg.Events {
		ev := EdgeEvent{Time: rnd.Float64() * cfg.Days}
		if rnd.Float64() < cfg.InsertFrac {
			ev.Insert = true
			ev.U, ev.V = closablePair(g, rnd)
		} else {
			u := graph.V(rnd.Intn(n))
			nb := g.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			ev.U, ev.V = u, nb[rnd.Intn(len(nb))]
		}
		if ev.U == ev.V {
			continue
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// closablePair proposes a new edge, preferring a friend-of-friend pair.
func closablePair(g *graph.Graph, rnd *rand.Rand) (graph.V, graph.V) {
	n := g.NumVertices()
	for attempt := 0; attempt < 8; attempt++ {
		w := graph.V(rnd.Intn(n))
		nb := g.Neighbors(w)
		if len(nb) < 2 {
			continue
		}
		u := nb[rnd.Intn(len(nb))]
		v := nb[rnd.Intn(len(nb))]
		if u != v && !g.HasEdge(u, v) {
			return u, v
		}
	}
	// Fallback: uniform random non-edge.
	for attempt := 0; attempt < 8; attempt++ {
		u, v := graph.V(rnd.Intn(n)), graph.V(rnd.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			return u, v
		}
	}
	return 0, 0 // dense or tiny graph; caller drops the self-pair
}
