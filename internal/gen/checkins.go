package gen

import (
	"math"
	"math/rand"
	"sort"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// Checkin is one timestamped location report by a user, mirroring the
// Brightkite/Gowalla check-in records the dynamic experiment (Section 5.2.3)
// replays. Time is measured in fractional days from the stream's origin.
type Checkin struct {
	User graph.V
	Time float64 // days since stream start
	Loc  geom.Point
}

// CheckinConfig controls the synthetic check-in stream.
type CheckinConfig struct {
	Days          float64 // total stream duration (Brightkite spans ~900 days)
	PerUserMean   float64 // mean check-ins per user over the whole stream
	HomeSigma     float64 // spatial jitter around the current base location
	TripProb      float64 // per-check-in probability of relocating to a new base
	TripDistMean  float64 // mean distance of a relocation
	TripDistSigma float64
}

// DefaultCheckinConfig mirrors the qualitative shape of Brightkite: users
// mostly check in near a base location, occasionally traveling far (the
// "place A to place B" moves of Figure 2).
func DefaultCheckinConfig() CheckinConfig {
	return CheckinConfig{
		Days:          900,
		PerUserMean:   30,
		HomeSigma:     0.01,
		TripProb:      0.08,
		TripDistMean:  0.3,
		TripDistSigma: 0.15,
	}
}

// Checkins generates a time-sorted check-in stream for every vertex of g,
// starting from each vertex's current (static) location as its first base.
func Checkins(g *graph.Graph, cfg CheckinConfig, seed int64) []Checkin {
	rnd := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	var out []Checkin
	for v := 0; v < n; v++ {
		base := g.Loc(graph.V(v))
		// Poisson-ish count: geometric mixture around the mean.
		count := 1 + rnd.Intn(int(2*cfg.PerUserMean))
		times := make([]float64, count)
		for i := range times {
			times[i] = rnd.Float64() * cfg.Days
		}
		sort.Float64s(times)
		for _, t := range times {
			if rnd.Float64() < cfg.TripProb {
				// Travel: move the base a long way.
				d := rnd.NormFloat64()*cfg.TripDistSigma + cfg.TripDistMean
				if d < 0 {
					d = -d
				}
				ang := rnd.Float64() * 2 * math.Pi
				base = geom.Point{
					X: clamp01(base.X + d*math.Cos(ang)),
					Y: clamp01(base.Y + d*math.Sin(ang)),
				}
			}
			loc := geom.Point{
				X: clamp01(base.X + rnd.NormFloat64()*cfg.HomeSigma),
				Y: clamp01(base.Y + rnd.NormFloat64()*cfg.HomeSigma),
			}
			out = append(out, Checkin{User: graph.V(v), Time: t, Loc: loc})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].User < out[j].User
	})
	return out
}

// TravelDistance sums the distances between consecutive check-ins per user —
// the statistic the paper ranks query users by ("who travel the longest").
func TravelDistance(checkins []Checkin, n int) []float64 {
	dist := make([]float64, n)
	last := make([]geom.Point, n)
	seen := make([]bool, n)
	for _, c := range checkins {
		if seen[c.User] {
			dist[c.User] += last[c.User].Dist(c.Loc)
		}
		last[c.User] = c.Loc
		seen[c.User] = true
	}
	return dist
}

// SelectMovers returns up to count users (none for a count ≤ 0) ranked by
// descending total travel distance among those with at least minFriends
// neighbors — the paper's
// query-set construction for the dynamic experiment (100 users, ≥ 20
// friends, longest travel).
func SelectMovers(g *graph.Graph, checkins []Checkin, minFriends, count int) []graph.V {
	dist := TravelDistance(checkins, g.NumVertices())
	type cand struct {
		v graph.V
		d float64
	}
	var cands []cand
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.V(v)) >= minFriends {
			cands = append(cands, cand{graph.V(v), dist[v]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d > cands[j].d
		}
		return cands[i].v < cands[j].v
	})
	cands = cands[:min(len(cands), max(count, 0))]
	out := make([]graph.V, len(cands))
	for i, c := range cands {
		out[i] = c.v
	}
	return out
}
