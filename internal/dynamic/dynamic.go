// Package dynamic implements the location-change replay of Section 5.2.3:
// check-in records are split into a warm-up prefix R1 and a replay suffix
// R2; R1 only updates user locations, while every R2 check-in by a tracked
// query user additionally triggers an SAC search at that instant. The
// resulting per-user community timelines feed the CJS/CAO-versus-η decay
// curves of Figure 13 and the moving-user portraits of Figure 2.
//
// ReplayWithEdges runs it, and extends the paper's setting with friendship
// churn: edge events (gen.EdgeChurn, or real unfriend/befriend logs)
// interleave with the check-in stream on one clock, applied through the
// searcher's incremental topology path so every snapshot sees the graph
// exactly as it stood at that instant.
package dynamic

import (
	"context"
	"errors"
	"fmt"

	"sacsearch/internal/core"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/quality"
)

// Snapshot is one community observed for a tracked user at one check-in.
type Snapshot struct {
	Time    float64 // days
	Members []graph.V
	MCC     geom.Circle
}

// SearchFunc runs one SAC query at the current graph state; it returns the
// community members or an error. core.ErrNoCommunity snapshots are skipped
// (the user simply has no community at that instant); any other error aborts
// the replay, wrapped with the user and time it occurred at.
type SearchFunc func(q graph.V, k int) ([]graph.V, geom.Circle, error)

// EdgeApplyFunc applies one friendship change during a replay. It must
// mutate the graph AND whatever decomposition state the search function
// depends on — core.Searcher.Apply does both. The
// boolean result (edge set changed) is ignored by the replay, so streams
// with benign no-op events (see gen.EdgeChurn) replay cleanly; an error
// aborts.
type EdgeApplyFunc func(u, v graph.V, insert bool) error

// ApplyVia adapts a Searcher's incremental topology updates to an
// EdgeApplyFunc, the usual way to wire ReplayWithEdges.
func ApplyVia(s *core.Searcher) EdgeApplyFunc {
	return func(u, v graph.V, insert bool) error {
		w := graph.Write{Kind: graph.WriteRemoveEdge, V: u, W: v}
		if insert {
			w.Kind = graph.WriteAddEdge
		}
		_, err := s.Apply(w)
		return err
	}
}

// ReplayWithEdges applies the check-in stream to g (mutating vertex
// locations) and returns the community timeline of every tracked user.
// Check-ins before splitTime only move users; from splitTime on, each
// check-in by a tracked user also runs search. Friendship churn interleaves
// on the same clock, with edge events applied before check-ins that share an
// instant (the friendship exists by the time the user reports a location),
// so tracked users' searches observe the graph exactly as it was at each
// check-in — moved locations and churned edges both. edges may be nil (the
// paper's pure location replay); apply is required when it is not. The
// graph is left at its final replayed state. Long replays honor ctx:
// cancellation aborts between events with the context's error.
func ReplayWithEdges(ctx context.Context, g *graph.Graph, checkins []gen.Checkin, edges []gen.EdgeEvent, tracked []graph.V, splitTime float64, k int, search SearchFunc, apply EdgeApplyFunc) (map[graph.V][]Snapshot, error) {
	if len(edges) > 0 && apply == nil {
		return nil, fmt.Errorf("dynamic: %d edge events but no apply function", len(edges))
	}
	// Validate ordering and every check-in up front, before any mutation: a
	// replay that fails validation must leave the graph untouched, not
	// mutated by whatever prefix preceded the violation.
	for i, c := range checkins {
		if i > 0 && c.Time < checkins[i-1].Time {
			return nil, fmt.Errorf("dynamic: check-ins not time sorted at index %d", i)
		}
		if err := checkinWrite(c).Check(g.NumVertices()); err != nil {
			return nil, fmt.Errorf("dynamic: check-in %d: %w", i, err)
		}
	}
	for i := 1; i < len(edges); i++ {
		if edges[i].Time < edges[i-1].Time {
			return nil, fmt.Errorf("dynamic: edge events not time sorted at index %d", i)
		}
	}
	isTracked := make(map[graph.V]bool, len(tracked))
	for _, v := range tracked {
		isTracked[v] = true
	}
	out := make(map[graph.V][]Snapshot, len(tracked))
	ei := 0
	for i, c := range checkins {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dynamic: replay aborted at check-in %d (day %.3f): %w", i, c.Time, err)
		}
		for ei < len(edges) && edges[ei].Time <= c.Time {
			e := edges[ei]
			if err := apply(e.U, e.V, e.Insert); err != nil {
				return nil, fmt.Errorf("dynamic: edge event (%d,%d) at day %.3f: %w", e.U, e.V, e.Time, err)
			}
			ei++
		}
		if _, err := g.Apply(checkinWrite(c)); err != nil {
			return nil, fmt.Errorf("dynamic: check-in %d: %w", i, err)
		}
		if c.Time < splitTime || !isTracked[c.User] {
			continue
		}
		members, mcc, err := search(c.User, k)
		if err != nil {
			if errors.Is(err, core.ErrNoCommunity) {
				continue // no community at this instant; Figure 13 skips these
			}
			// Anything else is a genuine failure, not an empty snapshot —
			// swallowing it would silently truncate the timelines.
			return nil, fmt.Errorf("dynamic: search for user %d at day %.3f: %w", c.User, c.Time, err)
		}
		snap := Snapshot{Time: c.Time, Members: append([]graph.V(nil), members...), MCC: mcc}
		out[c.User] = append(out[c.User], snap)
	}
	// Trailing edge events (after the last check-in) still apply, leaving
	// the graph at its true final state.
	for ; ei < len(edges); ei++ {
		e := edges[ei]
		if err := apply(e.U, e.V, e.Insert); err != nil {
			return nil, fmt.Errorf("dynamic: edge event (%d,%d) at day %.3f: %w", e.U, e.V, e.Time, err)
		}
	}
	return out, nil
}

// checkinWrite is the graph write a check-in record makes.
func checkinWrite(c gen.Checkin) graph.Write {
	return graph.Write{Kind: graph.WriteCheckin, V: c.User, Loc: c.Loc}
}

// DecayPoint is one (η, average CJS, average CAO) measurement.
type DecayPoint struct {
	EtaDays float64
	CJS     float64
	CAO     float64
	Pairs   int // community pairs averaged
}

// Decay computes the Figure 13 curves: for each η, every user's timeline is
// greedily subsampled so consecutive snapshots are at least η days apart,
// and CJS/CAO are averaged over the consecutive pairs of the subsample.
func Decay(timelines map[graph.V][]Snapshot, etas []float64) []DecayPoint {
	out := make([]DecayPoint, 0, len(etas))
	for _, eta := range etas {
		var cjs, cao []float64
		for _, snaps := range timelines {
			var prev *Snapshot
			for i := range snaps {
				s := &snaps[i]
				if prev == nil {
					prev = s
					continue
				}
				if s.Time-prev.Time < eta {
					continue
				}
				cjs = append(cjs, quality.CJS(prev.Members, s.Members))
				cao = append(cao, quality.CAO(prev.MCC, s.MCC))
				prev = s
			}
		}
		out = append(out, DecayPoint{
			EtaDays: eta,
			CJS:     quality.Mean(cjs),
			CAO:     quality.Mean(cao),
			Pairs:   len(cjs),
		})
	}
	return out
}
