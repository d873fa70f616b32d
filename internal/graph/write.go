package graph

import (
	"fmt"

	"sacsearch/internal/geom"
)

// WriteKind discriminates writes.
type WriteKind uint8

const (
	WriteCheckin    WriteKind = iota + 1 // SetLoc moves V to Loc
	WriteAddEdge                         // AddEdge inserts {V, W}
	WriteRemoveEdge                      // RemoveEdge deletes {V, W}
)

// Write is one mutation of a spatial graph: the paper's dynamic setting
// (Section 5.2.3) is a stream of them. The same value travels from the
// serving engine's door through the write-ahead log, the replication stream
// and the standing-query layer to the graph's own journal. A check-in moves
// V to Loc (W unused); an edge write names {V, W} (Loc unused).
type Write struct {
	Kind WriteKind
	V, W V
	Loc  geom.Point
}

// Check reports whether w can be applied to a graph of n vertices: a known
// kind, every named vertex in [0, n), and a check-in's coordinates finite.
// A self-loop passes; applying it changes nothing.
func (w Write) Check(n int) error {
	switch w.Kind {
	case WriteCheckin:
		if w.V < 0 || int(w.V) >= n {
			return fmt.Errorf("graph: check-in moves vertex %d, out of range [0,%d)", w.V, n)
		}
		if !geom.Finite(w.Loc.X) || !geom.Finite(w.Loc.Y) {
			return fmt.Errorf("graph: check-in of vertex %d to (%v, %v): coordinates must be finite", w.V, w.Loc.X, w.Loc.Y)
		}
	case WriteAddEdge, WriteRemoveEdge:
		if w.V < 0 || int(w.V) >= n || w.W < 0 || int(w.W) >= n {
			return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", w.V, w.W, n)
		}
	default:
		return fmt.Errorf("graph: unknown write kind %d", w.Kind)
	}
	return nil
}

// Apply checks w and applies it, reporting whether the graph changed: a
// check-in always does, an edge write only when it inserts an absent edge or
// deletes a present one. Like the mutators it wraps, it panics on a frozen
// graph.
func (g *Graph) Apply(w Write) (changed bool, err error) {
	if err := w.Check(g.n); err != nil {
		return false, err
	}
	switch w.Kind {
	case WriteCheckin:
		g.SetLoc(w.V, w.Loc)
		return true, nil
	case WriteAddEdge:
		return g.AddEdge(w.V, w.W), nil
	default:
		return g.RemoveEdge(w.V, w.W), nil
	}
}
