package core

import (
	"fmt"

	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
)

// Dynamic topology. A Searcher precomputes its structure decomposition, so
// mutating the graph's edge set out from under it (graph.AddEdge /
// graph.RemoveEdge directly) would leave stale core numbers behind. Writes
// therefore go through the Searcher: Apply mutates the graph AND, for an
// edge write, incrementally repairs the shared core decomposition
// (kcore.Maintainer), keeping maintenance cost proportional to the affected
// community instead of O(m).
//
// The decomposition slice is shared by every clone, so applying an update
// through any one searcher refreshes all workers drawn from the same pool;
// candidate caches check the journaled writes against their views and
// communities on the next query and keep what the writes left intact
// (repair.go). Like a check-in, updates must be serialized with ALL queries
// on ALL searchers over the graph.

// Apply checks w against the graph and applies it, reporting whether the
// graph changed (see graph.Graph.Apply). A check-in goes to the graph; an
// edge write also updates the shared k-core decomposition.
//
// Edge writes are supported for the k-core and k-clique structure metrics.
// The k-truss metric precomputes truss numbers that have no incremental
// maintenance here, so k-truss searchers reject them rather than serve stale
// results.
func (s *Searcher) Apply(w graph.Write) (bool, error) {
	if w.Kind == graph.WriteCheckin {
		return s.g.Apply(w)
	}
	if err := w.Check(s.g.NumVertices()); err != nil {
		return false, err
	}
	if s.structure == StructureKTruss {
		return false, fmt.Errorf("core: dynamic topology is not supported with the %s metric", s.structure)
	}
	if w.Kind == graph.WriteAddEdge {
		return s.maintainer().InsertEdge(w.V, w.W), nil
	}
	return s.maintainer().RemoveEdge(w.V, w.W), nil
}

// maintainer lazily wraps the searcher's graph and shared core slice.
func (s *Searcher) maintainer() *kcore.Maintainer {
	if s.maint == nil {
		s.maint = kcore.NewMaintainer(s.g, s.cores)
	}
	return s.maint
}
