package core

import (
	"fmt"

	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
)

// Dynamic topology. A Searcher precomputes its structure decomposition, so
// mutating the graph's edge set out from under it (graph.AddEdge /
// graph.RemoveEdge directly) would leave stale core numbers behind. Edge
// updates therefore go through the Searcher: ApplyEdgeInsert and
// ApplyEdgeRemove mutate the graph AND incrementally repair the shared core
// decomposition (kcore.Maintainer), keeping maintenance cost proportional to
// the affected community instead of O(m).
//
// The decomposition slice is shared by every clone, so applying an update
// through any one searcher refreshes all workers drawn from the same pool;
// candidate caches check the journaled edge ops against their communities on
// the next query and keep what the ops left intact (repair.go). Like SetLoc,
// updates must be serialized with ALL queries on ALL searchers over the
// graph.

// ApplyEdgeInsert inserts the undirected edge {u, v} and incrementally
// updates the shared k-core decomposition. It reports whether the edge set
// changed (false for self-loops and already-present edges).
//
// Supported for the k-core and k-clique structure metrics. The k-truss
// metric precomputes truss numbers that have no incremental maintenance
// here, so k-truss searchers reject updates rather than serve stale results.
func (s *Searcher) ApplyEdgeInsert(u, v graph.V) (bool, error) {
	if err := s.checkEdgeUpdate(u, v); err != nil {
		return false, err
	}
	return s.maintainer().InsertEdge(u, v), nil
}

// ApplyEdgeRemove deletes the undirected edge {u, v} and incrementally
// updates the shared k-core decomposition. It reports whether the edge
// existed. Same structure-metric restrictions as ApplyEdgeInsert.
func (s *Searcher) ApplyEdgeRemove(u, v graph.V) (bool, error) {
	if err := s.checkEdgeUpdate(u, v); err != nil {
		return false, err
	}
	return s.maintainer().RemoveEdge(u, v), nil
}

// checkEdgeUpdate validates endpoints and the structure metric.
func (s *Searcher) checkEdgeUpdate(u, v graph.V) error {
	n := s.g.NumVertices()
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return fmt.Errorf("core: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if s.structure == StructureKTruss {
		return fmt.Errorf("core: dynamic topology is not supported with the %s metric", s.structure)
	}
	return nil
}

// maintainer lazily wraps the searcher's graph and shared core slice.
func (s *Searcher) maintainer() *kcore.Maintainer {
	if s.maint == nil {
		s.maint = kcore.NewMaintainer(s.g, s.cores)
	}
	return s.maint
}
