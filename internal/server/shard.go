package server

import (
	"fmt"
	"net/http"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/shard"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/wire"
)

// The /v1/shard/* protocol is the router-facing half of the sharded
// topology. A shard never answers a /v1/shard/search unless it can prove
// the answer equals the single-engine one (the optimistic-peel certificate,
// internal/shard); otherwise it reports contained=false and the router
// assembles the global candidate set via /v1/shard/expand across shards.
// /v1/shard/range serves the θ-SAC path: every vertex this shard owns
// inside a disk, with authoritative location and full adjacency.
//
// All three POST endpoints serve from one pinned snapshot per request, so a
// reply is internally consistent; replicas of a shard serve them too (the
// usual staleness gate applies).

// certCache pins one certificate to the engine lineage and topology epoch
// it was built for. The engine pointer matters on replicas, which swap
// engines on re-sync (epochs could alias across lineages).
type certCache struct {
	eng       *snapshot.Engine
	topoEpoch uint64
	cert      *shard.Cert
}

// certFor returns the exactness certificate for snap, rebuilding it when
// the topology epoch moved. Location churn never invalidates it — the peel
// is purely topological. A concurrent rebuild race wastes one build, never
// correctness: certificates for the same topology are interchangeable.
func (s *Server) certFor(eng *snapshot.Engine, snap *snapshot.Snap) *shard.Cert {
	te := snap.TopoEpoch()
	if c := s.cert.Load(); c != nil && c.eng == eng && c.topoEpoch == te {
		return c.cert
	}
	c := &certCache{eng: eng, topoEpoch: te, cert: shard.NewCert(snap.Graph(), s.cfg.Shard)}
	s.cert.Store(c)
	return c.cert
}

func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	eng, ok := s.readEngine(w, r)
	if !ok {
		return
	}
	snap := eng.Current()
	g := snap.Graph()
	owned, ghosts := s.cfg.Shard.Counts(g)
	httpapi.WriteJSON(w, http.StatusOK, wire.ShardInfo{
		ShardID:     s.cfg.Shard.ID,
		Shards:      s.cfg.Shard.Map.Shards,
		MapChecksum: s.cfg.Shard.Map.Checksum(),
		Vertices:    g.NumVertices(),
		Owned:       owned,
		Ghosts:      ghosts,
		Edges:       snap.Edges(),
		Role:        s.role(),
	})
}

// handleShardSearch answers a query locally if and only if the certificate
// holds. Validation runs exactly as /v1/query's would, so a router
// forwarding the error envelope is indistinguishable from a single server.
func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	var req wire.Query
	if !s.api.DecodeJSON(w, r, &req) {
		return
	}
	eng, ok := s.readEngine(w, r)
	if !ok {
		return
	}
	snap := eng.Current()
	q, err := httpapi.CoreQuery(req)
	if err == nil {
		err = validate(snap, q)
	}
	if err != nil {
		httpapi.WriteQueryError(w, r, err)
		return
	}
	if !s.cfg.Shard.Owns(q.Q) {
		httpapi.WriteError(w, r, http.StatusBadRequest, wire.CodeWrongShard, "q",
			fmt.Sprintf("vertex %d is owned by shard %d, not shard %d",
				q.Q, s.cfg.Shard.Map.OwnerOf(q.Q), s.cfg.Shard.ID))
		return
	}
	// The certificate covers the k-core candidate construction; θ-SAC scans
	// a fixed disk instead and is always assembled router-side.
	if spec, _ := core.LookupAlgo(req.Algo); spec != nil && spec.Name == "theta" {
		httpapi.WriteJSON(w, http.StatusOK, wire.ShardSearchResult{Contained: false})
		return
	}
	alive, certified := s.certFor(eng, snap).Contained(q.Q, q.K)
	if !alive {
		// q has fewer than k supporting neighbors even if every unseen edge
		// survives: ErrNoCommunity is the exact global answer.
		httpapi.WriteJSON(w, http.StatusOK, wire.ShardSearchResult{Contained: true, NoCommunity: true})
		return
	}
	if !certified {
		httpapi.WriteJSON(w, http.StatusOK, wire.ShardSearchResult{Contained: false})
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	res, err := s.search(ctx, snap, q, 0)
	if err != nil {
		httpapi.WriteQueryError(w, r, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, wire.ShardSearchResult{Contained: true, Result: res})
}

func (s *Server) handleShardExpand(w http.ResponseWriter, r *http.Request) {
	var req wire.ShardExpandRequest
	if !s.api.DecodeJSON(w, r, &req) {
		return
	}
	if req.K < 1 {
		httpapi.WriteError(w, r, http.StatusBadRequest, wire.CodeInvalidArgument, "k",
			fmt.Sprintf("k must be >= 1, got %d", req.K))
		return
	}
	eng, ok := s.readEngine(w, r)
	if !ok {
		return
	}
	snap := eng.Current()
	g := snap.Graph()
	seeds := make([]graph.V, len(req.Seeds))
	for i, id := range req.Seeds {
		v, ok := httpapi.KnownVertex(w, r, id, g.NumVertices(), "seeds")
		if !ok {
			return
		}
		seeds[i] = v
		if !s.cfg.Shard.Owns(v) {
			httpapi.WriteError(w, r, http.StatusBadRequest, wire.CodeWrongShard, "seeds",
				fmt.Sprintf("seed %d is owned by shard %d, not shard %d",
					v, s.cfg.Shard.Map.OwnerOf(v), s.cfg.Shard.ID))
			return
		}
	}
	members, frontier := s.certFor(eng, snap).Expand(seeds, req.K)
	resp := wire.ShardExpansion{Members: make([]wire.ShardVertex, len(members)), Frontier: graph.IDs(frontier)}
	for i, v := range members {
		resp.Members[i] = shardVertex(g, v)
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleShardRange(w http.ResponseWriter, r *http.Request) {
	var req wire.ShardRangeRequest
	if !s.api.DecodeJSON(w, r, &req) {
		return
	}
	if !geom.Finite(req.X) || !geom.Finite(req.Y) || !geom.Finite(req.R) || req.R < 0 {
		httpapi.WriteError(w, r, http.StatusBadRequest, wire.CodeInvalidArgument, "r",
			fmt.Sprintf("disk (%v, %v, r=%v) must be finite with r >= 0", req.X, req.Y, req.R))
		return
	}
	eng, ok := s.readEngine(w, r)
	if !ok {
		return
	}
	snap := eng.Current()
	g := snap.Graph()
	circle := geom.Circle{C: geom.Point{X: req.X, Y: req.Y}, R: req.R}
	var resp wire.ShardRangeResponse
	// Same closed-disk predicate (geom.Eps tolerance) as θ-SAC's own scan,
	// so the assembled membership matches a single-engine run bit for bit.
	for v := 0; v < g.NumVertices(); v++ {
		if s.cfg.Shard.Owns(graph.V(v)) && circle.Contains(g.Loc(graph.V(v))) {
			resp.Members = append(resp.Members, shardVertex(g, graph.V(v)))
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
}

// shardVertex snapshots one owned vertex for the wire: location plus full
// adjacency (complete by the subgraph invariant — every edge of an owned
// vertex is materialized on its owner).
func shardVertex(g *graph.Graph, v graph.V) wire.ShardVertex {
	loc := g.Loc(v)
	out := wire.ShardVertex{V: int64(v), X: loc.X, Y: loc.Y}
	if adj := g.Neighbors(v); len(adj) > 0 {
		out.Adj = graph.IDs(adj)
	}
	return out
}
