package httpapi

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/wire"
)

// Ids are int64 on the wire and graph.V (32 bits) in the engine; vertex is the
// only place one becomes the other, and each route maps its refusal onto the
// envelope that route gives any id naming no vertex: QueryVertex for a
// query's q, KnownVertex everywhere else.

// vertex narrows a wire id to the engine's graph.V; ok is false when no
// graph.V holds it, so a value the conversion would wrap into some other
// vertex is refused, not served.
func vertex(id int64) (v graph.V, ok bool) {
	v = graph.V(id)
	return v, int64(v) == id
}

// QueryVertex narrows a query's q: the refusal is the 400 invalid_query
// on q that validation gives a vertex out of range, quoting the id as sent.
func QueryVertex(id int64) (graph.V, error) {
	v, ok := vertex(id)
	if !ok {
		return 0, &core.QueryError{Code: core.ErrCodeInvalidQuery, Field: "q",
			Reason: fmt.Sprintf("q \"%d\" out of range (32-bit integer)", id)}
	}
	return v, nil
}

// maxTimeoutMillis is the largest timeoutMillis a time.Duration can hold.
const maxTimeoutMillis = math.MaxInt64 / int64(time.Millisecond)

// CoreQuery converts a wire query to the engine's. It is the one place a
// front-end turns timeoutMillis into a Duration, so it is where a value the
// multiplication would wrap — into a microsecond deadline, a negative one, or
// none at all — is refused.
func CoreQuery(q wire.Query) (core.Query, error) {
	v, err := QueryVertex(q.Q)
	if err != nil {
		return core.Query{}, err
	}
	if q.TimeoutMillis > maxTimeoutMillis || q.TimeoutMillis < -maxTimeoutMillis {
		return core.Query{}, &core.QueryError{Code: core.ErrCodeInvalidQuery, Field: "timeoutMillis",
			Reason: fmt.Sprintf("timeoutMillis = %d out of range (at most %d)", q.TimeoutMillis, maxTimeoutMillis)}
	}
	return core.Query{
		Algo:      q.Algo,
		Q:         v,
		K:         q.K,
		EpsF:      q.EpsF,
		EpsA:      q.EpsA,
		Theta:     q.Theta,
		Structure: q.Structure,
		Timeout:   time.Duration(q.TimeoutMillis) * time.Millisecond,
	}, nil
}

// WireQuery is CoreQuery's inverse, for a caller sending an engine query over
// the wire (a router's shard leg, sacquery -server).
func WireQuery(q core.Query) wire.Query {
	return wire.Query{
		Q:             int64(q.Q),
		K:             q.K,
		Algo:          q.Algo,
		EpsF:          q.EpsF,
		EpsA:          q.EpsA,
		Theta:         q.Theta,
		Structure:     q.Structure,
		TimeoutMillis: q.Timeout.Milliseconds(),
	}
}

// Algorithms renders the registry as /v1/algorithms serves it. It is
// generated from core.Algorithms, so the schema cannot drift from what
// /v1/query accepts; an unbounded Max is omitted rather than emitted as +Inf
// (which JSON cannot express), and Default appears only for optional
// parameters.
func Algorithms() []wire.AlgoInfo {
	specs := core.Algorithms()
	out := make([]wire.AlgoInfo, len(specs))
	for i, spec := range specs {
		out[i] = wire.AlgoInfo{Name: spec.Name, Aliases: spec.Aliases, Ratio: spec.Ratio, Doc: spec.Doc}
		for _, p := range spec.Params {
			wp := wire.AlgoParam{Name: p.Name, Type: "float", Doc: p.Doc, Required: p.Required,
				Min: p.Min, MinExcl: p.MinExcl, MaxExcl: p.MaxExcl}
			if !p.Required {
				wp.Default = &p.Default
			}
			if !math.IsInf(p.Max, 1) {
				wp.Max = &p.Max
			}
			out[i].Params = append(out[i].Params, wp)
		}
	}
	return out
}

// KnownVertex narrows id against a graph of n vertices — the single server's,
// or the whole topology's on a router — and on a miss writes the 404
// unknown_vertex envelope naming field.
func KnownVertex(w http.ResponseWriter, r *http.Request, id int64, n int, field string) (graph.V, bool) {
	v, ok := vertex(id)
	if !ok || v < 0 || int(v) >= n {
		WriteError(w, r, http.StatusNotFound, wire.CodeUnknownVertex, field, fmt.Sprintf("unknown vertex %d", id))
		return 0, false
	}
	return v, true
}

// CheckinVertex validates a check-in against a graph of n vertices and
// returns the vertex it moves; on a violation it writes the error envelope
// and returns ok false.
func CheckinVertex(w http.ResponseWriter, r *http.Request, req *wire.CheckinRequest, n int) (graph.V, bool) {
	v, ok := KnownVertex(w, r, req.V, n, "v")
	if !ok {
		return 0, false
	}
	// Reject non-finite coordinates before they reach the graph: NaN poisons
	// every distance sort it touches and ±Inf breaks geom.MCC, silently, on
	// queries that may run long after this request returned 200.
	if !geom.Finite(req.X) || !geom.Finite(req.Y) {
		WriteError(w, r, http.StatusBadRequest, wire.CodeInvalidArgument, "x",
			fmt.Sprintf("coordinates (%v, %v) must be finite", req.X, req.Y))
		return 0, false
	}
	return v, true
}

// PathVertex reads the {id} segment of /v1/vertex/{id} against a graph of n
// vertices. A malformed id is the caller's syntax error (400); a well-formed
// id naming no vertex is a lookup miss (404) — conflating them hides client
// bugs behind retry loops. On either it writes the error envelope and
// returns ok false.
func PathVertex(w http.ResponseWriter, r *http.Request, n int) (graph.V, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, wire.CodeInvalidArgument, "id",
			fmt.Sprintf("malformed vertex id %q", r.PathValue("id")))
		return 0, false
	}
	return KnownVertex(w, r, id, n, "id")
}

// EdgeEndpoints validates an edge request against a graph of n vertices and
// decodes Op. On a violation it writes the error envelope and returns ok
// false.
func EdgeEndpoints(w http.ResponseWriter, r *http.Request, req *wire.EdgeRequest, n int) (u, v graph.V, insert, ok bool) {
	if u, ok = KnownVertex(w, r, req.U, n, ""); !ok {
		return 0, 0, false, false
	}
	if v, ok = KnownVertex(w, r, req.V, n, ""); !ok {
		return 0, 0, false, false
	}
	if u == v {
		WriteError(w, r, http.StatusBadRequest, wire.CodeInvalidArgument, "",
			fmt.Sprintf("self-loop (%d,%d) rejected", u, v))
		return 0, 0, false, false
	}
	switch req.Op {
	case "insert":
		return u, v, true, true
	case "delete":
		return u, v, false, true
	}
	WriteError(w, r, http.StatusBadRequest, wire.CodeInvalidArgument, "op",
		fmt.Sprintf("unknown op %q (want insert or delete)", req.Op))
	return 0, 0, false, false
}
