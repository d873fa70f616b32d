package httpapi

import (
	"context"
	"errors"
	"net/http"
	"runtime"

	"sacsearch/internal/batch"
	"sacsearch/internal/core"
	"sacsearch/internal/wire"
)

// ServeBatch is the one POST /v1/batch body, for the server and the router
// alike. validate is the front-end's whole-query check (a searcher's
// ValidateQuery, the router's against its shard map); answer is the function
// that answers the front-end's /v1/query, and every item that passes
// validation is answered by it through batch.Fan: each distinct (q, k) once,
// at most batchFanOut(req) at a time, none dispatched once r's context has
// fired. The caller puts its request deadline on r's context.
//
// A batch whose deadline cut items short is a server-side timeout, like a
// single query's: the whole batch is 503 deadline_exceeded, quoting the
// first such item in input order, rather than a 200 with error items, so
// status-keyed clients and monitors see it. The signal is the items
// themselves, not the context — a deadline that fires in the instant after
// the last item finished does not throw a complete batch away. Any other
// item failure is that item's error string inside a 200.
func ServeBatch(w http.ResponseWriter, r *http.Request, req *wire.BatchRequest,
	validate func(core.Query) error, answer func(context.Context, core.Query) (*wire.Result, error)) {
	template, ok := batchTemplate(w, r, req, validate)
	if !ok {
		return
	}
	// An item whose q no vertex id can hold, or that validation refuses, is
	// answered here; queries[j] is the item at resp.Items[at[j]].
	resp := wire.BatchResponse{Items: make([]wire.BatchItem, len(req.Queries))}
	queries := make([]batch.Query, 0, len(req.Queries))
	at := make([]int, 0, len(req.Queries))
	for i, it := range req.Queries {
		resp.Items[i] = wire.BatchItem{Q: it.Q, K: it.K}
		v, err := QueryVertex(it.Q)
		if err == nil {
			cq := template
			cq.Q, cq.K = v, it.K
			err = validate(cq)
		}
		if err != nil {
			resp.Items[i].Error = err.Error()
			continue
		}
		queries = append(queries, batch.Query{Q: v, K: it.K})
		at = append(at, i)
	}
	outs := batch.Fan(r.Context(), queries, batchFanOut(req), func(ctx context.Context, q batch.Query) (*wire.Result, error) {
		cq := template
		cq.Q, cq.K = q.Q, q.K
		return answer(ctx, cq)
	})
	for j, o := range outs {
		out := &resp.Items[at[j]]
		switch {
		case o.Err == nil:
			out.Members, out.MCC = o.Result.Members, o.Result.MCC
		case errors.Is(o.Err, core.ErrCanceled) || errors.Is(o.Err, context.DeadlineExceeded):
			// Partial results are discarded; the client's retry re-runs the
			// batch.
			WriteError(w, r, http.StatusServiceUnavailable, wire.CodeDeadlineExceeded, "",
				"batch deadline exceeded: "+o.Err.Error())
			return
		default:
			out.Error = o.Err.Error()
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// batchFanOut is the number of workers a batch runs on: the request's
// "workers", clamped to GOMAXPROCS — which is also the default when the field
// is absent, so a client can only lower the fan-out. The field arrives from
// outside and every worker holds a searcher with its own caches (a cold one
// per cross-shard query on the router), so it must not size anything
// unclamped.
func batchFanOut(req *wire.BatchRequest) int {
	if limit := runtime.GOMAXPROCS(0); req.Workers <= 0 || req.Workers > limit {
		return limit
	}
	return req.Workers
}

// batchTemplate checks everything about the batch that is not per item and
// returns the query each item completes with its own q and k. Validating the
// template up front through the registry fails the whole batch with one 400
// (empty batch, bad algorithm name, out-of-range epsilon, a structure metric
// the front-end does not serve) before any worker runs, instead of a 200
// whose every item errored; per-item problems — unknown vertex, k < 1 —
// surface as item errors. validate is used for the structure assertion. On a
// violation the error envelope is written and ok is false.
func batchTemplate(w http.ResponseWriter, r *http.Request, req *wire.BatchRequest, validate func(core.Query) error) (template core.Query, ok bool) {
	if len(req.Queries) == 0 {
		WriteError(w, r, http.StatusBadRequest, core.ErrCodeInvalidQuery, "queries", "empty batch")
		return template, false
	}
	template = core.Query{
		Algo:      req.Algo,
		EpsF:      req.EpsF,
		EpsA:      req.EpsA,
		Theta:     req.Theta,
		Structure: req.Structure,
	}
	_, err := core.ValidateParams(template)
	if err == nil && template.Structure != "" {
		probe := template
		probe.Q, probe.K = 0, 1
		err = validate(probe)
	}
	if err != nil {
		WriteQueryError(w, r, err)
		return template, false
	}
	return template, true
}
