package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"sacsearch/client"
	"sacsearch/internal/core"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/wire"
)

// legFailure marks an error as coming from one shard's leg of a fan-out,
// so the handler layer can name the shard in its envelope.
type legFailure struct {
	shard int
	err   error
}

// Error renders the failure as a batch item reports it. A forwarded shard
// verdict uses the shard's own message, so item errors read the same as a
// single server's; anything else names the shard as unavailable.
func (e *legFailure) Error() string {
	var apiErr *client.APIError
	if errors.As(e.err, &apiErr) && apiErr.Status != http.StatusServiceUnavailable &&
		apiErr.Status != http.StatusTooManyRequests && apiErr.Message != "" {
		return apiErr.Message
	}
	return fmt.Sprintf("shard %d unavailable: %v", e.shard, e.err)
}

func (e *legFailure) Unwrap() error { return e.err }

// Is reports a shard's deadline_exceeded answer as core.ErrCanceled: the
// query was cut short by a deadline, as a local one would have been.
func (e *legFailure) Is(target error) bool {
	var apiErr *client.APIError
	return target == core.ErrCanceled && errors.As(e.err, &apiErr) && apiErr.Code == wire.CodeDeadlineExceeded
}

// writeRouteError maps a routing error onto the wire: leg failures through
// writeLegError (forward or shard_unavailable), everything else — errors
// from a router-local assembly run — through the server's own core-error
// mapping.
func (rt *Router) writeRouteError(w http.ResponseWriter, r *http.Request, err error) {
	var lf *legFailure
	if errors.As(err, &lf) {
		rt.writeLegError(w, r, lf.shard, lf.err)
		return
	}
	httpapi.WriteQueryError(w, r, err)
}

// validateQuery is the searcher's own validation run against the shard map,
// so a request rejected here gets the envelope a single server would send.
// Sharded topologies serve the k-core metric (the certificate and assembly
// are k-core constructions), so any other structure is a mismatch.
func (rt *Router) validateQuery(cq core.Query) error {
	return core.ValidateQuery(cq, rt.m.N, core.StructureKCore)
}

// route answers one validated query, for /v1/query and every /v1/batch item
// alike.
func (rt *Router) route(ctx context.Context, cq core.Query) (*wire.Result, error) {
	resp, _, err := rt.routeGathered(ctx, cq, false)
	return resp, err
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.Query
	if !rt.api.DecodeJSON(w, r, &req) {
		return
	}
	cq, err := httpapi.CoreQuery(req)
	if err == nil {
		err = rt.validateQuery(cq)
	}
	if err != nil {
		httpapi.WriteQueryError(w, r, err)
		return
	}
	ctx, cancel := rt.requestCtx(r)
	defer cancel()
	resp, err := rt.route(ctx, cq)
	if err != nil {
		rt.writeRouteError(w, r, err)
		return
	}
	httpapi.WriteResult(w, r, resp)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.BatchRequest
	if !rt.api.DecodeJSON(w, r, &req) {
		return
	}
	ctx, cancel := rt.requestCtx(r)
	defer cancel()
	httpapi.ServeBatch(w, r.WithContext(ctx), &req, rt.validateQuery, rt.route)
}
