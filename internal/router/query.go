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

// shardReader is a shard's endpoint set (client.Set) or one of its endpoints.
type shardReader interface {
	ShardSearch(ctx context.Context, q client.Query) (*client.ShardSearchResult, error)
	ShardExpand(ctx context.Context, k int, seeds []int64) (*client.ShardExpansion, error)
}

// anyEndpoint is the read path of /v1/query and /v1/batch.
func (rt *Router) anyEndpoint(s int) shardReader { return rt.sets[s] }

// route answers one validated query — /v1/query, each /v1/batch item and
// each standing-query evaluation — whatever its algorithm: owner-first
// through the certificate, else by cross-shard assembly. at picks the
// endpoint each shard's leg reads. It also returns the gathered vertex ids
// of an assembled answer, which a standing query keeps (subscribe.go); they
// are nil for a certified answer.
func (rt *Router) route(ctx context.Context, cq core.Query, at func(s int) shardReader) (*wire.Result, map[int64]struct{}, error) {
	owner := rt.m.OwnerOf(cq.Q)
	lctx, span := rt.leg(ctx, "search", owner)
	verdict, err := at(owner).ShardSearch(lctx, httpapi.WireQuery(cq))
	span.End()
	if err != nil {
		return nil, nil, &legFailure{owner, err}
	}
	if !verdict.Contained {
		rt.queryPath.With("assembled").Inc()
		return rt.routeAssembled(ctx, cq, owner, at)
	}
	rt.queryPath.With("certified").Inc()
	switch {
	case verdict.NoCommunity:
		return nil, nil, core.ErrNoCommunity
	case verdict.Result == nil:
		return nil, nil, &legFailure{owner, errors.New("contained verdict carried no result")}
	}
	return verdict.Result, nil, nil
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
	resp, _, err := rt.route(ctx, cq, rt.anyEndpoint)
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
	httpapi.ServeBatch(w, r.WithContext(ctx), &req, rt.validateQuery, func(ctx context.Context, cq core.Query) (*wire.Result, error) {
		resp, _, err := rt.route(ctx, cq, rt.anyEndpoint)
		return resp, err
	})
}
