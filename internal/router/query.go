package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

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

func (e *legFailure) Error() string { return fmt.Sprintf("shard %d: %v", e.shard, e.err) }
func (e *legFailure) Unwrap() error { return e.err }

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
	resp, _, err := rt.routeGathered(ctx, cq, false)
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
	// The template fails the whole batch with one 400, exactly like the
	// single server.
	template, ok := httpapi.BatchTemplate(w, r, &req, rt.validateQuery)
	if !ok {
		return
	}
	ctx, cancel := rt.requestCtx(r)
	defer cancel()
	workers := min(httpapi.BatchFanOut(&req), len(req.Queries))
	items := make([]wire.BatchItem, len(req.Queries))
	deadlined := make([]bool, len(req.Queries))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				items[i] = wire.BatchItem{Q: req.Queries[i].Q, K: req.Queries[i].K}
				v, err := httpapi.QueryVertex(items[i].Q)
				cq := template
				cq.Q, cq.K = v, items[i].K
				if err == nil {
					err = rt.validateQuery(cq)
				}
				if err != nil {
					items[i].Error = err.Error()
					continue
				}
				resp, _, err := rt.routeGathered(ctx, cq, false)
				if err != nil {
					items[i].Error = routeErrorMessage(err)
					deadlined[i] = isDeadline(err)
					continue
				}
				items[i].Members = resp.Members
				items[i].MCC = resp.MCC
			}
		}()
	}
	for i := range req.Queries {
		work <- i
	}
	close(work)
	wg.Wait()
	// A deadline that actually cut queries short fails the whole batch with
	// 503, mirroring the single server's status-keyed behavior.
	for i, d := range deadlined {
		if d {
			httpapi.WriteError(w, r, http.StatusServiceUnavailable, wire.CodeDeadlineExceeded, "",
				"batch deadline exceeded: "+items[i].Error)
			return
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, wire.BatchResponse{Items: items})
}

// routeErrorMessage renders a routing error as a batch item's error string.
// Forwarded shard verdicts use the shard's own message, so item errors read
// the same as a single server's.
func routeErrorMessage(err error) string {
	var lf *legFailure
	if errors.As(err, &lf) {
		var apiErr *client.APIError
		if errors.As(lf.err, &apiErr) && apiErr.Status != http.StatusServiceUnavailable &&
			apiErr.Status != http.StatusTooManyRequests && apiErr.Message != "" {
			return apiErr.Message
		}
		return fmt.Sprintf("shard %d unavailable: %v", lf.shard, lf.err)
	}
	return err.Error()
}

// isDeadline reports whether a routing error is a deadline/cancellation —
// the condition that fails a whole batch.
func isDeadline(err error) bool {
	if errors.Is(err, core.ErrCanceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Code == wire.CodeDeadlineExceeded
}
