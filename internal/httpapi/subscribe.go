package httpapi

import (
	"errors"
	"fmt"
	"net/http"

	"sacsearch/internal/core"
	"sacsearch/internal/subscribe"
	"sacsearch/internal/wire"
)

// Standing queries: GET /v1/subscribe registers (or resumes) a standing SAC
// query and streams its result as Server-Sent Events — an init frame with
// the full current community, then a delta frame whenever a change reshapes
// it. See the README's "Standing queries" section for the wire contract.

// Subscriptions is the standing-query table ServeSubscribe works against: a
// server's subscribe.Manager, or the router's dispatcher over the shard
// feeds.
type Subscriptions interface {
	Register(id string, q core.Query) (*subscribe.Sub, error)
	Hub() *subscribe.Hub
}

// parseSubscribeQuery decodes the standing query from /v1/subscribe URL
// parameters — the GET-shaped twin of a POST /v1/query body, through the same
// conversion, so numeric failures surface as the envelopes a malformed POST
// body would get.
func parseSubscribeQuery(r *http.Request) (core.Query, error) {
	wq, bad := wire.ParseQuery(r.URL.Query())
	if bad != nil {
		return core.Query{}, &core.QueryError{Code: bad.Code, Field: bad.Field, Reason: bad.Reason}
	}
	return CoreQuery(wq)
}

// ServeSubscribe serves GET /v1/subscribe against subs. Registration and
// resume share the route: a request whose id matches a live subscription
// attaches to it (replaying per Last-Event-ID); an unknown id with a
// Last-Event-ID is a 404 unknown_subscription (the resume state is gone —
// re-subscribe fresh); anything else registers a new standing query.
// validate is the front-end's full query validation (vertex range, k,
// structure, params) — against the current snapshot on a server, against
// the shard map on a router.
func (c *Core) ServeSubscribe(w http.ResponseWriter, r *http.Request, subs Subscriptions, validate func(core.Query) error) {
	cq, err := parseSubscribeQuery(r)
	if err == nil {
		err = validate(cq)
	}
	if err != nil {
		WriteQueryError(w, r, err)
		return
	}
	// Canonicalize the algorithm name so SameQuery and event payloads
	// compare like with like.
	spec, _ := core.LookupAlgo(cq.Algo)
	cq.Algo = spec.Name
	raw := r.URL.Query().Get("id")
	id := sanitizeRequestID(raw)
	if raw != "" && id == "" {
		WriteError(w, r, http.StatusBadRequest, wire.CodeInvalidArgument, "id",
			fmt.Sprintf("malformed subscription id %q", raw))
		return
	}
	lastID, hasLast := subscribe.ParseLastEventID(r)
	var sub *subscribe.Sub
	if id != "" {
		if existing, found := subs.Hub().Get(id); found {
			if !subscribe.SameQuery(existing.Query, cq) {
				WriteError(w, r, http.StatusBadRequest, wire.CodeInvalidArgument, "id",
					fmt.Sprintf("subscription %q is bound to a different query", id))
				return
			}
			sub = existing
		}
	} else {
		id = "sub-" + c.newRequestID()
	}
	if sub == nil {
		if hasLast {
			WriteError(w, r, http.StatusNotFound, wire.CodeUnknownSubscription, "id",
				fmt.Sprintf("unknown subscription %q: resume window expired, subscribe fresh", id))
			return
		}
		sub, err = subs.Register(id, cq)
	}
	var st *subscribe.Stream
	var replay []subscribe.Event
	if err == nil {
		st, replay, err = sub.Attach(lastID, hasLast)
	}
	switch {
	case err == nil:
	case errors.Is(err, subscribe.ErrLimit):
		w.Header().Set("Retry-After", "1")
		WriteError(w, r, http.StatusTooManyRequests, wire.CodeSubscriptionLimit, "",
			fmt.Sprintf("subscription limit reached (%d active)", subs.Hub().Active()))
		return
	default: // ErrClosed (draining), or a lost Register/Register race
		w.Header().Set("Retry-After", "1")
		WriteError(w, r, http.StatusServiceUnavailable, wire.CodeNotReady, "",
			"subscriptions unavailable: "+err.Error())
		return
	}
	defer sub.Detach(st)
	subscribe.ServeSSE(w, r, st, replay)
}
