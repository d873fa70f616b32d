// Package router is the scatter-gather front of a sharded sacsearch
// topology. It speaks the same /v1 contract as a single sacserver — same
// routes, same wire shapes, same error envelope — so clients (including the
// typed client package) cannot tell a router from one big server, except
// through /v1/health's topology section.
//
// The graph is split by the deterministic spatial partitioner
// (internal/shard); every shard runs the stock engine stack over its
// subgraph (full global id space, edges with at least one owned endpoint,
// frozen ghost copies of foreign endpoints). The router owns the only copy
// of the shard map and dispatches:
//
//   - Queries go to the shard owning q first (/v1/shard/search). The shard
//     answers alone iff its optimistic-peel certificate proves its answer
//     equals the whole-graph one; otherwise the router gathers the global
//     candidate set across shards (the /v1/shard/expand closure), assembles
//     the induced subgraph, and runs the algorithm itself. Every algorithm,
//     θ-SAC included, takes this one path. Either way the answer's members,
//     circle and radius are exactly the single-engine ones.
//   - Check-ins go to the owner of the vertex; an edge write fans to both
//     endpoints' owners (each materializes every edge touching a vertex it
//     owns). Edge ops are idempotent, so a partial cross-shard failure is
//     healed by the client's retry.
//   - /v1/health and /v1/ready aggregate the shards': ready means every
//     shard answered /v1/shard/info with the router's own map checksum.
//
// A shard leg that fails outright (transport error, or every endpoint of
// the shard shedding 503) surfaces as a 503 shard_unavailable envelope
// naming the shard; deterministic shard verdicts (validation errors,
// no_community) are forwarded verbatim.
//
// Cross-shard reads are NOT snapshot-isolated across shards: each leg pins
// one snapshot on its shard, but concurrent writes may land between legs.
// Quiesced states — and anything a single shard certifies — are exact.
package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sacsearch/client"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/shard"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/version"
	"sacsearch/internal/wire"
)

// Config assembles a Router.
type Config struct {
	// Map is the shard-map artifact the topology was cut with.
	Map *shard.Map
	// Shards lists each shard's endpoint URLs, indexed by shard id, leader
	// first (replicas after it serve reads when the leader sheds).
	Shards [][]string
	// QueryTimeout bounds one routed request end to end (all legs plus any
	// local assembly run). Default 15s, matching the server's.
	QueryTimeout time.Duration
	// MaxBodyBytes caps every POST body. Default 1 MiB.
	MaxBodyBytes int64
	// ClientOptions apply to every per-endpoint client (test doubles,
	// retry tuning).
	ClientOptions []client.Option
	// Logger receives router-level structured logs. Default slog.Default().
	Logger *slog.Logger
	// Metrics is the registry router instruments register on, served on
	// GET /metrics. Nil disables metrics entirely (all instruments no-op).
	Metrics *telemetry.Registry
	// SlowQueryThreshold logs any request slower than this at Warn with the
	// full span tree attached. 0 disables.
	SlowQueryThreshold time.Duration
	// TraceHook, when set, receives every finished root span (tests).
	TraceHook func(*telemetry.Span)
	// MaxSubscriptions caps concurrently live standing queries held by this
	// router (GET /v1/subscribe). Default 1024.
	MaxSubscriptions int
}

func (c Config) queryTimeout() time.Duration {
	if c.QueryTimeout > 0 {
		return c.QueryTimeout
	}
	return 15 * time.Second
}

// Router is the /v1 front of a sharded topology. It is safe for concurrent
// use and holds no graph state beyond the shard map — all data lives on the
// shards.
type Router struct {
	cfg      Config
	m        *shard.Map
	checksum uint32
	sets     []*client.Set // one endpoint group per shard
	api      httpapi.Core  // request middleware, envelope, /v1/subscribe handler
	mux      *http.ServeMux
	// edges tracks the global undirected edge count as seen through this
	// router: the partition-time count plus every Changed mutation routed
	// here. Writes that bypass the router are not reflected.
	edges atomic.Int64
	start time.Time

	// legsTotal counts outbound shard calls by kind (search, expand, vertex,
	// checkin, edge, info, health).
	legsTotal *telemetry.CounterVec
	// queryPath counts how each routed query was answered: certified (one
	// shard proved its local answer global) or assembled (cross-shard k-core
	// closure).
	queryPath *telemetry.CounterVec
	// expandRounds counts frontier-expansion rounds across assembled queries.
	expandRounds *telemetry.Counter
	// subs drives router-held standing queries off the shards' publication
	// feeds (internal/router/subscribe.go).
	subs *routerSubs
}

// New builds a Router over the shard endpoint groups. It validates shapes
// only — shard reachability and map agreement are checked by /v1/ready (and
// CheckTopology), not at construction, so a router can boot before its
// shards do.
func New(cfg Config) (*Router, error) {
	if cfg.Map == nil {
		return nil, errors.New("router: Config.Map is required")
	}
	if len(cfg.Shards) != cfg.Map.Shards {
		return nil, fmt.Errorf("router: map has %d shards, config lists %d endpoint groups",
			cfg.Map.Shards, len(cfg.Shards))
	}
	rt := &Router{
		cfg:      cfg,
		m:        cfg.Map,
		checksum: cfg.Map.Checksum(),
		sets:     make([]*client.Set, len(cfg.Shards)),
		mux:      http.NewServeMux(),
		start:    time.Now(),
	}
	rt.api = httpapi.Core{
		IDPrefix:     "rtr-",
		Logger:       cfg.Logger,
		Metrics:      telemetry.NewHTTPMetrics(cfg.Metrics),
		SlowRequest:  cfg.SlowQueryThreshold,
		TraceHook:    cfg.TraceHook,
		MaxBodyBytes: cfg.MaxBodyBytes,
	}
	rt.legsTotal = cfg.Metrics.CounterVec("sac_router_legs_total",
		"Outbound shard calls issued by the router, by kind.", "kind")
	rt.queryPath = cfg.Metrics.CounterVec("sac_router_query_path_total",
		"Routed queries by answer path: certified or assembled.", "path")
	rt.expandRounds = cfg.Metrics.Counter("sac_router_expand_rounds_total",
		"Frontier-expansion rounds run across all assembled queries.")
	rt.edges.Store(int64(cfg.Map.Edges))
	for i, urls := range cfg.Shards {
		set, err := client.NewSet(urls, cfg.ClientOptions...)
		if err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", i, err)
		}
		rt.sets[i] = set
	}
	rt.mux.HandleFunc("GET /v1/health", rt.handleHealth)
	rt.mux.HandleFunc("GET /v1/ready", rt.handleReady)
	rt.mux.HandleFunc("GET /v1/algorithms", rt.handleAlgorithms)
	rt.mux.HandleFunc("GET /v1/vertex/{id}", rt.handleVertex)
	rt.mux.HandleFunc("POST /v1/query", rt.handleQuery)
	rt.mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("POST /v1/checkin", rt.handleCheckin)
	rt.mux.HandleFunc("POST /v1/edge", rt.handleEdge)
	rt.mux.HandleFunc("GET /v1/subscribe", rt.handleSubscribe)
	rt.subs = newRouterSubs(rt)
	if cfg.Metrics != nil {
		rt.mux.Handle("GET /metrics", cfg.Metrics.Handler())
	}
	return rt, nil
}

// ServeHTTP routes through the shared request middleware
// (httpapi.Core.Serve) — the same discipline as the server's, so envelopes
// (and dashboards) stay uniform across the topology.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.api.Serve(w, r, rt.mux)
}

// writeLegError reports a failed shard leg. A deterministic shard verdict —
// any structured non-503/429 response, or a forwarded deadline — passes
// through verbatim (new request id aside); everything else means the shard
// as a whole was unreachable or shedding, which the router owns up to with
// a 503 shard_unavailable naming the shard so operators know where to look.
func (rt *Router) writeLegError(w http.ResponseWriter, r *http.Request, shardID int, err error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		forward := apiErr.Status != http.StatusServiceUnavailable &&
			apiErr.Status != http.StatusTooManyRequests
		if apiErr.Code == wire.CodeDeadlineExceeded {
			forward = true
		}
		if forward {
			httpapi.WriteError(w, r, apiErr.Status, apiErr.Code, apiErr.Field, apiErr.Message)
			return
		}
	}
	w.Header().Set("Retry-After", "1")
	httpapi.WriteError(w, r, http.StatusServiceUnavailable, wire.CodeShardUnavailable, "",
		fmt.Sprintf("shard %d unavailable: %v", shardID, err))
}

// requestCtx bounds one routed request and arranges for every shard leg
// under it to carry the caller-visible request id, so a single id follows
// the request through router and shard logs alike.
func (rt *Router) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if id := httpapi.RequestID(r); id != "" {
		ctx = client.WithRequestID(ctx, id)
	}
	return context.WithTimeout(ctx, rt.cfg.queryTimeout())
}

// leg opens a child span for one outbound shard call, counts it in
// sac_router_legs_total, and threads the span id onto the wire so the
// shard's trace parents under this one. Callers must End the span.
func (rt *Router) leg(ctx context.Context, kind string, shardID int) (context.Context, *telemetry.Span) {
	rt.legsTotal.With(kind).Inc()
	ctx, span := telemetry.StartSpan(ctx, "shard-"+kind)
	span.SetAttr("shard", shardID)
	return client.WithTraceSpan(ctx, span.ID), span
}

// --- topology endpoints ----------------------------------------------------

// shardProbe is one shard's /v1/shard/info outcome during a fan-out.
type shardProbe struct {
	info *client.ShardInfo
	err  error
}

// probeShards fans /v1/shard/info to every shard concurrently.
func (rt *Router) probeShards(ctx context.Context) []shardProbe {
	rt.legsTotal.With("info").Add(uint64(len(rt.sets)))
	probes := make([]shardProbe, len(rt.sets))
	fanOut(len(rt.sets), func(i int) {
		probes[i].info, probes[i].err = rt.sets[i].ShardInfo(ctx)
	})
	return probes
}

// fanOut runs f(0) … f(n-1) concurrently and returns when all have — the
// shape of every scatter in the router: n is a handful of shards and each f
// is one leg writing its own slot of the caller's result slices.
func fanOut(n int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// probeProblem classifies one probe against the router's own map: "" means
// the shard is serving the right map.
func (rt *Router) probeProblem(id int, p shardProbe) string {
	switch {
	case p.err != nil:
		return fmt.Sprintf("unreachable: %v", p.err)
	case p.info.ShardID != id:
		return fmt.Sprintf("endpoint serves shard %d, expected %d", p.info.ShardID, id)
	case p.info.Shards != rt.m.Shards:
		return fmt.Sprintf("shard map has %d shards, router's has %d", p.info.Shards, rt.m.Shards)
	case p.info.MapChecksum != rt.checksum:
		return fmt.Sprintf("shard map checksum %08x differs from router's %08x",
			p.info.MapChecksum, rt.checksum)
	}
	return ""
}

// CheckTopology verifies every shard is reachable and serving the router's
// shard map — the startup sanity check cmd/sacrouter runs before listening.
func (rt *Router) CheckTopology(ctx context.Context) error {
	for id, p := range rt.probeShards(ctx) {
		if problem := rt.probeProblem(id, p); problem != "" {
			return fmt.Errorf("router: shard %d: %s", id, problem)
		}
	}
	return nil
}

// handleHealth aggregates the shards' health: overall status is "ok" only
// when every shard answered and none is degraded or serving a different
// map. Always 200 — readiness gates traffic, health describes it.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := rt.requestCtx(r)
	defer cancel()
	out := make([]wire.ShardHealth, len(rt.sets))
	rt.legsTotal.With("health").Add(uint64(len(rt.sets)))
	fanOut(len(rt.sets), func(i int) {
		if h, err := rt.sets[i].Health(ctx); err != nil {
			out[i] = wire.ShardHealth{Shard: i, Status: "unreachable", Error: err.Error()}
		} else {
			out[i] = wire.ShardHealth{Shard: i, Status: h.Status, Health: h}
		}
	})
	status := "ok"
	for _, sh := range out {
		if sh.Status != "ok" && sh.Status != "readonly" {
			status = "degraded"
			break
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"status":           status,
		"role":             "router",
		"apiVersions":      []string{"v1"},
		"shards":           rt.m.Shards,
		"vertices":         rt.m.N,
		"edges":            rt.edges.Load(),
		"shardMapChecksum": rt.checksum,
		"shardHealth":      out,
		"uptimeSeconds":    int64(time.Since(rt.start).Seconds()),
		"build":            version.Get(),
	})
}

// handleReady is 200 only when every shard answers /v1/shard/info with the
// router's own map checksum — the gate CI and orchestration wait on before
// sending traffic at a fresh topology.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := rt.requestCtx(r)
	defer cancel()
	for id, p := range rt.probeShards(ctx) {
		if problem := rt.probeProblem(id, p); problem != "" {
			w.Header().Set("Retry-After", "1")
			httpapi.WriteError(w, r, http.StatusServiceUnavailable, wire.CodeNotReady, "",
				fmt.Sprintf("shard %d not ready: %s", id, problem))
			return
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"ready": true, "role": "router"})
}

// handleAlgorithms serves the registry locally: the router runs the same
// core package as the shards, so the schema cannot drift from what routed
// queries accept.
func (rt *Router) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, httpapi.Algorithms())
}

// handleVertex proxies to the owner. The degree is global (an owner
// materializes every edge of its vertices); the core number is the shard-
// local one, a lower bound on the global core number — documented in the
// README's sharding section.
func (rt *Router) handleVertex(w http.ResponseWriter, r *http.Request) {
	id, ok := httpapi.PathVertex(w, r, rt.m.N)
	if !ok {
		return
	}
	ctx, cancel := rt.requestCtx(r)
	defer cancel()
	owner := rt.m.OwnerOf(id)
	lctx, span := rt.leg(ctx, "vertex", owner)
	v, err := rt.sets[owner].Vertex(lctx, int64(id))
	span.End()
	if err != nil {
		rt.writeLegError(w, r, owner, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, v)
}

// --- writes ----------------------------------------------------------------

// handleCheckin routes the move to the one shard owning v. Ghost copies on
// other shards keep their partition-time location, which no certified or
// assembled answer ever reads.
func (rt *Router) handleCheckin(w http.ResponseWriter, r *http.Request) {
	var req wire.CheckinRequest
	if !rt.api.DecodeJSON(w, r, &req) {
		return
	}
	v, ok := httpapi.CheckinVertex(w, r, &req, rt.m.N)
	if !ok {
		return
	}
	ctx, cancel := rt.requestCtx(r)
	defer cancel()
	owner := rt.m.OwnerOf(v)
	lctx, span := rt.leg(ctx, "checkin", owner)
	err := rt.sets[owner].CheckIn(lctx, req.V, req.X, req.Y)
	span.End()
	if err != nil {
		rt.writeLegError(w, r, owner, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleEdge fans the mutation to both endpoints' owners (one leg when they
// coincide), preserving the invariant that every edge is materialized on
// every shard owning an endpoint. The legs run concurrently; a partial
// cross-shard failure returns 503 shard_unavailable and leaves the edge
// half-applied until the client's retry converges it — edge ops are
// idempotent, so the retry is always safe.
func (rt *Router) handleEdge(w http.ResponseWriter, r *http.Request) {
	var req wire.EdgeRequest
	if !rt.api.DecodeJSON(w, r, &req) {
		return
	}
	u, v, insert, ok := httpapi.EdgeEndpoints(w, r, &req, rt.m.N)
	if !ok {
		return
	}
	ctx, cancel := rt.requestCtx(r)
	defer cancel()
	owners := []int{rt.m.OwnerOf(u)}
	if o2 := rt.m.OwnerOf(v); o2 != owners[0] {
		owners = append(owners, o2)
	}
	results := make([]*client.EdgeResult, len(owners))
	errs := make([]error, len(owners))
	fanOut(len(owners), func(i int) {
		lctx, span := rt.leg(ctx, "edge", owners[i])
		defer span.End()
		results[i], errs[i] = rt.sets[owners[i]].Edge(lctx, req.U, req.V, insert)
	})
	for i, err := range errs {
		if err != nil {
			rt.writeLegError(w, r, owners[i], err)
			return
		}
	}
	// u's owner is the authority on whether the graph changed; both owners
	// apply the same idempotent op, so on a quiesced topology they agree.
	changed := results[0].Changed
	if changed {
		if insert {
			rt.edges.Add(1)
		} else {
			rt.edges.Add(-1)
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, wire.EdgeResult{
		OK: true, Changed: changed, Edges: int(rt.edges.Load()),
	})
}
