// Package server implements the system prototype the paper's Section 6
// plans ("we will also develop a system prototype"): an HTTP JSON API over
// the SAC search library, the shape a geo-social backend (event
// recommendation, social marketing) would embed.
//
// The API is versioned. Current routes live under /v1/:
//
//	GET  /v1/health            role, status verdict, dataset, snapshot/writer and replication state
//	GET  /v1/ready             200 once this node can serve reads (replicas: after initial sync)
//	GET  /v1/algorithms        the algorithm registry: names, ratios, parameter schemas
//	GET  /v1/vertex/{id}       one vertex: location, degree, core number
//	POST /v1/query             one SAC query (unified request shape)
//	POST /v1/batch             many SAC queries, each answered as /v1/query would be
//	POST /v1/checkin           update one vertex's location (dynamic graphs)
//	POST /v1/edge              insert or delete one friendship edge
//
// The JSON shapes of these routes are declared in internal/wire, not here;
// internal/httpapi converts them to and from the engine's types and holds the
// request validators this package shares with internal/router. Validation is
// driven by the core algorithm registry (core.Algorithms) — the server holds
// no per-algorithm parameter code of its own. Every response carries an
// X-Request-Id header, and every non-2xx response is a structured error
// envelope (wire.Error) with a machine-readable code, the offending field
// when known, and the request id.
//
// Every search runs through Server.search: /v1/query, the certified leg of
// /v1/shard/search, and each /v1/batch item (httpapi.ServeBatch, the
// router's batch body too, here pinned to one snapshot). It answers a query
// already answered on the pinned snapshot's state from the answer the
// engine's view store keeps for it, without a worker or a search.
//
// Concurrency model: snapshot isolation, no locks on the query path. A
// single writer goroutine (internal/snapshot.Engine) owns the mutable
// graph, applies check-ins and edge events in batches, and publishes
// immutable snapshots through an atomic pointer. Every query pins the
// current snapshot with one atomic load and runs on a pooled worker rebound
// to that snapshot — readers never block writers, writers never block
// readers, and a query observes exactly one published state from start to
// finish; validation reads the snapshot alone and takes no worker. Mutating
// requests return once the snapshot containing their write
// is published (read-your-writes). Each request carries a context with a
// per-request deadline: an abandoned client or an expired deadline cancels
// the query at its next loop boundary instead of burning CPU to completion.
// POST bodies are capped by http.MaxBytesReader; oversized payloads come
// back as 413 before any JSON is decoded.
//
// A server runs in one of three roles. Standalone (New) and leader
// (NewWithStore) accept reads and writes; the leader routes writes through
// the store so a fenced ex-leader rejects them with 503 read_only. A
// replica (NewReplica) serves reads from WAL-shipped state, refuses writes,
// and sheds reads with 503 + Retry-After when staler than the configured
// bound. /v1/health reports the role, fencing epoch and replication lag;
// /v1/ready gates traffic until the node can actually serve.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/replica"
	"sacsearch/internal/shard"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/store"
	"sacsearch/internal/subscribe"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/version"
	"sacsearch/internal/wire"
)

// Config tunes a Server. The zero value serves defaults.
type Config struct {
	// QueryTimeout is the per-request deadline applied on top of the
	// client's own cancellation for query and batch requests, and the wait
	// bound for checkin and edge publication. Default 15s.
	QueryTimeout time.Duration
	// MaxBodyBytes caps every POST body; larger payloads are rejected with
	// 413 before decoding. Default 1 MiB.
	MaxBodyBytes int64
	// StalenessBound is how far behind the leader a replica may be while
	// still serving reads; beyond it, reads are shed with 503 + Retry-After
	// (stale answers are worse than brief unavailability once the client has
	// a leader to fail over to). Measured against the follower's lag clock,
	// which is local-clock-only and so immune to clock skew. Default 10s;
	// negative disables shedding. Ignored on a leader.
	StalenessBound time.Duration
	// Logger receives server-level structured events — recovered panics,
	// slow queries — keyed by request and span id. Default slog.Default().
	Logger *slog.Logger
	// Metrics, when non-nil, receives the server's instrumentation, served on
	// GET /metrics. The same registry should be shared with the
	// store/follower/shipper so one scrape covers the node.
	Metrics *telemetry.Registry
	// SlowQueryThreshold, when positive, logs any request slower than this
	// at Warn level with its full span tree.
	SlowQueryThreshold time.Duration
	// TraceHook, when set, receives every request's finished root span
	// (tests use it to pin span-tree shapes).
	TraceHook func(*telemetry.Span)
	// Shard, when set, makes this node one shard of a partitioned topology:
	// the /v1/shard/* protocol is served, writes for vertices owned elsewhere
	// are rejected with 400 wrong_shard, and /v1/health reports the shard
	// identity. The node's graph must be the matching shard subgraph
	// (shard.Subgraph with the same map and id).
	Shard *shard.Serving
	// ShipperStatus, when set on a leader, surfaces outbound replication
	// state (connected follower count, min acked sequence) in /v1/health.
	ShipperStatus func() replica.ShipperStatus
	// MaxSubscriptions caps the standing queries registered at once via
	// GET /v1/subscribe; past it registrations fail with 429
	// subscription_limit. Default 1024.
	MaxSubscriptions int
}

func (c Config) queryTimeout() time.Duration {
	if c.QueryTimeout > 0 {
		return c.QueryTimeout
	}
	return 15 * time.Second
}

func (c Config) stalenessBound() time.Duration {
	if c.StalenessBound != 0 {
		return c.StalenessBound
	}
	return 10 * time.Second
}

// Server serves SAC queries over one spatial graph — as a standalone
// in-memory server, a durable leader, or a read-only replica.
type Server struct {
	name  string
	eng   *snapshot.Engine  // nil in replica mode (the follower owns engines)
	st    *store.Store      // non-nil when serving a durable store
	rep   *replica.Follower // non-nil in replica mode
	cfg   Config
	api   httpapi.Core // request middleware, envelope, /v1/subscribe handler
	mux   *http.ServeMux
	start time.Time // boot time, for health's uptimeSeconds

	// Instruments; all nil-safe no-ops when cfg.Metrics is nil.
	queryDur     *telemetry.HistogramVec // per-algorithm search latency
	statCand     *telemetry.CounterVec   // per-algorithm core.Stats counters
	statFeas     *telemetry.CounterVec
	statBinIters *telemetry.CounterVec
	statCircles  *telemetry.CounterVec
	statCacheHit *telemetry.CounterVec
	statRepairs  *telemetry.CounterVec // sorted views repaired from the mutation journal
	statRebuilds *telemetry.CounterVec // sorted views computed from scratch
	statDropped  *telemetry.CounterVec // cached communities invalidated
	statViewHits *telemetry.CounterVec // sorted views reused as they stood
	statOBuilds  *telemetry.CounterVec // prefix oracles built from nothing
	statORepairs *telemetry.CounterVec // prefix oracles repaired from their last build
	statOSpan    *telemetry.CounterVec // prefix lengths those repairs' records dirtied
	parBudget    *telemetry.Counter    // circle-scan workers the machine offered (GOMAXPROCS per scan)
	parEffective *telemetry.Counter    // circle-scan workers granted under load (core.Stats.Workers)
	memoHit      *telemetry.Counter    // searches answered from an answer the store held
	memoMiss     *telemetry.Counter    // searches that took a worker
	memoStored   *telemetry.Counter    // answers whose body a call encoded and attached

	// cert caches the shard exactness certificate for the current topology
	// (sharded nodes only; see certFor).
	cert atomic.Pointer[certCache]

	// subs drives the standing queries registered on this node; feed is the
	// publication firehose served to routers at /v1/shard/watch (sharded
	// nodes only, nil otherwise).
	subs *subscribe.Manager
	feed *subscribe.Feed
}

// New creates a server over g with default configuration. The server takes
// ownership of g (its writer goroutine mutates it); release the writer with
// Close when done. name labels the dataset in the health response.
func New(name string, g *graph.Graph) *Server {
	return NewWithConfig(name, g, Config{})
}

// NewWithConfig creates a server over g with explicit configuration.
func NewWithConfig(name string, g *graph.Graph, cfg Config) *Server {
	return newServer(name, snapshot.New(g, snapshot.Options{Metrics: cfg.Metrics}), nil, nil, cfg)
}

// NewWithStore creates a server over an open durable store: writes ride the
// store's write-ahead log (write-visible implies logged), the health
// response gains the durability stats, and Close shuts the store down
// (final checkpoint included).
func NewWithStore(name string, st *store.Store, cfg Config) *Server {
	return newServer(name, st.Engine(), st, nil, cfg)
}

// NewReplica creates a read-only server over a replication follower: reads
// serve from the follower's replicated snapshots (re-fetched per request,
// since the follower swaps engines on re-sync), writes are refused with 503
// read_only, and reads are shed with 503 + Retry-After while the replica is
// unsynced or staler than cfg.StalenessBound. The server takes ownership of
// f; Close stops replication (the last synced state stays readable by other
// holders of f, not through this server).
func NewReplica(name string, f *replica.Follower, cfg Config) *Server {
	return newServer(name, nil, nil, f, cfg)
}

func newServer(name string, eng *snapshot.Engine, st *store.Store, rep *replica.Follower, cfg Config) *Server {
	s := &Server{
		name:  name,
		eng:   eng,
		st:    st,
		rep:   rep,
		cfg:   cfg,
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	reg := cfg.Metrics // nil-safe: every constructor below no-ops on nil
	s.api = httpapi.Core{
		IDPrefix:     "req-",
		Logger:       cfg.Logger,
		Metrics:      telemetry.NewHTTPMetrics(reg),
		SlowRequest:  cfg.SlowQueryThreshold,
		TraceHook:    cfg.TraceHook,
		MaxBodyBytes: cfg.MaxBodyBytes,
	}
	s.queryDur = reg.HistogramVec("sac_query_duration_seconds",
		"SAC search latency by algorithm (single queries, batch items and shard legs).", nil, "algo")
	s.statCand = reg.CounterVec("sac_query_candidate_vertices_total",
		"Candidate-set vertices examined, by algorithm (paper Section 5 counter).", "algo")
	s.statFeas = reg.CounterVec("sac_query_feasibility_checks_total",
		"Feasibility checks run, by algorithm.", "algo")
	s.statBinIters = reg.CounterVec("sac_query_binary_iters_total",
		"Binary-search iterations over the radius, by algorithm.", "algo")
	s.statCircles = reg.CounterVec("sac_query_circles_examined_total",
		"Covering circles enumerated, by algorithm.", "algo")
	s.statCacheHit = reg.CounterVec("sac_query_cache_hits_total",
		"Candidate-cache hits, by algorithm.", "algo")
	s.statRepairs = reg.CounterVec("sac_query_view_repairs_total",
		"Sorted candidate views brought current by repositioning checked-in members, by algorithm.", "algo")
	s.statRebuilds = reg.CounterVec("sac_query_view_rebuilds_total",
		"Sorted candidate views computed and sorted from scratch, by algorithm.", "algo")
	s.statDropped = reg.CounterVec("sac_query_cache_entries_dropped_total",
		"Cached communities dropped because an edge op changed them or the mutation journal no longer reached them, by algorithm.", "algo")
	s.statViewHits = reg.CounterVec("sac_query_view_hits_total",
		"Sorted candidate views reused as they stood, by algorithm.", "algo")
	s.statOBuilds = reg.CounterVec("sac_query_oracle_builds_total",
		"Prefix oracles built from nothing, by algorithm.", "algo")
	s.statORepairs = reg.CounterVec("sac_query_oracle_repairs_total",
		"Prefix oracles brought up to date from their last build — restored, replayed or re-swept over dirty windows — by algorithm.", "algo")
	s.statOSpan = reg.CounterVec("sac_query_oracle_repair_span_total",
		"Prefix lengths the records of repaired oracles dirtied, whether windows or a replay settled them, by algorithm.", "algo")
	s.parBudget = reg.Counter("sac_query_parallelism_budget_total",
		"Circle-scan workers the machine offers, GOMAXPROCS added once per Exact and Exact+ scan.")
	s.parEffective = reg.Counter("sac_query_parallelism_effective_total",
		"Circle-scan workers those scans ran on, GOMAXPROCS divided by the queries in flight.")
	memo := reg.CounterVec("sac_query_memo_total",
		"Searches answered from an answer the engine kept for the pinned state (hit) or run on a worker (miss), and answers whose body was encoded for reuse (stored).", "outcome")
	s.memoHit, s.memoMiss, s.memoStored = memo.With("hit"), memo.With("miss"), memo.With("stored")
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /v1/ready", s.handleReady)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/vertex/{id}", s.handleVertex)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/checkin", s.handleCheckin)
	s.mux.HandleFunc("POST /v1/edge", s.handleEdge)
	s.mux.HandleFunc("GET /v1/subscribe", s.handleSubscribe)
	if cfg.Shard != nil {
		s.mux.HandleFunc("GET /v1/shard/info", s.handleShardInfo)
		s.mux.HandleFunc("POST /v1/shard/search", s.handleShardSearch)
		s.mux.HandleFunc("POST /v1/shard/expand", s.handleShardExpand)
		s.mux.HandleFunc("GET /v1/shard/watch", s.handleShardWatch)
	}
	s.subs = subscribe.NewManager(subscribe.ManagerOptions{
		Current: func() *snapshot.Snap {
			if e := s.engine(); e != nil {
				return e.Current()
			}
			return nil
		},
		Hub:    subscribe.Options{Metrics: reg, MaxSubscriptions: cfg.MaxSubscriptions},
		Logger: cfg.Logger,
	})
	if cfg.Shard != nil {
		s.feed = subscribe.NewFeed(subscribe.Options{Metrics: reg})
	}
	hook := func(sn *snapshot.Snap, evs []graph.Write) {
		s.subs.Notify(sn, evs)
		if s.feed != nil {
			s.feed.Notify(sn, evs)
		}
	}
	if rep != nil {
		rep.SetOnPublish(hook)
	} else {
		eng.SetOnPublish(hook)
	}
	if cfg.Metrics != nil {
		s.mux.Handle("GET /metrics", cfg.Metrics.Handler())
	}
	return s
}

// Close stops the writer goroutine (and, for a durable server, checkpoints
// and closes the store; for a replica, stops replication). In-flight
// queries finish against their pinned snapshots; pending writes fail with
// an error.
func (s *Server) Close() {
	s.DrainSubscriptions()
	switch {
	case s.rep != nil:
		s.rep.Close()
	case s.st != nil:
		_ = s.st.Close()
	default:
		s.eng.Close()
	}
}

// DrainSubscriptions flushes pending deltas to every standing-query stream,
// writes the terminal bye event, and closes the streams. Daemons call it on
// SIGTERM before http.Server.Shutdown, so Shutdown's wait-for-handlers sees
// the SSE handlers exit instead of hanging until the write timeout. Safe to
// call more than once; Close calls it too.
func (s *Server) DrainSubscriptions() {
	s.subs.Close()
	if s.feed != nil {
		s.feed.Close()
	}
}

// Subscriptions exposes the standing-query manager (tests).
func (s *Server) Subscriptions() *subscribe.Manager { return s.subs }

// Engine exposes the snapshot engine (benchmarks and embedding callers). In
// replica mode the engine changes across re-syncs and is nil before the
// first sync completes.
func (s *Server) Engine() *snapshot.Engine { return s.engine() }

// engine returns the engine currently serving this node's state: the fixed
// one on a standalone/durable server, the follower's latest on a replica.
func (s *Server) engine() *snapshot.Engine {
	if s.rep != nil {
		return s.rep.Engine()
	}
	return s.eng
}

// role names what this node is in the replication topology.
func (s *Server) role() string {
	switch {
	case s.rep != nil:
		return "replica"
	case s.st != nil:
		return "leader"
	default:
		return "standalone"
	}
}

// readEngine gates the read path. On a leader or standalone server it always
// admits. On a replica it sheds with 503 + Retry-After when the node has
// never synced or its replication lag exceeds the staleness bound — the
// typed client treats that as a signal to fail the read over to another
// endpoint. Reports whether the request may proceed; on false the response
// has been written.
func (s *Server) readEngine(w http.ResponseWriter, r *http.Request) (*snapshot.Engine, bool) {
	if s.rep == nil {
		return s.eng, true
	}
	rs := s.rep.Status()
	if !rs.Synced {
		w.Header().Set("Retry-After", "1")
		httpapi.WriteError(w, r, http.StatusServiceUnavailable, wire.CodeNotReady, "",
			"replica has not completed its initial sync")
		return nil, false
	}
	if bound := s.cfg.stalenessBound(); bound > 0 && rs.LagSeconds > bound.Seconds() {
		w.Header().Set("Retry-After", "1")
		httpapi.WriteError(w, r, http.StatusServiceUnavailable, wire.CodeStaleRead, "",
			fmt.Sprintf("replica is %.1fs behind the leader (bound %s)", rs.LagSeconds, bound))
		return nil, false
	}
	return s.rep.Engine(), true
}

// ServeHTTP implements http.Handler: every request routes through the
// shared middleware (httpapi.Core.Serve: request id, root span, metrics,
// panic recovery).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.api.Serve(w, r, s.mux)
}

// --- handlers ---------------------------------------------------------------

// handleHealth reports the node's role in the replication topology, a
// top-level status verdict, and the published snapshot's epochs, writer
// queue depth and worker-pool size, so operators can see publication lag at
// a glance: a growing writerQueue with a stalled snapshotSeq means the
// writer is behind.
//
// status is "ok", "readonly" or "degraded" (degraded wins over readonly):
// readonly means reads work but writes are refused — a healthy replica, a
// fenced ex-leader, or a leader whose WAL latched ErrPersist; degraded means
// something needs attention — a checkpoint error, a replica that is
// unsynced, disconnected, or beyond the staleness bound.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	readonly, degraded := false, false
	health := map[string]any{
		"dataset":       s.name,
		"apiVersions":   []string{"v1"},
		"role":          s.role(),
		"durable":       s.st != nil,
		"uptimeSeconds": int64(time.Since(s.start).Seconds()),
		"build":         version.Get(),
	}
	if eng := s.engine(); eng != nil {
		snap := eng.Current()
		health["vertices"] = snap.Graph().NumVertices()
		health["edges"] = snap.Edges()
		health["topoEpoch"] = snap.TopoEpoch()
		health["locEpoch"] = snap.LocEpoch()
		health["snapshotSeq"] = snap.Seq()
		health["writerQueue"] = eng.QueueDepth()
		health["eventsApplied"] = eng.Applied()
		health["poolClones"] = eng.PoolClones()
	}
	if s.st != nil {
		// Durability at a glance: a growing walSegments with a stalled
		// lastCheckpointSeq (or a non-empty checkpointError) means the
		// checkpointer fell behind and recovery time is growing.
		ds := s.st.Stats()
		health["walSegments"] = ds.WalSegments
		health["walBytes"] = ds.WalBytes
		health["walLastSeq"] = ds.WalLastSeq
		health["lastCheckpointSeq"] = ds.LastCheckpointSeq
		health["fsyncPolicy"] = ds.FsyncPolicy
		health["epoch"] = ds.Epoch
		if ds.FencedBy != 0 {
			health["fencedBy"] = ds.FencedBy
		}
		if ds.CheckpointError != "" {
			health["checkpointError"] = ds.CheckpointError
			degraded = true
		}
		// A fenced or persist-latched leader still answers reads from its
		// published snapshots; only its write path is gone.
		readonly = s.st.Fenced() || s.eng.PersistFailed()
	}
	if s.cfg.ShipperStatus != nil {
		// Outbound replication as seen from the leader: how many followers
		// hold a live session and the slowest one's acknowledged sequence —
		// lag measured here, not on the follower, so a disconnected or
		// stalled follower is visible from the node operators actually watch.
		ss := s.cfg.ShipperStatus()
		health["followers"] = ss.Followers
		health["minAckedSeq"] = ss.MinAckedSeq
	}
	if s.cfg.Shard != nil {
		health["shardId"] = s.cfg.Shard.ID
		health["shards"] = s.cfg.Shard.Map.Shards
		health["shardMapChecksum"] = s.cfg.Shard.Map.Checksum()
	}
	if s.rep != nil {
		rs := s.rep.Status()
		health["replication"] = rs
		health["epoch"] = rs.LeaderEpoch
		readonly = true // a replica never accepts writes
		bound := s.cfg.stalenessBound()
		degraded = !rs.Synced || !rs.Connected ||
			(bound > 0 && rs.LagSeconds > bound.Seconds())
	}
	switch {
	case degraded:
		health["status"] = "degraded"
	case readonly:
		health["status"] = "readonly"
	default:
		health["status"] = "ok"
	}
	httpapi.WriteJSON(w, http.StatusOK, health)
}

// handleReady is the orchestration probe: 200 once this node can serve
// reads, 503 before that. A leader is ready as soon as it is constructed
// (store recovery completed in Open, before any listener existed); a
// replica is ready once its initial state transfer lands. Health stays 200
// throughout — readiness gates traffic, health describes it.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.rep != nil {
		if rs := s.rep.Status(); !rs.Synced {
			w.Header().Set("Retry-After", "1")
			httpapi.WriteError(w, r, http.StatusServiceUnavailable, wire.CodeNotReady, "",
				"replica has not completed its initial sync")
			return
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"ready": true, "role": s.role()})
}

// handleAlgorithms serves the algorithm registry: names, aliases, ratios and
// full parameter schemas (type, required, default, range).
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, httpapi.Algorithms())
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	eng, ok := s.readEngine(w, r)
	if !ok {
		return
	}
	snap := eng.Current()
	g := snap.Graph()
	v, ok := httpapi.PathVertex(w, r, g.NumVertices())
	if !ok {
		return
	}
	loc := g.Loc(v)
	httpapi.WriteJSON(w, http.StatusOK, wire.Vertex{
		ID: int64(v), X: loc.X, Y: loc.Y, Degree: g.Degree(v), Core: snap.CoreNumber(v),
	})
}

// requestCtx derives the per-request context: the client's own cancellation
// plus the server's query deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.queryTimeout())
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.Query
	if !s.api.DecodeJSON(w, r, &req) {
		return
	}
	eng, ok := s.readEngine(w, r)
	if !ok {
		return
	}
	q, err := httpapi.CoreQuery(req)
	if err != nil {
		httpapi.WriteQueryError(w, r, err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	a, err := s.search(ctx, eng.Current(), q)
	if err != nil {
		httpapi.WriteQueryError(w, r, err)
		return
	}
	if a.body != nil {
		httpapi.WriteStored(w, a.body, a.micros)
		return
	}
	httpapi.WriteResult(w, r, a.res)
}

// answer is what search hands back. On a memo hit res and body are the
// stored answer's, shared with every other hit: neither may be modified.
type answer struct {
	res    *wire.Result // stats as the search that found it reported them
	body   []byte       // res in wire.AppendResult's layout once it is reused
	micros int64        // this call's elapsedMicros
}

// result is res reporting this call's elapsedMicros (nil for no answer).
func (a answer) result() *wire.Result {
	if a.res == nil || a.res.Stats.ElapsedMicros == a.micros {
		return a.res
	}
	r := *a.res
	r.Stats.ElapsedMicros = a.micros
	return &r
}

// search answers q on snap for /v1/query, the certified leg of
// /v1/shard/search and every /v1/batch item alike, under a "search" span,
// through the snapshot's one door to its answers (Snap.Answer): a memo hit,
// an answer the engine's store holds for the snapshot's state, or a search
// on a pooled worker, which keeps its answer there. Every success is
// recorded in sac_query_duration_seconds; only a search adds to the work
// counters, and "stored" counts the answers whose body a call encoded.
func (s *Server) search(ctx context.Context, snap *snapshot.Snap, q core.Query) (answer, error) {
	start := time.Now()
	ctx, span := telemetry.StartSpan(ctx, "search")
	defer span.End()
	r, err := snap.Answer(ctx, q, false)
	if r.Stored {
		s.memoStored.Inc()
	}
	if key := r.Key; key.Algo != "" { // q resolved, and the memo was asked
		span.SetAttr("algo", key.Algo)
		span.SetAttr("q", int64(key.Q))
		span.SetAttr("k", key.K)
		if r.Hit {
			elapsed := time.Since(start)
			s.memoHit.Inc()
			s.queryDur.With(key.Algo).Observe(elapsed.Seconds())
			span.SetAttr("memo", "hit")
			return answer{res: r.Result, body: r.Body, micros: elapsed.Microseconds()}, nil
		}
		s.memoMiss.Inc()
	}
	if err != nil {
		return answer{}, err
	}
	s.observeQuery(r.Key.Algo, r.Stats)
	if workers := r.Stats.Workers; workers > 0 {
		s.parBudget.Add(uint64(runtime.GOMAXPROCS(0)))
		s.parEffective.Add(uint64(workers))
	}
	return answer{res: r.Result, body: r.Body, micros: r.Stats.Elapsed.Microseconds()}, nil
}

// validate is /v1/query's validation of q against snap, without a worker.
func validate(snap *snapshot.Snap, q core.Query) error {
	return core.ValidateQuery(q, snap.Graph().NumVertices(), snap.Structure())
}

// observeQuery records one successful search's latency and the paper's
// per-query work counters under the algorithm label.
func (s *Server) observeQuery(algo string, st core.Stats) {
	s.queryDur.With(algo).Observe(st.Elapsed.Seconds())
	s.statCand.With(algo).Add(uint64(st.CandidateSize))
	s.statFeas.With(algo).Add(uint64(st.FeasibilityChecks))
	s.statBinIters.With(algo).Add(uint64(st.BinaryIters))
	s.statCircles.With(algo).Add(uint64(st.CirclesExamined))
	s.statCacheHit.With(algo).Add(uint64(st.CacheHits))
	s.statRepairs.With(algo).Add(uint64(st.ViewRepairs))
	s.statRebuilds.With(algo).Add(uint64(st.ViewRebuilds))
	s.statDropped.With(algo).Add(uint64(st.EntriesDropped))
	s.statViewHits.With(algo).Add(uint64(st.ViewHits))
	s.statOBuilds.With(algo).Add(uint64(st.OracleBuilds))
	s.statORepairs.With(algo).Add(uint64(st.OracleRepairs))
	s.statOSpan.With(algo).Add(uint64(st.OracleRepairSpan))
}

// handleBatch answers every item as /v1/query would, through s.search, with
// the whole batch pinned to one snapshot: every worker is rebound to the same
// published state, and the batch deadline cancels stragglers mid-algorithm.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.BatchRequest
	if !s.api.DecodeJSON(w, r, &req) {
		return
	}
	eng, ok := s.readEngine(w, r)
	if !ok {
		return
	}
	snap := eng.Current()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	httpapi.ServeBatch(w, r.WithContext(ctx), &req,
		func(q core.Query) error { return validate(snap, q) },
		func(ctx context.Context, q core.Query) (*wire.Result, error) {
			a, err := s.search(ctx, snap, q) // an item carries no stats, so a hit's res serves as stored
			return a.res, err
		})
}

// writeWriteError maps a mutation error (checkin/edge) onto a status code.
func (s *Server) writeWriteError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := http.StatusUnprocessableEntity, wire.CodeQueryFailed
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status, code = http.StatusServiceUnavailable, wire.CodeDeadlineExceeded
	case errors.Is(err, snapshot.ErrClosed):
		status, code = http.StatusServiceUnavailable, wire.CodeUnavailable
	case errors.Is(err, store.ErrFenced):
		// A newer leader epoch exists; this node must never accept another
		// write. 503 read_only so a failover-aware client retries the write
		// against the rest of its endpoint set and finds the new leader.
		// Tested before ErrPersist: a write that was already queued when the
		// fence landed is refused at the log and carries both.
		status, code = http.StatusServiceUnavailable, wire.CodeReadOnly
	case errors.Is(err, snapshot.ErrPersist):
		// The WAL refused the write; the engine is read-only until the
		// operator intervenes. 503, not 422 — the request was fine.
		status, code = http.StatusServiceUnavailable, wire.CodeUnavailable
	}
	httpapi.WriteError(w, r, status, code, "", err.Error())
}

// admitWrite rejects mutations on a replica before any decoding happens.
// Reports whether the write may proceed; on false the 503 is written.
func (s *Server) admitWrite(w http.ResponseWriter, r *http.Request) bool {
	if s.rep == nil {
		return true
	}
	httpapi.WriteError(w, r, http.StatusServiceUnavailable, wire.CodeReadOnly, "",
		"replica is read-only; send writes to the leader")
	return false
}

// checkIn routes a check-in through the store when one exists — the fencing
// gate lives there — and straight to the engine otherwise.
func (s *Server) checkIn(ctx context.Context, v graph.V, p geom.Point) error {
	if s.st != nil {
		return s.st.CheckIn(ctx, v, p)
	}
	return s.eng.CheckIn(ctx, v, p)
}

// updateEdge is checkIn's counterpart for topology mutations.
func (s *Server) updateEdge(ctx context.Context, u, v graph.V, insert bool) (bool, error) {
	if s.st != nil {
		return s.st.UpdateEdge(ctx, u, v, insert)
	}
	return s.eng.UpdateEdge(ctx, u, v, insert)
}

func (s *Server) handleCheckin(w http.ResponseWriter, r *http.Request) {
	if !s.admitWrite(w, r) {
		return
	}
	var req wire.CheckinRequest
	if !s.api.DecodeJSON(w, r, &req) {
		return
	}
	v, ok := httpapi.CheckinVertex(w, r, &req, s.eng.NumVertices())
	if !ok {
		return
	}
	// A sharded node only accepts check-ins for vertices it owns: a ghost's
	// location here is a frozen partition-time copy that no certified or
	// assembled answer ever reads, and letting writes land on it would fork
	// it from the owner's authoritative state.
	if s.cfg.Shard != nil && !s.cfg.Shard.Owns(v) {
		httpapi.WriteError(w, r, http.StatusBadRequest, wire.CodeWrongShard, "v",
			fmt.Sprintf("vertex %d is owned by shard %d, not shard %d",
				v, s.cfg.Shard.Map.OwnerOf(v), s.cfg.Shard.ID))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if err := s.checkIn(ctx, v, geom.Point{X: req.X, Y: req.Y}); err != nil {
		s.writeWriteError(w, r, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleEdge mutates the friendship graph through the writer goroutine,
// which repairs the core decomposition incrementally and publishes a
// snapshot containing the change before this handler responds; queries
// pinned to older snapshots keep serving the pre-change state.
func (s *Server) handleEdge(w http.ResponseWriter, r *http.Request) {
	if !s.admitWrite(w, r) {
		return
	}
	var req wire.EdgeRequest
	if !s.api.DecodeJSON(w, r, &req) {
		return
	}
	u, v, insert, ok := httpapi.EdgeEndpoints(w, r, &req, s.eng.NumVertices())
	if !ok {
		return
	}
	// A sharded node materializes exactly the edges with at least one owned
	// endpoint; an edge owned entirely elsewhere belongs to other shards
	// (the router fans a cross-shard edge to both owners).
	if s.cfg.Shard != nil && !s.cfg.Shard.Owns(u) && !s.cfg.Shard.Owns(v) {
		httpapi.WriteError(w, r, http.StatusBadRequest, wire.CodeWrongShard, "",
			fmt.Sprintf("edge (%d,%d) has no endpoint owned by shard %d", u, v, s.cfg.Shard.ID))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	changed, err := s.updateEdge(ctx, u, v, insert)
	if err != nil {
		s.writeWriteError(w, r, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, wire.EdgeResult{OK: true, Changed: changed, Edges: s.eng.Current().Edges()})
}
