package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"sacsearch/client"
	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/router"
	"sacsearch/internal/server"
	"sacsearch/internal/shard"
	"sacsearch/internal/store"
	"sacsearch/internal/subscribe"
	"sacsearch/internal/telemetry"
)

// The traced run. For each workload it builds identical in-process stacks,
// wired exactly as the commands wire them, and feeds the first ops of the
// same generated schedule to all of them in lockstep, single-threaded, so
// that their caches evolve identically: stack A is driven through the typed
// client over a loopback listener, stack B through the handler with a
// recorder, stack C through the engine's and the searcher's public
// functions. Each call is one span. The layers nest — client ⊃ server ⊃
// snapshot ⊃ core — but each is timed on its own stack, so a layer's self
// time is its span minus its child's span for the same op, and the self
// times of one op sum to its outermost span by construction.
//
// The op counts are smaller than an end-to-end window holds: a traced cold
// op costs three cold queries. They are fixed, not timed, so that the counts
// derived from them repeat exactly.
var tracedOps = map[string]int{wlHot: 300, wlCold: 60, wlChurn: 100, wlRouted: 200}

// span is one timed call at a layer boundary, kept in memory and written out
// as a JSON line when the run ends. Start and end are nanoseconds since the
// traced run began. Spans of one operation share Workload and Op; Parent
// names the span that logically encloses this one.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Class    string `json:"class"` // query, checkin, edge; routed: certified, assembled
	StartNs  int64  `json:"startNs"`
	EndNs    int64  `json:"endNs"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

type tracer struct {
	origin time.Time
	spans  []span
}

// timed runs f as one span and returns the span's index.
func (t *tracer) timed(workload string, op int, name, parent, class string, f func()) int {
	start := time.Since(t.origin)
	f()
	end := time.Since(t.origin)
	t.spans = append(t.spans, span{workload, op, name, parent, class, int64(start), int64(end)})
	return len(t.spans) - 1
}

// selfTimes computes, for the spans of one operation, each span's duration
// minus the durations of the spans that name it as their parent.
func selfTimes(spans []span) map[string]float64 {
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] += s.ms()
	}
	for _, s := range spans {
		if s.Parent != "" {
			self[s.Parent] -= s.ms()
		}
	}
	return self
}

// opTrace is one replayed operation: its spans' self times by layer, and
// what the search itself reported.
type opTrace struct {
	op    op
	class string
	self  map[string]float64 // layer → self ms
	dur   map[string]float64 // layer → span ms
	total float64            // outermost span, ms
	stats core.Stats         // queries on stack C
	// coreMicros is the search time the response itself reports
	// (stats.elapsedMicros), as stack A's client received it.
	coreMicros int64
	stale      string // churn queries: "", "checkin" or "edge" — what made q's view stale
	// sizes on the wire, from stack B
	reqBytes, respBytes int
	// targeted check-ins
	deltaMs, evalMs float64
	// routed: the time stack B's shard servers spent in their handlers while
	// the router served this op, and the same query on the direct server
	legsMs, directMs float64
}

// finish closes one operation: the spans recorded since first are its own,
// the outermost one last.
func (t *tracer) finish(first int, ot *opTrace) {
	spans := t.spans[first:]
	ot.self = selfTimes(spans)
	ot.dur = map[string]float64{}
	for _, s := range spans {
		ot.dur[s.Name] += s.ms()
	}
	ot.total = spans[len(spans)-1].ms()
}

// singleStack is one in-process sacserver: the server the command builds,
// over its own copy of the graph.
type singleStack struct {
	srv *server.Server
	st  *store.Store
	reg *telemetry.Registry
	ts  *httptest.Server
	cl  *client.Client
}

// newSingleStack builds a server the way cmd/sacserver does: in memory, or —
// with a data dir — over a durable store with fsync always.
func newSingleStack(g *graph.Graph, dataDir string, listen bool, cfg server.Config) (*singleStack, error) {
	s := &singleStack{reg: telemetry.NewRegistry()}
	cfg.Metrics = s.reg
	if dataDir != "" {
		st, err := store.Open(dataDir, store.Options{Init: g, Fsync: "always", Metrics: s.reg})
		if err != nil {
			return nil, err
		}
		s.st = st
		s.srv = server.NewWithStore("traced", st, cfg)
	} else {
		s.srv = server.NewWithConfig("traced", g, cfg)
	}
	if listen {
		s.ts = httptest.NewServer(s.srv)
		var err error
		if s.cl, err = benchClient(s.ts.URL); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *singleStack) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	s.srv.Close()
}

func (s *singleStack) counters() counters { return registryCounters(s.reg) }

// registryCounters reads an in-process registry the way scrape reads a
// daemon's /metrics.
func registryCounters(reg *telemetry.Registry) counters {
	var buf bytes.Buffer
	reg.WriteText(&buf)
	c, _ := parseMetrics(&buf) // reading a buffer cannot fail
	return c
}

// serve runs one request through a handler with a recorder.
func serve(h http.Handler, method, path string, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec, nil
}

// quiesce waits until the server's standing queries have been evaluated
// against its latest snapshot, so that no evaluation runs beside the next
// timed call.
func quiesce(s *server.Server) error {
	deadline := time.Now().Add(opTimeout)
	for s.Subscriptions().ProcessedSeq() < s.Engine().Current().Seq() {
		if time.Now().After(deadline) {
			return errors.New("standing queries did not settle")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// watch follows an in-process subscription stream with a tracker.
func watch(sub *subscribe.Sub) (*tracker, error) {
	stream, replay, err := sub.Attach(0, false)
	if err != nil {
		return nil, err
	}
	t := newTracker(func() { sub.Detach(stream) })
	apply := func(ev subscribe.Event) {
		var p subscribe.EventJSON
		if json.Unmarshal(ev.Data, &p) == nil {
			t.apply(client.SubEvent{Kind: ev.Kind, Members: p.Members, Joined: p.Joined, Left: p.Left})
		}
	}
	for _, ev := range replay {
		apply(ev)
	}
	go func() {
		defer close(t.done)
		for {
			select {
			case ev := <-stream.C:
				apply(ev)
			case <-t.stop:
				return
			}
		}
	}()
	return t, nil
}

// replaySingle feeds ops to three single-server stacks in lockstep.
func (t *tracer) replaySingle(ctx context.Context, e *env, workload string, in *inputs, ops []op) ([]opTrace, map[string]float64, error) {
	durable := workload == wlChurn
	var stacks [3]*singleStack // A: client, B: handler, C: engine
	for i := range stacks {
		dir := ""
		if durable {
			var err error
			if dir, err = e.tempDir("traced-"); err != nil {
				return nil, nil, err
			}
		}
		s, err := newSingleStack(in.g.Clone(), dir, i == 0, server.Config{})
		if err != nil {
			return nil, nil, err
		}
		defer s.close()
		stacks[i] = s
	}
	a, b, c := stacks[0], stacks[1], stacks[2]

	// Churn: the same standing query on every stack; A's is watched over SSE
	// (it resolves the targeted check-ins), C's in process, B's evaluates
	// unwatched so that its caches see the same traffic.
	var watchA, watchC *tracker
	standing := core.Query{Algo: "appfast", Q: in.hot[0], K: queryK}
	if durable {
		var err error
		if watchA, err = openStanding(ctx, a.ts.URL, in.hot[0]); err != nil {
			return nil, nil, err
		}
		defer watchA.close()
		if _, err := b.srv.Subscriptions().Register("traced", standing); err != nil {
			return nil, nil, err
		}
		sub, err := c.srv.Subscriptions().Register("traced", standing)
		if err != nil {
			return nil, nil, err
		}
		if watchC, err = watch(sub); err != nil {
			return nil, nil, err
		}
		defer watchC.close()
		for _, s := range stacks {
			if err := quiesce(s.srv); err != nil {
				return nil, nil, err
			}
		}
	}
	// Let caches fill before timing, as the end-to-end run's warm-up does:
	// the skewed workloads touch every hot vertex once, untimed.
	if workload != wlCold {
		for _, q := range in.hot {
			cq := client.Query{Q: int64(q), K: queryK, Algo: "appfast"}
			body, _ := json.Marshal(cq)
			_, errA := a.cl.Query(ctx, cq)
			_, errB := serve(b.srv, "POST", "/v1/query", body)
			snap := c.srv.Engine().Current()
			w := snap.Get()
			_, errC := w.Search(ctx, core.Query{Algo: "appfast", Q: q, K: queryK})
			snap.Put(w)
			if err := errors.Join(errA, errB, errC); err != nil {
				return nil, nil, fmt.Errorf("warming vertex %d: %w", q, err)
			}
		}
	}
	before := c.counters()
	publishedBefore := c.srv.Engine().Published()

	moves := newMover(in)
	// stale[q] is what has made q's sorted view stale since q was last
	// queried: nothing, a check-in, or an edge op (which drops every cache).
	stale := map[graph.V]string{}
	markStale := func(by string) {
		for _, q := range in.hot {
			if by == "edge" || stale[q] == "" {
				stale[q] = by
			}
		}
	}
	// settle waits out the standing query's evaluation on one stack, so that
	// the next timed call has the CPUs to itself.
	settle := func(s *singleStack) error {
		if !durable {
			return nil
		}
		return quiesce(s.srv)
	}
	out := make([]opTrace, 0, len(ops))
	for id, o := range ops {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var pos geom.Point
		if o.Kind == opCheckin || o.Kind == opTargeted {
			var err error
			if o.V, pos, err = moves.resolve(o, watchA); err != nil {
				return nil, nil, err
			}
		}
		ot := opTrace{op: o, class: o.class()}
		first := len(t.spans)
		var err error
		timed := func(name, parent string, f func()) { t.timed(workload, id, name, parent, ot.class, f) }

		switch o.Kind {
		case opQuery:
			ot.stale, stale[o.V] = stale[o.V], ""
			var res *core.Result
			timed("snapshot", "server", func() {
				snap := c.srv.Engine().Current()
				w := snap.Get()
				timed("core", "snapshot", func() { res, err = w.Search(ctx, core.Query{Algo: o.Algo, Q: o.V, K: queryK}) })
				snap.Put(w)
			})
			if err != nil {
				return nil, nil, fmt.Errorf("%s op %d on the engine: %w", workload, id, err)
			}
			ot.stats = res.Stats
			body, _ := json.Marshal(toQuery(o))
			var rec *httptest.ResponseRecorder
			timed("server", "client", func() { rec, err = serve(b.srv, "POST", "/v1/query", body) })
			if err != nil {
				return nil, nil, err
			}
			ot.reqBytes, ot.respBytes = len(body), rec.Body.Len()
			var got *client.Result
			timed("client", "", func() { got, err = a.cl.Query(ctx, toQuery(o)) })
			if err != nil {
				return nil, nil, fmt.Errorf("%s op %d through the client: %w", workload, id, err)
			}
			ot.coreMicros = got.Stats.ElapsedMicros
		default:
			// A write runs to the end on one stack — acknowledged, standing
			// query re-evaluated, delta delivered — before the next stack
			// starts it.
			var body []byte
			var onC, onA func()
			path := "/v1/checkin"
			if o.Kind == opEdge {
				path = "/v1/edge"
				opName := "delete"
				if o.Insert {
					opName = "insert"
				}
				body, _ = json.Marshal(map[string]any{"u": o.V, "v": o.W, "op": opName})
				onC = func() { _, err = c.st.UpdateEdge(ctx, o.V, o.W, o.Insert) }
				onA = func() { _, err = a.cl.Edge(ctx, int64(o.V), int64(o.W), o.Insert) }
				markStale("edge")
			} else {
				body, _ = json.Marshal(map[string]any{"v": o.V, "x": pos.X, "y": pos.Y})
				onC = func() { err = c.st.CheckIn(ctx, o.V, pos) }
				onA = func() { err = a.cl.CheckIn(ctx, int64(o.V), pos.X, pos.Y) }
				markStale("checkin")
			}
			awaitDelta := func(w *tracker, since time.Time) (float64, error) {
				if o.Kind != opTargeted {
					return 0, nil
				}
				wctx, cancel := context.WithTimeout(ctx, opTimeout)
				defer cancel()
				at, err := w.waitMoved(wctx, int64(o.V), since)
				return float64(at.Sub(since)) / 1e6, err
			}
			timed("snapshot", "server", onC)
			acked := time.Now()
			if err == nil {
				ot.evalMs, err = awaitDelta(watchC, acked)
			}
			if err == nil {
				err = settle(c)
			}
			if err == nil {
				timed("server", "client", func() { _, err = serve(b.srv, "POST", path, body) })
			}
			if err == nil {
				err = settle(b)
			}
			sent := time.Now()
			if err == nil {
				timed("client", "", onA)
			}
			if err == nil {
				ot.deltaMs, err = awaitDelta(watchA, sent)
			}
			if err == nil {
				err = settle(a)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("%s op %d: %w", workload, id, err)
			}
		}
		t.finish(first, &ot)
		out = append(out, ot)
	}

	// Counts from stack C's own registry and engine, over the replay.
	ctr := c.counters().sub(before)
	writes := 0
	for _, o := range ops {
		if o.Kind != opQuery {
			writes++
		}
	}
	counts := map[string]float64{"writes": float64(writes)}
	if durable {
		counts["publishes"] = float64(c.srv.Engine().Published() - publishedBefore)
		counts["walBytes"] = ctr.sum("sac_wal_bytes", "")
		counts["fsyncs"] = ctr.sum("sac_wal_fsync_duration_seconds_count", "")
		counts["evals"] = ctr.sum("sac_subscription_evaluations_total", "")
		counts["skipped"] = ctr.sum("sac_subscription_skipped_by_gate_total", "")
		// The replay's data dir is the fixture for the store's own set-up
		// costs: crash, recover from the first checkpoint and the replay's
		// WAL, then checkpoint the churned graph.
		dir := c.st.Dir()
		c.st.Crash()
		start := time.Now()
		re, err := store.Open(dir, store.Options{Fsync: "always"})
		if err != nil {
			return nil, nil, fmt.Errorf("reopening the replay's data dir: %w", err)
		}
		counts["recoverMs"] = float64(time.Since(start)) / 1e6
		start = time.Now()
		err = re.Checkpoint()
		counts["checkpointMs"] = float64(time.Since(start)) / 1e6
		re.Crash()
		if err != nil {
			return nil, nil, err
		}
	}
	return out, counts, nil
}

// routedStack is one in-process 2-shard topology behind a router.
type routedStack struct {
	shards []*singleStack // by shard id, each on its own listener
	rt     *router.Router
	reg    *telemetry.Registry
	ts     *httptest.Server
	cl     *client.Client
}

func newRoutedStack(m *shard.Map, subs []*graph.Graph) (*routedStack, error) {
	rs := &routedStack{reg: telemetry.NewRegistry()}
	urls := make([][]string, len(subs))
	for id, sub := range subs {
		sv, err := shard.NewServing(m, id)
		if err != nil {
			return nil, err
		}
		s, err := newSingleStack(sub.Clone(), "", true, server.Config{Shard: sv})
		if err != nil {
			return nil, err
		}
		rs.shards = append(rs.shards, s)
		urls[id] = []string{s.ts.URL}
	}
	var err error
	if rs.rt, err = router.New(router.Config{Map: m, Shards: urls, Metrics: rs.reg}); err != nil {
		return nil, err
	}
	rs.ts = httptest.NewServer(rs.rt)
	if rs.cl, err = benchClient(rs.ts.URL); err != nil {
		return nil, err
	}
	return rs, nil
}

// shardHandlerMs is the time the stack's shard servers have spent in their
// handlers so far, by their own request-duration histograms.
func (rs *routedStack) shardHandlerMs() float64 {
	var ms float64
	for _, s := range rs.shards {
		ms += s.counters().sum("sac_http_request_duration_seconds_sum", "") * 1000
	}
	return ms
}

func (rs *routedStack) close() {
	if rs.ts != nil {
		rs.ts.Close()
	}
	if rs.rt != nil {
		rs.rt.DrainSubscriptions()
	}
	for _, s := range rs.shards {
		s.close()
	}
}

// replayRouted feeds ops in lockstep to: A, the router through the client;
// B, a second router's handler; C, the owner shard's search leg (and, for an
// assembled query, one expand leg) of a third topology; and D, one direct
// server holding the whole graph — the base of the overhead ratios.
func (t *tracer) replayRouted(ctx context.Context, in *inputs, seed int64, counts map[string]float64) ([]opTrace, error) {
	start := time.Now()
	m, err := shard.Partition(in.g, 2)
	if err != nil {
		return nil, err
	}
	counts["partitionMs"] = float64(time.Since(start)) / 1e6
	subs := make([]*graph.Graph, 2)
	start = time.Now()
	for id := range subs {
		if subs[id], err = shard.Subgraph(in.g, m, id); err != nil {
			return nil, err
		}
	}
	counts["subgraphMs"] = float64(time.Since(start)) / 1e6 / float64(len(subs))

	var stacks [3]*routedStack
	for i := range stacks {
		rs, err := newRoutedStack(m, subs)
		if rs != nil {
			defer rs.close()
		}
		if err != nil {
			return nil, err
		}
		stacks[i] = rs
	}
	a, b, c := stacks[0], stacks[1], stacks[2]
	direct, err := newSingleStack(in.g.Clone(), "", true, server.Config{})
	if err != nil {
		return nil, err
	}
	defer direct.close()

	// The routing classes, by the same look-up the end-to-end run does, on
	// stack C's shards.
	certified, assembled, err := classify(ctx, m, []*client.Client{c.shards[0].cl, c.shards[1].cl}, routedProbes(in))
	if err != nil {
		return nil, err
	}
	ops := take(routedStream(certified, assembled, seed, 0), tracedOps[wlRouted])

	before := registryCounters(b.reg)
	out := make([]opTrace, 0, len(ops))
	for id, o := range ops {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ot := opTrace{op: o, class: o.Class}
		q := toQuery(o)
		owner := c.shards[m.OwnerOf(o.V)].cl
		first := len(t.spans)
		var err error
		t.timed(wlRouted, id, "shard.search", "router", o.Class, func() { _, err = owner.ShardSearch(ctx, q) })
		if err == nil && o.Class == "assembled" {
			var exp *client.ShardExpansion
			t.timed(wlRouted, id, "shard.expand", "router", o.Class, func() { exp, err = owner.ShardExpand(ctx, queryK, []int64{int64(o.V)}) })
			if err == nil {
				enc, _ := json.Marshal(exp)
				ot.respBytes = len(enc)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("routed op %d on the shard legs: %w", id, err)
		}
		body, _ := json.Marshal(q)
		legsBefore := b.shardHandlerMs()
		t.timed(wlRouted, id, "router", "client", o.Class, func() { _, err = serve(b.rt, "POST", "/v1/query", body) })
		if err != nil {
			return nil, err
		}
		ot.legsMs = b.shardHandlerMs() - legsBefore
		var got *client.Result
		t.timed(wlRouted, id, "client", "", o.Class, func() { got, err = a.cl.Query(ctx, q) })
		if err != nil {
			return nil, fmt.Errorf("routed op %d through the client: %w", id, err)
		}
		ot.coreMicros = got.Stats.ElapsedMicros
		t.finish(first, &ot)
		// The direct server is outside the nesting: a separate span tree.
		i := t.timed(wlRouted, id, "direct", "", o.Class, func() { _, err = direct.cl.Query(ctx, q) })
		if err != nil {
			return nil, fmt.Errorf("routed op %d on the direct server: %w", id, err)
		}
		ot.directMs = t.spans[i].ms()
		out = append(out, ot)
	}
	ctr := registryCounters(b.reg).sub(before)
	counts["legs"] = ctr.sum("sac_router_legs_total", "")
	counts["expandRounds"] = ctr.sum("sac_router_expand_rounds_total", "")
	counts["assembledQueries"] = ctr.sum("sac_router_query_path_total", `path="assembled"`)
	counts["certifiedQueries"] = ctr.sum("sac_router_query_path_total", `path="certified"`)

	// Certificate costs, by direct calls on shard 0's subgraph.
	sv, err := shard.NewServing(m, 0)
	if err != nil {
		return nil, err
	}
	frozen := subs[0].Clone()
	frozen.Freeze()
	cert := shard.NewCert(frozen, sv)
	cert.Contained(certified[0], queryK) // the lazy per-k build is a set-up cost, not a per-call one
	var contained, expand []float64
	for _, v := range append(append([]graph.V(nil), certified...), assembled...) {
		if m.OwnerOf(v) != 0 {
			continue
		}
		// In batches: one look-up is shorter than a clock reading.
		const batch = 1000
		contained = append(contained, timeUs(func() {
			for i := 0; i < batch; i++ {
				cert.Contained(v, queryK)
			}
		})/batch)
		if len(expand) < 40 {
			expand = append(expand, timeUs(func() { cert.Expand([]graph.V{v}, queryK) })/1000)
		}
	}
	counts["certContainedUs"] = median(contained)
	counts["certExpandMs"] = median(expand)
	return out, nil
}

// timeUs runs f once and returns how long it took, in microseconds.
func timeUs(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start)) / 1e3
}

// traceResult is a finished traced run.
type traceResult struct {
	metrics   values
	spans     []span
	attempted int
	failed    int
}

// writeSpans writes the spans as JSON lines; an empty path writes nothing.
func (tr *traceResult) writeSpans(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceAll replays every workload and runs the leaf probes. e2eP50 holds,
// per workload, the end-to-end window_query_p50_ms the traced decomposition
// is checked against: the replay's median is a plain one too.
func traceAll(ctx context.Context, e *env, seed int64, sz sizing, e2eP50 map[string]float64) (*traceResult, error) {
	t := &tracer{origin: time.Now()}
	single, err := singleInputs(sz)
	if err != nil {
		return nil, err
	}
	routedIn, err := routedInputs(sz)
	if err != nil {
		return nil, err
	}
	replays := map[string][]opTrace{}
	counts := map[string]map[string]float64{}
	streams := map[string]stream{
		wlHot:   hotStream(single, seed, 0),
		wlCold:  coldStream(single, seed, 0, connsFor(wlCold)),
		wlChurn: churnStream(single, seed),
	}
	for _, w := range []string{wlHot, wlCold, wlChurn} {
		if replays[w], counts[w], err = t.replaySingle(ctx, e, w, single, take(streams[w], tracedOps[w])); err != nil {
			return nil, fmt.Errorf("traced %s: %w", w, err)
		}
	}
	counts[wlRouted] = map[string]float64{}
	if replays[wlRouted], err = t.replayRouted(ctx, routedIn, seed, counts[wlRouted]); err != nil {
		return nil, fmt.Errorf("traced %s: %w", wlRouted, err)
	}
	tr := &traceResult{metrics: layerMetrics(replays, counts), spans: t.spans}
	if err := probes(ctx, e, single, tr.metrics); err != nil {
		return nil, err
	}
	for w, ops := range replays {
		tr.attempted += len(ops)
		// Acceptance: every op's layer self times sum to its outermost span.
		for i := range ops {
			var sum float64
			for _, v := range ops[i].self {
				sum += v
			}
			if d := sum - ops[i].total; d > 0.05*ops[i].total || d < -0.05*ops[i].total {
				tr.failed++
			}
		}
		if p50, ok := e2eP50[w]; ok {
			name := "trace.vs_e2e_p50_ratio"
			if len(e2eP50) > 1 {
				name += "." + w
			}
			var outer []float64
			for i := range ops {
				if isQuery(&ops[i]) {
					outer = append(outer, ops[i].total)
				}
			}
			tr.metrics[name] = value{median(outer) / p50, "ratio", len(outer)}
		}
	}
	return tr, nil
}

// tracedRun is the driver's --trace 1: the whole traced run, plus a short
// end-to-end pass of the named workload for the numbers that need real
// processes — the traced-to-end-to-end ratio, the two end-to-end metrics too
// noisy to gate, the servers' pool clones and the generator's CPU share.
func tracedRun(ctx context.Context, e *env, workload string, seed int64, sz sizing, window time.Duration) (*traceResult, error) {
	pass := window / 2
	rr, err := e.runE2E(ctx, runConfig{Workload: workload, Seed: seed, Warmup: warmupFor(pass), Window: pass, Setups: 1, Sizing: sz})
	if err != nil {
		return nil, err
	}
	rep := report(rr, verify(rr))
	tr, err := traceAll(ctx, e, seed, sz, map[string]float64{workload: rep.Metrics["window_query_p50_ms"].Value})
	if err != nil {
		return nil, err
	}
	tr.metrics["query_p95_ms"] = rep.Metrics["query_p95_ms"]
	tr.metrics["cpu_ms_per_op"] = rep.Metrics["cpu_ms_per_op"]
	tr.metrics["loadgen.cpu_share"] = rep.Info["loadgen.cpu_share"]
	tr.metrics["snapshot.pool_clones"] = rep.Info["snapshot.pool_clones"]
	tr.attempted += rep.Attempted
	tr.failed += rep.Failed
	return tr, nil
}
