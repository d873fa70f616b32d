package main

import (
	"bytes"
	"context"
	"fmt"

	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/spatial"
	"sacsearch/internal/wal"
)

// perLayer is the per-layer metric list of BENCHMARK.json: what a traced
// run (--trace 1) emits. Layer names are package names. Timings are p50
// over the traced ops unless the name says otherwise; "better" is the
// direction an optimisation of that layer moves the number, and carries no
// bound. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "client.roundtrip_self.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.query_self.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.checkin_self.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.resp_bytes.mean", Unit: "B", Better: "lower"},
	{Name: "server.req_bytes.mean", Unit: "B", Better: "lower"},
	{Name: "snapshot.pin.p50_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.checkin.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.edge.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.publishes_per_write", Unit: "count", Better: "lower"},
	{Name: "snapshot.pool_clones", Unit: "count", Better: "lower"},
	{Name: "core.time_share.single_hot", Unit: "ratio", Better: "higher"},
	{Name: "core.time_share.single_cold", Unit: "ratio", Better: "higher"},
	{Name: "core.time_share.single_churn", Unit: "ratio", Better: "higher"},
	{Name: "core.time_share.routed", Unit: "ratio", Better: "higher"},
	{Name: "core.search.appfast.cold.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search.appinc.cold.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search.appacc.cold.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search.appfast.hot.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search.exactplus.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search.theta.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.closure.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.view_rebuild.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cache_drop.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.candidate_vertices_per_query", Unit: "count", Better: "lower"},
	{Name: "core.feasibility_checks_per_query", Unit: "count", Better: "lower"},
	{Name: "core.binary_iters_per_query", Unit: "count", Better: "lower"},
	{Name: "kcore.decompose.ms", Unit: "ms", Better: "lower"},
	{Name: "kcore.community.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "kcore.feasible.p50_us", Unit: "us", Better: "lower"},
	{Name: "kcore.maintain_insert.p50_us", Unit: "us", Better: "lower"},
	{Name: "kcore.maintain_remove.p50_us", Unit: "us", Better: "lower"},
	{Name: "spatial.subgrid_build.p50_us", Unit: "us", Better: "lower"},
	{Name: "spatial.in_circle.p50_us", Unit: "us", Better: "lower"},
	{Name: "geom.mcc.p50_us", Unit: "us", Better: "lower"},
	{Name: "graph.clone_freeze.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.read_binary.ms", Unit: "ms", Better: "lower"},
	{Name: "graph.add_edge.p50_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_fsync.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "wal.fsyncs_per_write", Unit: "count", Better: "lower"},
	{Name: "store.open_recover.ms", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint.ms", Unit: "ms", Better: "lower"},
	{Name: "subscribe.evals_per_write", Unit: "count", Better: "lower"},
	{Name: "subscribe.gate_skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "subscribe.eval.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "subscribe.sse_self.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.partition.ms", Unit: "ms", Better: "lower"},
	{Name: "shard.subgraph.ms", Unit: "ms", Better: "lower"},
	{Name: "shard.cert_contained.p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.cert_expand.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.search_leg.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.expand_leg.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.expand_resp_bytes.mean", Unit: "B", Better: "lower"},
	{Name: "router.certified.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "router.assembled.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "router.legs_per_assembled_query", Unit: "count", Better: "lower"},
	{Name: "router.expand_rounds_per_assembled_query", Unit: "count", Better: "lower"},
	{Name: "router.assembled_self.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "router.certified_overhead_x", Unit: "x", Better: "lower"},
	{Name: "router.assembled_overhead_x", Unit: "x", Better: "lower"},
	// The end-to-end metrics that exist on one workload only, as the traced
	// run's stack A sees them (through the client, one caller, in process).
	{Name: "trace.write.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.delta.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.certified.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.assembled.p50_ms", Unit: "ms", Better: "lower"},
	// Two end-to-end metrics of the workload the traced run was asked for,
	// from its short end-to-end pass: too noisy to gate.
	{Name: "query_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	// The benchmark's own health: a generator that ate more than half a core
	// or a ratio outside 0.7–1.3 marks a run whose numbers should not be used.
	{Name: "loadgen.cpu_share", Unit: "cores", Better: "lower"},
	{Name: "trace.vs_e2e_p50_ratio", Unit: "ratio", Better: "lower"},
}

func unitOf(name string) string {
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// collect gathers get(op) over the ops that keep accepts.
func collect(ops []opTrace, keep func(*opTrace) bool, get func(*opTrace) float64) []float64 {
	var out []float64
	for i := range ops {
		if keep(&ops[i]) {
			out = append(out, get(&ops[i]))
		}
	}
	return out
}

// Accessors for collect: a layer's self time, a layer's span, the op's
// outermost (client) span.
func selfOf(layer string) func(*opTrace) float64 {
	return func(o *opTrace) float64 { return o.self[layer] }
}
func durOf(layer string) func(*opTrace) float64 {
	return func(o *opTrace) float64 { return o.dur[layer] }
}
func total(o *opTrace) float64 { return o.total }

// Predicates for collect.
func isQuery(o *opTrace) bool { return o.op.Kind == opQuery }
func isWrite(o *opTrace) bool { return o.op.Kind != opQuery }
func ofClass(c string) func(*opTrace) bool {
	return func(o *opTrace) bool { return o.class == c }
}
func staleBy(why string) func(*opTrace) bool {
	return func(o *opTrace) bool { return isQuery(o) && o.stale == why }
}

// layerMetrics turns the four replays and their counts into the replay-
// derived part of the per-layer table.
func layerMetrics(replays map[string][]opTrace, counts map[string]map[string]float64) values {
	m := values{}
	set := func(name string, v float64, n int) { m[name] = value{Value: v, Unit: unitOf(name), Samples: n} }
	p50 := func(name string, xs []float64) { set(name, median(xs), len(xs)) }
	avg := func(name string, xs []float64) { set(name, mean(xs), len(xs)) }
	hot, cold, churn, routed := replays[wlHot], replays[wlCold], replays[wlChurn], replays[wlRouted]
	checkin, edge := ofClass("checkin"), ofClass("edge")
	certified, assembled := ofClass("certified"), ofClass("assembled")
	targeted := func(o *opTrace) bool { return o.op.Kind == opTargeted }

	// client, server, snapshot: the plumbing around a warm query and a write.
	p50("client.roundtrip_self.p50_ms", collect(hot, isQuery, selfOf("client")))
	p50("server.query_self.p50_ms", collect(hot, isQuery, selfOf("server")))
	p50("server.checkin_self.p50_ms", collect(churn, checkin, selfOf("server")))
	avg("server.req_bytes.mean", collect(hot, isQuery, func(o *opTrace) float64 { return float64(o.reqBytes) }))
	avg("server.resp_bytes.mean", collect(hot, isQuery, func(o *opTrace) float64 { return float64(o.respBytes) }))
	p50("snapshot.checkin.p50_ms", collect(churn, checkin, selfOf("snapshot")))
	p50("snapshot.edge.p50_ms", collect(churn, edge, selfOf("snapshot")))
	cc := counts[wlChurn]
	writes := int(cc["writes"])
	set("snapshot.publishes_per_write", cc["publishes"]/cc["writes"], writes)

	// core. The time share is the typical op's, not Σ ÷ Σ: a replay is a few
	// hundred ops, and the handful that land on a freshly cloned pool
	// searcher (a 28 ms view rebuild among 1 ms hits) would otherwise decide
	// the sum.
	for w, ops := range replays {
		p50("core.time_share."+w, collect(ops, isQuery, func(o *opTrace) float64 { return float64(o.coreMicros) / 1000 / o.total }))
	}
	for _, algo := range []string{"appfast", "appinc", "appacc"} {
		p50("core.search."+algo+".cold.p50_ms", collect(cold, func(o *opTrace) bool { return o.op.Algo == algo }, selfOf("core")))
	}
	hotCore := collect(hot, staleBy(""), selfOf("core"))
	p50("core.search.appfast.hot.p50_ms", hotCore)
	afterCheckin, afterEdge := collect(churn, staleBy("checkin"), selfOf("core")), collect(churn, staleBy("edge"), selfOf("core"))
	set("core.view_rebuild.p50_ms", median(afterCheckin)-median(hotCore), len(afterCheckin))
	set("core.cache_drop.p50_ms", median(afterEdge)-median(hotCore), len(afterEdge))
	avg("core.cache_hit_ratio", collect(hot, isQuery, func(o *opTrace) float64 { return float64(o.stats.CacheHits) }))
	avg("core.candidate_vertices_per_query", collect(cold, isQuery, func(o *opTrace) float64 { return float64(o.stats.CandidateSize) }))
	avg("core.feasibility_checks_per_query", collect(cold, isQuery, func(o *opTrace) float64 { return float64(o.stats.FeasibilityChecks) }))
	avg("core.binary_iters_per_query", collect(cold, isQuery, func(o *opTrace) float64 { return float64(o.stats.BinaryIters) }))

	// wal, store, subscribe: counts over the churn replay's writes.
	set("wal.bytes_per_write", cc["walBytes"]/cc["writes"], writes)
	set("wal.fsyncs_per_write", cc["fsyncs"]/cc["writes"], writes)
	set("store.checkpoint.ms", cc["checkpointMs"], 1)
	set("store.open_recover.ms", cc["recoverMs"], 1)
	set("subscribe.evals_per_write", cc["evals"]/cc["writes"], writes)
	set("subscribe.gate_skip_ratio", cc["skipped"]/(cc["skipped"]+cc["evals"]), int(cc["skipped"]+cc["evals"]))
	p50("subscribe.eval.p50_ms", collect(churn, targeted, func(o *opTrace) float64 { return o.evalMs }))
	// What SSE and HTTP add: the delta as the client saw it, minus the same
	// write and evaluation in process.
	p50("subscribe.sse_self.p50_ms", collect(churn, targeted, func(o *opTrace) float64 { return o.deltaMs - (o.dur["snapshot"] + o.evalMs) }))
	p50("trace.delta.p50_ms", collect(churn, targeted, func(o *opTrace) float64 { return o.deltaMs }))
	p50("trace.write.p50_ms", collect(churn, isWrite, total))

	// shard, router.
	rc := counts[wlRouted]
	set("shard.partition.ms", rc["partitionMs"], 1)
	set("shard.subgraph.ms", rc["subgraphMs"], 2)
	set("shard.cert_contained.p50_us", rc["certContainedUs"], 0)
	set("shard.cert_expand.p50_ms", rc["certExpandMs"], 0)
	p50("shard.search_leg.p50_ms", collect(routed, isQuery, durOf("shard.search")))
	p50("shard.expand_leg.p50_ms", collect(routed, assembled, durOf("shard.expand")))
	avg("shard.expand_resp_bytes.mean", collect(routed, assembled, func(o *opTrace) float64 { return float64(o.respBytes) }))
	p50("router.certified.p50_ms", collect(routed, certified, durOf("router")))
	p50("router.assembled.p50_ms", collect(routed, assembled, durOf("router")))
	queries := int(rc["assembledQueries"])
	set("router.legs_per_assembled_query", (rc["legs"]-rc["certifiedQueries"])/rc["assembledQueries"], queries)
	set("router.expand_rounds_per_assembled_query", rc["expandRounds"]/rc["assembledQueries"], queries)
	// An estimate, and labelled so: the router handler's time minus the time
	// its shards spent in their own handlers meanwhile. What is left is the
	// router's own work plus the HTTP hops to the shards; legs that overlap
	// within a round are counted twice, which understates it.
	p50("router.assembled_self.p50_ms", collect(routed, assembled, func(o *opTrace) float64 { return o.dur["router"] - o.legsMs }))
	direct := func(o *opTrace) float64 { return o.directMs }
	set("router.certified_overhead_x", median(collect(routed, certified, total))/median(collect(routed, certified, direct)), 0)
	set("router.assembled_overhead_x", median(collect(routed, assembled, total))/median(collect(routed, assembled, direct)), 0)
	p50("trace.certified.p50_ms", collect(routed, certified, total))
	p50("trace.assembled.p50_ms", collect(routed, assembled, total))
	return m
}

// probeReps is how often each leaf probe is repeated per hot-set answer.
const probeReps = 5

// probes times the leaf layers by direct calls on the inputs the traced ops
// produce — candidate sets, member points, prefixes — and the set-up costs
// by single timed calls.
func probes(ctx context.Context, e *env, in *inputs, m values) error {
	set := func(name string, v float64, n int) { m[name] = value{Value: v, Unit: unitOf(name), Samples: n} }
	p50 := func(name string, xs []float64) { set(name, median(xs), len(xs)) }
	g := in.g

	// kcore: the decomposition (a boot cost), community extraction, and the
	// restricted peel on each hot answer's member set.
	var decompose []float64
	var cores []int32
	for i := 0; i < 3; i++ {
		decompose = append(decompose, timeUs(func() { cores = kcore.Decompose(g) })/1000)
	}
	p50("kcore.decompose.ms", decompose)

	s := core.NewSearcher(g)
	peeler := kcore.NewPeeler(g)
	var sg spatial.SubGrid
	var community, closure, feasible, build, inCircle, mcc []float64
	var pts []geom.Point
	var dst []graph.V
	for _, q := range in.hot {
		res, err := s.Search(ctx, core.Query{Algo: "appfast", Q: q, K: queryK})
		if err != nil {
			return fmt.Errorf("probe query on %d: %w", q, err)
		}
		for r := 0; r < probeReps; r++ {
			community = append(community, timeUs(func() { kcore.CommunityOf(g, cores, q, queryK) })/1000)
			closure = append(closure, timeUs(func() { s.CandidateClosure(q, queryK) })/1000)
			feasible = append(feasible, timeUs(func() { peeler.Feasible(res.Members, q, queryK) }))
			build = append(build, timeUs(func() { sg.Build(g, res.Members, 0) }))
			inCircle = append(inCircle, timeUs(func() { dst = sg.InCircle(res.MCC, dst[:0]) }))
			pts = g.Points(res.Members, pts[:0])
			mcc = append(mcc, timeUs(func() { geom.MCC(pts) }))
		}
	}
	p50("kcore.community.p50_ms", community)
	p50("core.closure.p50_ms", closure)
	p50("kcore.feasible.p50_us", feasible)
	p50("spatial.subgrid_build.p50_us", build)
	p50("spatial.in_circle.p50_us", inCircle)
	p50("geom.mcc.p50_us", mcc)

	// Edge maintenance, on the edges the churn schedule inserts.
	var pairs [][2]graph.V
	for next := churnStream(in, 1); len(pairs) < 64; {
		if o := next(); o.Kind == opEdge && o.Insert {
			pairs = append(pairs, [2]graph.V{o.V, o.W})
		}
	}
	mg := g.Clone()
	maint := kcore.NewMaintainer(mg, append([]int32(nil), cores...))
	plain := g.Clone()
	var insert, remove, addEdge []float64
	for _, p := range pairs {
		insert = append(insert, timeUs(func() { maint.InsertEdge(p[0], p[1]) }))
		remove = append(remove, timeUs(func() { maint.RemoveEdge(p[0], p[1]) }))
		addEdge = append(addEdge, timeUs(func() { plain.AddEdge(p[0], p[1]) }))
	}
	p50("kcore.maintain_insert.p50_us", insert)
	p50("kcore.maintain_remove.p50_us", remove)
	p50("graph.add_edge.p50_us", addEdge)

	// graph: what one publication copies, and what a boot from a file reads.
	var clone, read []float64
	for i := 0; i < 20; i++ {
		clone = append(clone, timeUs(func() { g.Clone().Freeze() })/1000)
	}
	p50("graph.clone_freeze.p50_ms", clone)
	var file bytes.Buffer
	if err := graph.WriteBinary(&file, g); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		var err error
		read = append(read, timeUs(func() { _, err = graph.ReadBinary(bytes.NewReader(file.Bytes())) })/1000)
		if err != nil {
			return err
		}
	}
	p50("graph.read_binary.ms", read)

	// snapshot: pinning the current snapshot and borrowing a searcher, in
	// batches because one pin is shorter than a clock reading.
	eng := snapshot.New(g.Clone(), snapshot.Options{})
	var pin []float64
	const batch = 200
	for i := 0; i < 50; i++ {
		pin = append(pin, timeUs(func() {
			for j := 0; j < batch; j++ {
				sn := eng.Current()
				sn.Put(sn.Get())
			}
		})/batch)
	}
	eng.Close()
	p50("snapshot.pin.p50_us", pin)

	// wal: one record appended and fsynced, the floor under every write.
	dir, err := e.tempDir("wal-")
	if err != nil {
		return err
	}
	log, err := wal.Open(dir, 0, wal.Options{Policy: wal.PolicyAlways})
	if err != nil {
		return err
	}
	var appendMs []float64
	for i := 0; i < 100 && err == nil; i++ {
		rec := []wal.Record{{Kind: wal.KindCheckin, V: graph.V(i), Loc: geom.Point{X: 0.5, Y: 0.5}}}
		appendMs = append(appendMs, timeUs(func() { _, err = log.Append(rec) })/1000)
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	p50("wal.append_fsync.p50_ms", appendMs)

	// Exact+ and θ-SAC have no end-to-end workload (one syn1 query takes
	// seconds to minutes); they appear only here, on a 600-vertex fixture,
	// with θ twice the optimal radius.
	small, err := dataset.Load("syn1", 0.02)
	if err != nil {
		return err
	}
	fin, err := newInputs(small.Graph)
	if err != nil {
		return err
	}
	fs := core.NewSearcher(small.Graph)
	fs.SetCandidateCaching(false)
	var exact, theta []float64
	for _, q := range fin.hot {
		var res *core.Result
		exact = append(exact, timeUs(func() { res, err = fs.Search(ctx, core.Query{Algo: "exact+", Q: q, K: queryK}) })/1000)
		if err != nil {
			return fmt.Errorf("exact+ on fixture vertex %d: %w", q, err)
		}
		th := 2 * res.MCC.R
		theta = append(theta, timeUs(func() { _, err = fs.Search(ctx, core.Query{Algo: "theta", Q: q, K: queryK, Theta: &th}) })/1000)
		if err != nil {
			return fmt.Errorf("theta on fixture vertex %d: %w", q, err)
		}
	}
	p50("core.search.exactplus.p50_ms", exact)
	p50("core.search.theta.p50_ms", theta)
	return nil
}
