package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sacsearch/client"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/shard"
)

// Load shape, the same for every workload: a closed loop — callers that
// each wait for their reply, which is how client, client.Set and the
// router's own legs use the system — of connsFor(workload) connections, at
// most one per CPU of the reference sandbox. Latency is timed from when the
// request was due, which in a closed loop with no think time is the previous
// completion on that connection.
const opTimeout = 5 * time.Second // an operation slower than this has failed

// runConfig is one end-to-end run.
type runConfig struct {
	Workload string
	Seed     int64
	Warmup   time.Duration
	Window   time.Duration
	Setups   int // how many times the topology is booted; setup_s is the median
	Sizing   sizing
}

// opRecord is one completed operation as the load generator saw it.
type opRecord struct {
	op         op
	conn       int
	start, end time.Time
	err        error
	// Queries: the answer, and the search time it reports. On a read-only
	// workload a vertex has one right answer for the whole run, so only the
	// first answer per (q, algo) is kept; a later one is compared with it on
	// the spot, marked if it differs, and dropped — a hot run would otherwise
	// hold a quarter of a gigabyte of identical member lists.
	res        *client.Result
	coreMicros int64
	changed    bool
	// Check-ins record where the vertex went, so that the verifier can
	// replay the log onto a reference graph.
	pos geom.Point
	// Targeted check-ins record when the delta naming the moved vertex was
	// read from the stream (zero: never).
	deltaAt time.Time
}

func (r *opRecord) latencyMs() float64 { return float64(r.end.Sub(r.start)) / 1e6 }

// runResult is everything one end-to-end run measured.
type runResult struct {
	Workload string
	WindowS  float64
	SetupS   []float64 // one sample per boot

	// All operations issued, in completion order per connection (the final
	// sweep has conn -1); the measured window is the interval [t0, t1).
	records []opRecord
	t0, t1  time.Time

	ServerCPUs  float64  // server-side CPU seconds over the window
	LoadgenCPUs float64  // the generator's own CPU seconds over the window
	RSSPeakMB   float64  // summed VmHWM of the daemons at the window's end
	PoolClones  float64  // searcher clones the daemons' pools have created
	Counters    counters // /metrics after − before the window, all daemons summed

	// Routed only: the class sizes found at set-up.
	Certified, Assembled int
	// Churn only: the standing community as tracked from the stream.
	standing map[int64]struct{}

	in *inputs
}

// inWindow reports whether r both started and completed inside the window.
func (rr *runResult) inWindow(r *opRecord) bool {
	return !r.start.Before(rr.t0) && r.end.Before(rr.t1)
}

// benchClient builds a typed client that owns exactly one connection and
// never retries: a failure must count, not hide in a retry loop.
func benchClient(url string) (*client.Client, error) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetries(0))
}

func toQuery(o op) client.Query {
	return client.Query{Q: int64(o.V), K: queryK, Algo: o.Algo}
}

// prepareInputs builds the workload's graph in process. For the routed
// workload it also writes the graph file sacshard will cut.
func (e *env) prepareInputs(cfg runConfig) (*inputs, string, error) {
	if cfg.Workload != wlRouted {
		in, err := singleInputs(cfg.Sizing)
		return in, "", err
	}
	in, err := routedInputs(cfg.Sizing)
	if err != nil {
		return nil, "", err
	}
	dir, err := e.tempDir("graph-")
	if err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, "graph.bin")
	f, err := os.Create(path)
	if err != nil {
		return nil, "", err
	}
	bw := bufio.NewWriter(f)
	err = graph.WriteBinary(bw, in.g)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return in, path, err
}

// boot starts the workload's topology once and answers one query through
// it; the elapsed time is one setup_s sample. It excludes go build and the
// benchmark's own input generation, and includes everything a deployment
// pays between launching the first process and the first answer: dataset
// generation or load, core decomposition, the first snapshot, WAL and
// checkpoint creation, partitioning, the router's topology check.
func (e *env) boot(ctx context.Context, cfg runConfig, in *inputs, graphFile string) (*stack, error) {
	start := time.Now()
	var st *stack
	var err error
	switch cfg.Workload {
	case wlRouted:
		st, err = e.bootRouted(ctx, graphFile)
	default:
		st, err = e.bootSingle(ctx, cfg.Sizing, cfg.Workload == wlChurn)
	}
	if err != nil {
		return nil, err
	}
	cl, err := benchClient(st.front)
	if err != nil {
		return nil, err
	}
	qctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if _, err := cl.Query(qctx, client.Query{Q: int64(in.hot[0]), K: queryK, Algo: "appfast"}); err != nil {
		return nil, fmt.Errorf("first query after boot: %w", err)
	}
	st.setupS = time.Since(start).Seconds()
	return st, nil
}

// classify looks up, through /v1/shard/search on the owner shard — the
// router's own check — which probed vertices certify on one shard and which
// need cross-shard assembly. shards holds one client per shard id.
func classify(ctx context.Context, m *shard.Map, shards []*client.Client, probes []graph.V) (certified, assembled []graph.V, err error) {
	for _, v := range probes {
		qctx, cancel := context.WithTimeout(ctx, opTimeout)
		verdict, err := shards[m.OwnerOf(v)].ShardSearch(qctx, client.Query{Q: int64(v), K: queryK, Algo: "appfast"})
		cancel()
		if err != nil {
			return nil, nil, fmt.Errorf("classifying vertex %d: %w", v, err)
		}
		switch {
		case verdict.Contained && verdict.NoCommunity:
		case verdict.Contained:
			certified = append(certified, v)
		default:
			assembled = append(assembled, v)
		}
	}
	if len(certified) < minClass || len(assembled) < minClass {
		return nil, nil, fmt.Errorf("routing classes too small: %d certified, %d assembled (need %d each)",
			len(certified), len(assembled), minClass)
	}
	return certified, assembled, nil
}

// classifyStack classifies against a booted topology: the shard map is the
// file sacshard wrote, the clients talk to the shard processes.
func classifyStack(ctx context.Context, st *stack, probes []graph.V) (certified, assembled []graph.V, err error) {
	f, err := os.Open(st.mapFile)
	if err != nil {
		return nil, nil, err
	}
	m, err := shard.ReadMap(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	cls := make([]*client.Client, len(st.shards))
	for i, u := range st.shards {
		if cls[i], err = benchClient(u); err != nil {
			return nil, nil, err
		}
	}
	return classify(ctx, m, cls, probes)
}

// runE2E performs one end-to-end run: boot (several times, for setup_s),
// warm up, measure, stop everything. The answers are checked afterwards by
// verify; nothing in here knows what a right answer is.
func (e *env) runE2E(ctx context.Context, cfg runConfig) (*runResult, error) {
	defer children.stopAll()
	in, graphFile, err := e.prepareInputs(cfg)
	if err != nil {
		return nil, err
	}
	rr := &runResult{Workload: cfg.Workload, WindowS: cfg.Window.Seconds(), in: in}

	var st *stack
	for i := 0; i < cfg.Setups; i++ {
		if st, err = e.boot(ctx, cfg, in, graphFile); err != nil {
			return nil, err
		}
		rr.SetupS = append(rr.SetupS, st.setupS)
		if i < cfg.Setups-1 {
			st.stop()
		}
	}

	streams := make([]stream, connsFor(cfg.Workload))
	switch cfg.Workload {
	case wlHot:
		for c := range streams {
			streams[c] = hotStream(in, cfg.Seed, c)
		}
	case wlCold:
		for c := range streams {
			streams[c] = coldStream(in, cfg.Seed, c, len(streams))
		}
	case wlChurn:
		streams[0] = churnStream(in, cfg.Seed) // a second connection holds the subscription
	case wlRouted:
		certified, assembled, err := classifyStack(ctx, st, routedProbes(in))
		if err != nil {
			return nil, err
		}
		rr.Certified, rr.Assembled = len(certified), len(assembled)
		for c := range streams {
			streams[c] = routedStream(certified, assembled, cfg.Seed, c)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}

	var standing *tracker
	if cfg.Workload == wlChurn {
		if standing, err = openStanding(ctx, st.front, in.hot[0]); err != nil {
			return nil, err
		}
		defer standing.close()
	}

	// The load runs from now until t1; the window opens after the warm-up.
	begin := time.Now()
	rr.t0 = begin.Add(cfg.Warmup)
	rr.t1 = rr.t0.Add(cfg.Window)
	logs := make([][]opRecord, len(streams))
	drivers := make([]*driver, len(streams))
	for c := range streams {
		cl, err := benchClient(st.front)
		if err != nil {
			return nil, err
		}
		drivers[c] = &driver{ctx: ctx, cl: cl, conn: c, next: streams[c], until: rr.t1, standing: standing, in: in}
	}
	var wg sync.WaitGroup
	for c, d := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[c] = d.run()
		}()
	}

	// Sample the daemons at both edges of the window: CPU time so far, and
	// their counters.
	type edge struct {
		cpu, self float64
		ctr       counters
	}
	sampleAt := func(t time.Time) (edge, error) {
		select {
		case <-time.After(time.Until(t)):
		case <-ctx.Done():
			return edge{}, ctx.Err()
		}
		cpu, err := cpuSeconds(st.pids())
		if err != nil {
			return edge{}, err
		}
		ctr, err := scrapeAll(st.urls())
		return edge{cpu: cpu, self: selfCPUSeconds(), ctr: ctr}, err
	}
	before, err := sampleAt(rr.t0)
	var after edge
	if err == nil {
		after, err = sampleAt(rr.t1)
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	rr.ServerCPUs = after.cpu - before.cpu
	rr.LoadgenCPUs = after.self - before.self
	rr.Counters = after.ctr.sub(before.ctr)
	rr.PoolClones = after.ctr.sum("sac_engine_pool_clones", "")
	if rr.RSSPeakMB, err = rssPeakMB(st.pids()); err != nil {
		return nil, err
	}
	for _, l := range logs {
		rr.records = append(rr.records, l...)
	}

	if cfg.Workload == wlChurn {
		// The fixed final sweep: with the writes over, ask a fixed set of
		// queries whose answers the verifier recomputes on the replayed graph.
		sweep, err := benchClient(st.front)
		if err != nil {
			return nil, err
		}
		for _, v := range sweepVertices(in) {
			rec := opRecord{op: op{Kind: opQuery, V: v, Algo: "appfast"}, conn: -1, start: time.Now()}
			qctx, cancel := context.WithTimeout(ctx, opTimeout)
			rec.res, rec.err = sweep.Query(qctx, toQuery(rec.op))
			cancel()
			rec.end = time.Now()
			rr.records = append(rr.records, rec)
		}
		rr.standing = standing.snapshot()
	}
	return rr, nil
}

// driver is one connection's closed loop.
type driver struct {
	ctx      context.Context
	cl       *client.Client
	conn     int
	next     stream
	until    time.Time
	in       *inputs
	standing *tracker // churn only

	moves *mover                       // churn: resolves check-ins to positions
	first map[answerKey]*client.Result // read-only: the first answer per (q, algo)
}

// dedupe keeps only the first answer per (q, algo) on a read-only workload.
func (d *driver) dedupe(rec *opRecord) {
	if d.standing != nil {
		return // the graph changes under churn: every answer is kept
	}
	if d.first == nil {
		d.first = map[answerKey]*client.Result{}
	}
	k := answerKey{rec.op.V, rec.op.Algo}
	if prev, ok := d.first[k]; ok {
		rec.changed = !sameResponse(k.algo, prev, rec.res)
		rec.res = nil
		return
	}
	d.first[k] = rec.res
}

// mover turns the schedule's check-ins into positions: it tracks where every
// vertex currently is, as sent, and which standing-community member a
// targeted check-in has sent away. The end-to-end loop and the traced replay
// resolve their check-ins through the same mover, so they move the same
// vertices to the same places.
type mover struct {
	q    graph.V      // the standing query's vertex
	locs []geom.Point // current location of every vertex
	away *exile       // the member currently at the far corner, if any
}

// exile is a standing-community member a targeted check-in sent to the far
// corner; the next targeted check-in brings it home, so the community the
// stream watches is stationary over the run.
type exile struct {
	v    graph.V
	home geom.Point
}

func newMover(in *inputs) *mover {
	return &mover{q: in.hot[0], locs: append([]geom.Point(nil), in.g.Locs()...)}
}

// resolve returns the vertex a check-in moves and where to. A scheduled
// check-in steps from the vertex's current location; a targeted one sends
// the lowest-id current member other than q to the corner farthest from q,
// or, if one is away already, brings that one home.
func (m *mover) resolve(o op, standing *tracker) (graph.V, geom.Point, error) {
	v, pos := o.V, geom.Point{}
	switch {
	case o.Kind == opCheckin:
		pos = geom.Point{X: clamp01(m.locs[v].X + o.DX), Y: clamp01(m.locs[v].Y + o.DY)}
	case m.away != nil:
		v, pos, m.away = m.away.v, m.away.home, nil
	default:
		low, ok := standing.lowestMember(int64(m.q))
		if !ok {
			return 0, pos, errors.New("standing community has no member to move")
		}
		v = graph.V(low)
		m.away = &exile{v: v, home: m.locs[v]}
		pos = farCorner(m.locs[m.q])
	}
	m.locs[v] = pos
	return v, pos, nil
}

func (d *driver) run() []opRecord {
	var log []opRecord
	if d.standing != nil {
		d.moves = newMover(d.in)
	}
	due := time.Now()
	for due.Before(d.until) && d.ctx.Err() == nil {
		rec := opRecord{op: d.next(), conn: d.conn, start: due}
		ctx, cancel := context.WithTimeout(d.ctx, opTimeout)
		switch rec.op.Kind {
		case opQuery:
			rec.res, rec.err = d.cl.Query(ctx, toQuery(rec.op))
			if rec.err == nil {
				rec.coreMicros = rec.res.Stats.ElapsedMicros
				d.dedupe(&rec)
			}
		case opEdge:
			_, rec.err = d.cl.Edge(ctx, int64(rec.op.V), int64(rec.op.W), rec.op.Insert)
		default:
			if rec.op.V, rec.pos, rec.err = d.moves.resolve(rec.op, d.standing); rec.err == nil {
				rec.err = d.cl.CheckIn(ctx, int64(rec.op.V), rec.pos.X, rec.pos.Y)
			}
		}
		cancel()
		rec.end = time.Now()
		if rec.op.Kind == opTargeted && rec.err == nil {
			// The loop waits for the pushed delta before it goes on.
			wctx, cancel := context.WithTimeout(d.ctx, opTimeout)
			rec.deltaAt, rec.err = d.standing.waitMoved(wctx, int64(rec.op.V), rec.start)
			cancel()
		}
		log = append(log, rec)
		due = time.Now()
	}
	return log
}

// farCorner is the corner of the unit square farthest from p, slightly
// inset.
func farCorner(p geom.Point) geom.Point {
	c := geom.Point{X: 0.001, Y: 0.001}
	if p.X < 0.5 {
		c.X = 0.999
	}
	if p.Y < 0.5 {
		c.Y = 0.999
	}
	return c
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// sweepSize is how many fixed queries close a churn run.
const sweepSize = 50

// sweepVertices is the fixed final sweep: the hot set, then eligible
// vertices at even spacing.
func sweepVertices(in *inputs) []graph.V {
	out := append([]graph.V(nil), in.hot...)
	step := len(in.eligible) / (sweepSize - len(out))
	for i := 0; len(out) < sweepSize; i++ {
		out = append(out, in.eligible[i*step])
	}
	return out
}

// tracker follows one standing query's stream: the current community, and
// when each vertex last joined or left it.
type tracker struct {
	release func()        // detaches from the stream's source
	stop    chan struct{} // closed by close
	done    chan struct{} // closed by the feeding goroutine when it ends

	mu      sync.Mutex
	members map[int64]struct{}
	movedAt map[int64]time.Time
	events  int
	changed chan struct{} // closed and replaced on every event
}

func newTracker(release func()) *tracker {
	return &tracker{release: release, stop: make(chan struct{}), done: make(chan struct{}),
		members: map[int64]struct{}{}, movedAt: map[int64]time.Time{}, changed: make(chan struct{})}
}

// openStanding opens the standing query on its own connection and waits for
// the init event.
func openStanding(ctx context.Context, url string, q graph.V) (*tracker, error) {
	cl, err := benchClient(url)
	if err != nil {
		return nil, err
	}
	sub, err := cl.Subscribe(ctx, client.Query{Q: int64(q), K: queryK, Algo: "appfast"}, &client.SubscribeOptions{Buffer: 64})
	if err != nil {
		return nil, fmt.Errorf("subscribing on vertex %d: %w", q, err)
	}
	t := newTracker(sub.Close)
	go func() {
		defer close(t.done)
		for ev := range sub.Events {
			t.apply(ev)
		}
	}()
	wctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	if err := t.wait(wctx, func() bool { return t.events > 0 }); err != nil {
		t.close()
		return nil, fmt.Errorf("no init event on the standing query: %w", err)
	}
	return t, nil
}

func (t *tracker) apply(ev client.SubEvent) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case "init":
		t.members = map[int64]struct{}{}
		for _, v := range ev.Members {
			t.members[v] = struct{}{}
		}
	case "delta":
		for _, v := range ev.Joined {
			t.members[v] = struct{}{}
			t.movedAt[v] = now
		}
		for _, v := range ev.Left {
			delete(t.members, v)
			t.movedAt[v] = now
		}
	}
	t.events++
	close(t.changed)
	t.changed = make(chan struct{})
}

// wait blocks until pred (called with the lock held) is true.
func (t *tracker) wait(ctx context.Context, pred func() bool) error {
	for {
		t.mu.Lock()
		ok, ch := pred(), t.changed
		t.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-ch:
		case <-t.done:
			return errors.New("subscription stream ended")
		case <-ctx.Done():
			return fmt.Errorf("delta not delivered: %w", ctx.Err())
		}
	}
}

// waitMoved blocks until a delta naming v has been read at or after since,
// and returns when it was read.
func (t *tracker) waitMoved(ctx context.Context, v int64, since time.Time) (time.Time, error) {
	var at time.Time
	err := t.wait(ctx, func() bool {
		at = t.movedAt[v]
		return !at.Before(since)
	})
	return at, err
}

// lowestMember returns the lowest-id current member other than q.
func (t *tracker) lowestMember(q int64) (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	best, ok := int64(0), false
	for v := range t.members {
		if v != q && (!ok || v < best) {
			best, ok = v, true
		}
	}
	return best, ok
}

func (t *tracker) snapshot() map[int64]struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]struct{}, len(t.members))
	for v := range t.members {
		out[v] = struct{}{}
	}
	return out
}

func (t *tracker) close() {
	close(t.stop)
	t.release()
	<-t.done
}
