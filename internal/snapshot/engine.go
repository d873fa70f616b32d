// Package snapshot implements MVCC-style snapshot isolation for SAC serving:
// one writer goroutine owns the mutable graph and publishes immutable Snap
// values through an atomic pointer, so queries pin a snapshot and run with
// zero locks — readers never observe torn state, and a burst of check-ins or
// edge churn never stalls a single query.
//
// Architecture:
//
//	CheckIn / UpdateEdge ──► events channel ──► writer goroutine
//	                                            │  applies a batch to the
//	                                            │  mutable graph (SetLoc,
//	                                            │  kcore.Maintainer repair)
//	                                            ▼
//	                              publish: Clone + Freeze the graph,
//	                              SnapshotOnto a base Searcher (O(n) core
//	                              copy, no re-decomposition), store the
//	                              Snap in an atomic.Pointer
//	                                            ▼
//	queries ──► Current() ──► Snap.Get() ──► pooled worker rebound to the
//	            (atomic load)               pinned snapshot (AdoptFrom: O(1),
//	                                        warm candidate cache kept and
//	                                        repaired from the journal)
//
// Writers batch: every event waits for the publication that contains it
// (read-your-writes), but a burst of events is applied together and
// published once, so publication cost amortizes over the burst. That cost is
// an O(n) location copy, plus an O(n) core-slice copy only when the batch
// held an edge op: the CSR, the delta layer's rows and — until the writer's
// next edge op — its row map are shared with the clone, and a location-only
// publication shares the previous snapshot's core slice too.
//
// Workers rebind across snapshots instead of re-cloning. The clone carries
// the writer graph's epochs and mutation journal, so a worker's candidate
// cache, stamped with the timeline point it last reflected, repairs itself
// from the journaled gap on its next query: members that checked in move to
// their new rank in a sorted view, a community re-checks the edges that came
// and went and is kept unless they changed it (core.Searcher.AdoptFrom,
// internal/core/repair.go). Adopting an older snapshot than the worker last
// served, or one more than a journal's length ahead, starts that cache state
// over.
package snapshot

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/telemetry"
)

// ErrClosed is returned by writes submitted to a closed Engine.
var ErrClosed = errors.New("snapshot: engine closed")

// ErrPersist marks writes lost to a durability failure: the Persist hook
// returned an error, the batch was not published, and the engine is
// read-only from then on. errors.Is(err, ErrPersist) identifies both the
// failed batch's writes and every later rejected write.
var ErrPersist = errors.New("snapshot: persist failed")

// AppliedEvent describes one state-changing event the writer applied: a
// check-in, or an edge mutation that actually altered the edge set (no-op
// re-inserts and rejected events are not reported). The durability layer
// appends these to its write-ahead log before the snapshot containing them
// is published.
type AppliedEvent struct {
	// Checkin discriminates the two event shapes.
	Checkin bool
	// V and Loc describe a check-in.
	V   graph.V
	Loc geom.Point
	// U, W and Insert describe an edge mutation.
	U, W   graph.V
	Insert bool
}

// Options configures an Engine. The zero value serves defaults.
type Options struct {
	// Persist, when non-nil, is the durability hook: the writer goroutine
	// calls it with each batch's state-changing events after applying them
	// and before publishing the snapshot that contains them — so a write
	// visible to Current is already in the log (group commit: one call, and
	// under an fsync-always log one fsync, per publication). It returns the
	// log sequence number of the batch's last record, which the published
	// snapshot reports as WalSeq. If it returns an error, the batch is not
	// published, every write in it fails with the error, and the engine
	// stops accepting writes (reads keep serving the last durable snapshot):
	// a non-durable write must never look committed.
	Persist func([]AppliedEvent) (seq uint64, err error)
	// InitialSeq is the log sequence number already covered by the graph the
	// engine starts from (the recovered checkpoint plus replayed tail).
	// Snapshots report it as WalSeq until the first persisted batch.
	InitialSeq uint64
	// Metrics, when non-nil, receives the engine's instrumentation:
	// publish latency and batch-coalescing histograms plus queue-depth and
	// progress gauges read at scrape time. Gauge registration is last-wins,
	// so a replica promotion that builds a fresh engine points the scrape
	// at the live one.
	Metrics *telemetry.Registry
	// OnPublish, when non-nil, is called by the writer goroutine right after
	// each snapshot publication with the published snapshot and the
	// state-changing events the publication contains (the same list the
	// Persist hook logs). The events slice is the hook's to keep. The call
	// runs on the writer's critical path — it must hand work off, never
	// block. Replaceable later via SetOnPublish.
	OnPublish func(*Snap, []AppliedEvent)
}

const (
	// queueLen is the writer queue capacity; writes beyond it block the
	// submitter (back-pressure, not unbounded buffering).
	queueLen = 1024
	// batchMax is the most events the writer applies before publishing a
	// snapshot. Larger batches amortize publication cost under write bursts
	// at the price of write latency.
	batchMax = 128
)

// Engine owns one mutable spatial graph and serves immutable snapshots of
// it. All methods are safe for concurrent use; the mutable graph is touched
// only by the writer goroutine.
type Engine struct {
	pool *core.Pool
	cur  atomic.Pointer[Snap]

	events chan event
	stop   chan struct{}
	done   chan struct{}
	closed sync.Once

	// Writer-owned state: the live graph, the master searcher whose
	// kcore.Maintainer repairs the decomposition incrementally, and the
	// previously published snapshot (so location-only publications share its
	// immutable core slice instead of copying). Nothing outside the writer
	// goroutine may touch these after New returns.
	g    *graph.Graph
	base *core.Searcher
	prev *Snap

	// Durability state, also writer-owned: the persist hook, the log
	// sequence the next publication will carry, and the latched persistence
	// failure that turns the engine read-only.
	persist    func([]AppliedEvent) (uint64, error)
	walSeq     uint64
	persistErr error
	// persistFail mirrors persistErr != nil for readers outside the writer
	// goroutine (health reporting), which may not touch persistErr itself.
	persistFail atomic.Bool

	published atomic.Uint64 // snapshots published (== latest Snap.Seq)
	applied   atomic.Uint64 // events applied

	// onPublish is the post-publication hook, swappable at runtime (the
	// subscription layer attaches after the engine exists; a replica
	// re-attaches across engine swaps). The writer loads it once per
	// publication.
	onPublish atomic.Pointer[func(*Snap, []AppliedEvent)]

	// Nil-safe instruments observed by the writer goroutine.
	publishDur  *telemetry.Histogram
	batchEvents *telemetry.Histogram
}

type opKind uint8

const (
	opCheckin opKind = iota
	opEdge
)

// result is one applied event's outcome, delivered after the snapshot
// containing the event is published.
type result struct {
	changed bool
	err     error
}

type event struct {
	op     opKind
	v      graph.V    // opCheckin
	loc    geom.Point // opCheckin
	u, w   graph.V    // opEdge
	insert bool       // opEdge
	done   chan result
}

// New takes ownership of g (the caller must not mutate or query it again),
// publishes the initial snapshot and starts the writer goroutine. Close
// releases the writer.
func New(g *graph.Graph, opt Options) *Engine {
	e := &Engine{
		g:       g,
		base:    core.NewSearcher(g),
		events:  make(chan event, queueLen),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		persist: opt.Persist,
		walSeq:  opt.InitialSeq,
	}
	if opt.OnPublish != nil {
		e.SetOnPublish(opt.OnPublish)
	}
	snap := e.freeze()
	e.pool = core.NewPool(snap.base)
	e.cur.Store(snap)
	if reg := opt.Metrics; reg != nil {
		e.publishDur = reg.Histogram("sac_engine_publish_duration_seconds",
			"Snapshot freeze-and-publish latency in the writer loop.", nil)
		e.batchEvents = reg.Histogram("sac_engine_batch_events",
			"Events coalesced per writer batch (group commit size).",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
		reg.GaugeFunc("sac_engine_queue_depth", "Writer queue depth (pending writes).",
			func() float64 { return float64(e.QueueDepth()) })
		reg.GaugeFunc("sac_engine_published", "Snapshots published since boot.",
			func() float64 { return float64(e.Published()) })
		reg.GaugeFunc("sac_engine_applied", "Write events applied since boot.",
			func() float64 { return float64(e.Applied()) })
		reg.GaugeFunc("sac_engine_pool_clones", "Searcher clones created by the snapshot pool.",
			func() float64 { return float64(e.PoolClones()) })
	}
	go e.writer()
	return e
}

// SetOnPublish installs (or, with nil, removes) the post-publication hook.
// The writer goroutine calls the installed hook after each publication with
// the new snapshot and its state-changing events; the hook must hand work
// off rather than block the writer. Safe to call at any time; publications
// racing the swap see either hook.
func (e *Engine) SetOnPublish(fn func(*Snap, []AppliedEvent)) {
	if fn == nil {
		e.onPublish.Store(nil)
		return
	}
	e.onPublish.Store(&fn)
}

// Current returns the latest published snapshot: one atomic load, no locks.
// The snapshot stays valid (and immutable) for as long as the caller holds
// it, however many publications happen meanwhile.
func (e *Engine) Current() *Snap { return e.cur.Load() }

// QueueDepth returns the number of writes waiting for the writer goroutine —
// the publication-lag signal /v1/health reports.
func (e *Engine) QueueDepth() int { return len(e.events) }

// Published returns the number of snapshots published so far.
func (e *Engine) Published() uint64 { return e.published.Load() }

// Applied returns the number of write events applied so far.
func (e *Engine) Applied() uint64 { return e.applied.Load() }

// PoolClones returns the number of searcher workers ever created to serve
// queries — the peak-concurrency signal /v1/health reports.
func (e *Engine) PoolClones() int64 { return e.pool.Created() }

// PersistFailed reports whether the ErrPersist latch has tripped: the engine
// is read-only and every further write fails. Health reporting downgrades
// the node's status on this signal.
func (e *Engine) PersistFailed() bool { return e.persistFail.Load() }

// NumVertices returns the (immutable) vertex count.
func (e *Engine) NumVertices() int { return e.g.NumVertices() }

// CheckIn moves vertex v to p in the next published snapshot. It returns
// after that snapshot is visible to Current (read-your-writes), when ctx
// fires (the write may still be applied afterwards), or when the engine
// closes.
func (e *Engine) CheckIn(ctx context.Context, v graph.V, p geom.Point) error {
	if v < 0 || int(v) >= e.NumVertices() {
		return fmt.Errorf("snapshot: vertex %d out of range [0,%d)", v, e.NumVertices())
	}
	if !geom.Finite(p.X) || !geom.Finite(p.Y) {
		return fmt.Errorf("snapshot: coordinates (%v, %v) must be finite", p.X, p.Y)
	}
	r, err := e.submit(ctx, event{op: opCheckin, v: v, loc: p, done: make(chan result, 1)})
	if err != nil {
		return err
	}
	// A check-in itself cannot fail, but its group commit can: r.err carries
	// the persistence failure that made the write non-durable.
	return r.err
}

// UpdateEdge inserts (insert=true) or deletes the undirected edge {u, v} in
// the next published snapshot, repairing the writer's core decomposition
// incrementally. It reports whether the edge set changed, with the same
// blocking semantics as CheckIn.
func (e *Engine) UpdateEdge(ctx context.Context, u, v graph.V, insert bool) (bool, error) {
	r, err := e.submit(ctx, event{op: opEdge, u: u, w: v, insert: insert, done: make(chan result, 1)})
	if err != nil {
		return false, err
	}
	return r.changed, r.err
}

// Close stops the writer goroutine and fails pending writes with ErrClosed.
// The last published snapshot remains readable.
func (e *Engine) Close() {
	e.closed.Do(func() { close(e.stop) })
	<-e.done
}

// submit enqueues ev and waits for its post-publication result.
func (e *Engine) submit(ctx context.Context, ev event) (result, error) {
	select {
	case e.events <- ev:
	case <-e.stop:
		return result{}, ErrClosed
	case <-ctx.Done():
		return result{}, ctx.Err()
	}
	select {
	case r := <-ev.done:
		return r, nil
	case <-e.stop:
		// The writer finishes a batch it has already dequeued even as stop
		// closes, so an applied-and-published write must never be reported
		// as failed: wait for the writer to exit (e.done), then a final
		// non-blocking drain of ev.done is authoritative — nothing can send
		// on it afterwards.
		select {
		case r := <-ev.done:
			return r, nil
		case <-e.done:
		}
		select {
		case r := <-ev.done:
			return r, nil
		default:
		}
		return result{}, ErrClosed
	case <-ctx.Done():
		// The event may still be applied later (documented); prefer a
		// result that already landed.
		select {
		case r := <-ev.done:
			return r, nil
		default:
		}
		return result{}, ctx.Err()
	}
}

// writer is the single goroutine that owns the mutable graph: it drains
// bursts of events, applies them, logs the batch through the persist hook
// (one group commit per burst), publishes one snapshot, and only then
// releases the events' waiters.
func (e *Engine) writer() {
	defer close(e.done)
	pending := make([]event, 0, batchMax)
	results := make([]result, 0, batchMax)
	applied := make([]AppliedEvent, 0, batchMax)
	for {
		select {
		case <-e.stop:
			return
		case ev := <-e.events:
			pending = append(pending[:0], ev)
		drain:
			for len(pending) < batchMax {
				select {
				case more := <-e.events:
					pending = append(pending, more)
				default:
					break drain
				}
			}
			// After a persistence failure the engine is read-only: the
			// mutable graph already diverged from the last durable state, so
			// applying anything more could only widen the gap. Fail the
			// whole batch without touching the graph.
			if e.persistErr != nil {
				for _, ev := range pending {
					ev.done <- result{err: e.persistErr}
				}
				continue
			}
			results = results[:0]
			applied = applied[:0]
			for _, ev := range pending {
				r := e.apply(ev)
				results = append(results, r)
				if r.err == nil && (ev.op == opCheckin || r.changed) {
					applied = append(applied, toApplied(ev))
				}
			}
			// Group commit: the whole batch becomes durable with one hook
			// call before any of it becomes visible. On failure nothing is
			// published — readers keep the last durable snapshot — and every
			// waiter in the batch learns its write was lost.
			if e.persist != nil && len(applied) > 0 {
				seq, err := e.persist(applied)
				if err != nil {
					e.persistErr = fmt.Errorf("%w, engine is read-only: %w", ErrPersist, err)
					e.persistFail.Store(true)
					for i := range results {
						results[i] = result{err: e.persistErr}
					}
					for i, ev := range pending {
						ev.done <- results[i]
					}
					continue
				}
				e.walSeq = seq
			}
			// Publish only when the batch actually moved an epoch: a batch
			// of rejected or no-op events (re-inserting a present edge, say)
			// changed nothing, so the previous snapshot already contains
			// every write — skipping the O(n) clone keeps garbage write
			// traffic from turning into allocation churn, and snapshotSeq
			// keeps meaning "distinct published states".
			e.batchEvents.Observe(float64(len(pending)))
			if e.prev == nil ||
				e.g.LocEpoch() != e.prev.locEpoch || e.g.TopoEpoch() != e.prev.topoEpoch {
				start := time.Now()
				snap := e.freeze()
				e.cur.Store(snap)
				e.publishDur.Observe(time.Since(start).Seconds())
				if fn := e.onPublish.Load(); fn != nil {
					// The hook keeps the slice; the writer's scratch buffer
					// is reused next batch, so hand over a copy.
					evs := make([]AppliedEvent, len(applied))
					copy(evs, applied)
					(*fn)(snap, evs)
				}
			}
			for i, ev := range pending {
				ev.done <- results[i]
			}
		}
	}
}

// toApplied converts an applied writer event to its durable description.
func toApplied(ev event) AppliedEvent {
	if ev.op == opCheckin {
		return AppliedEvent{Checkin: true, V: ev.v, Loc: ev.loc}
	}
	return AppliedEvent{U: ev.u, W: ev.w, Insert: ev.insert}
}

// apply mutates the writer's graph with one event. Only events that
// actually reached the graph count toward Applied; rejected ones (edge
// validation errors) do not.
func (e *Engine) apply(ev event) result {
	switch ev.op {
	case opCheckin:
		e.g.SetLoc(ev.v, ev.loc)
		e.applied.Add(1)
		return result{changed: true}
	default:
		var changed bool
		var err error
		if ev.insert {
			changed, err = e.base.ApplyEdgeInsert(ev.u, ev.w)
		} else {
			changed, err = e.base.ApplyEdgeRemove(ev.u, ev.w)
		}
		if err == nil {
			e.applied.Add(1)
		}
		return result{changed: changed, err: err}
	}
}

// freeze clones the writer's graph into an immutable view, derives its base
// searcher (O(n) core copy, no re-decomposition) and repoints the worker
// pool, returning the new snapshot.
func (e *Engine) freeze() *Snap {
	frozen := e.g.Clone()
	frozen.Freeze()
	// A publication whose topology epoch matches the previous one changed
	// only locations: the core decomposition is byte-identical, so the new
	// base shares the previous snapshot's immutable core slice.
	var coresFrom *core.Searcher
	if e.prev != nil && e.prev.topoEpoch == frozen.TopoEpoch() {
		coresFrom = e.prev.base
	}
	base := e.base.SnapshotOnto(frozen, coresFrom)
	snap := &Snap{
		eng:       e,
		g:         frozen,
		base:      base,
		seq:       e.published.Add(1),
		edges:     frozen.NumEdges(),
		locEpoch:  frozen.LocEpoch(),
		topoEpoch: frozen.TopoEpoch(),
		walSeq:    e.walSeq,
	}
	if e.pool != nil {
		e.pool.SetBase(base)
	}
	e.prev = snap
	return snap
}

// Snap is one immutable published view: a frozen graph plus a base searcher
// carrying the core decomposition as of publication, keyed by the location
// and topology epochs it was frozen at. A Snap is safe for any number of
// concurrent readers; Get/Put satisfy the batch package's searcher source,
// so whole batches run pinned to one snapshot.
type Snap struct {
	eng       *Engine
	g         *graph.Graph
	base      *core.Searcher
	seq       uint64
	edges     int
	locEpoch  uint64
	topoEpoch uint64
	walSeq    uint64
}

// Graph returns the frozen graph view. It never mutates; reading it
// concurrently is safe without locks.
func (sn *Snap) Graph() *graph.Graph { return sn.g }

// Seq returns the publication sequence number (1 = the initial snapshot).
func (sn *Snap) Seq() uint64 { return sn.seq }

// Edges returns the undirected edge count at publication.
func (sn *Snap) Edges() int { return sn.edges }

// LocEpoch returns the location epoch the snapshot was frozen at.
func (sn *Snap) LocEpoch() uint64 { return sn.locEpoch }

// TopoEpoch returns the topology epoch the snapshot was frozen at.
func (sn *Snap) TopoEpoch() uint64 { return sn.topoEpoch }

// WalSeq returns the durable log sequence this snapshot's state corresponds
// to: the graph contains the effects of exactly the log records 1..WalSeq
// (0 with no durability hook configured). The checkpointer keys its
// checkpoint files and WAL truncation on it.
func (sn *Snap) WalSeq() uint64 { return sn.walSeq }

// CoreNumber returns the k-core number of v as of this snapshot.
func (sn *Snap) CoreNumber(v graph.V) int { return sn.base.CoreNumber(v) }

// Get returns a pooled worker rebound to this snapshot. Queries on it see
// exactly the published state, whatever the writer does meanwhile. Return
// the worker with Put.
func (sn *Snap) Get() *core.Searcher { return sn.eng.pool.GetFor(sn.base) }

// Put returns a worker obtained from Get.
func (sn *Snap) Put(s *core.Searcher) { sn.eng.pool.Put(s) }
