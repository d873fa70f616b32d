// Package snapshot implements MVCC-style snapshot isolation for SAC serving:
// one writer goroutine owns the mutable graph and publishes immutable Snap
// values through an atomic pointer, so queries pin a snapshot and run with
// zero locks — readers never observe torn state, and a burst of check-ins or
// edge churn never stalls a single query.
//
// Architecture:
//
//	Apply ([]graph.Write) ──► write queue ──► writer goroutine
//	                                          │  applies a batch to the
//	                                          │  mutable graph (SetLoc,
//	                                          │  kcore.Maintainer repair)
//	                                          ▼
//	                              publish: Clone + Freeze the graph,
//	                              SnapshotOnto a base Searcher (O(n) core
//	                              copy, no re-decomposition), store the
//	                              Snap in an atomic.Pointer
//	                                            ▼
//	queries ──► Current() ──► Snap.Get() ──► pooled worker rebound to the
//	            (atomic load)               pinned snapshot (AdoptFrom: O(1)),
//	                                        reading the engine's one candidate
//	                                        cache, repaired from the journal
//
// Every write is a graph.Write, the type the WAL, the replication stream,
// the standing-query layer and the graph's journal carry too. Apply checks
// a call's writes before it queues any (so a bad write fails the whole call
// at the door), and the writer takes up to batchMax queued writes per
// publication, waiting for the rest of a call it has begun so that a
// replicated message of n records publishes ⌈n/batchMax⌉ times. Every write
// waits for the publication that contains it (read-your-writes), and a burst
// is applied together and published once, so publication cost amortizes
// over the burst. That cost is an O(n) location copy, plus an O(n)
// core-slice copy only when the batch held an edge op: the graph's page
// table is copied and the pages shared with the clone, and a location-only
// publication shares the previous snapshot's core slice too.
//
// Workers rebind across snapshots instead of re-cloning, and all of them
// share one candidate cache: the pool's, which every snapshot base shares
// with the writer's searcher (core.Searcher.SnapshotOnto). The clone carries
// the writer graph's epochs and mutation journal, so the cache, stamped with
// the timeline point it last reflected, repairs itself from the journaled
// gap on the next query that reaches it: members that checked in move to
// their new rank in a sorted view, a community re-checks the edges that came
// and went and is kept unless they changed it (internal/core/repair.go). A
// query pinned to a snapshot older than the cache answers from state of its
// own and leaves the cache as it stands; one more than a journal's length
// ahead starts that cache state over.
package snapshot

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// Options configures an Engine. The zero value serves defaults.
type Options struct {
	// Persist, when non-nil, is the durability hook: the writer goroutine
	// calls it with each batch's state-changing writes — every check-in, and
	// every edge write that changed the edge set — after applying them
	// and before publishing the snapshot that contains them — so a write
	// visible to Current is already in the log (group commit: one call, and
	// under an fsync-always log one fsync, per publication). It returns the
	// log sequence number of the batch's last record, which the published
	// snapshot reports as WalSeq. If it returns an error, the batch is not
	// published, every write in it fails with the error, and the engine
	// stops accepting writes (reads keep serving the last durable snapshot):
	// a non-durable write must never look committed.
	Persist func([]graph.Write) (seq uint64, err error)
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
}

const (
	// queueLen is the writer queue capacity; writes beyond it block the
	// submitter (back-pressure, not unbounded buffering).
	queueLen = 1024
	// batchMax is the most writes the writer applies before publishing a
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

	queue  chan item
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
	persist    func([]graph.Write) (uint64, error)
	walSeq     uint64
	persistErr error
	// persistFail mirrors persistErr != nil for readers outside the writer
	// goroutine (health reporting), which may not touch persistErr itself.
	persistFail atomic.Bool

	published atomic.Uint64 // snapshots published (== latest Snap.Seq)
	applied   atomic.Uint64 // writes applied

	// onPublish is the post-publication hook, swappable at runtime (the
	// subscription layer attaches after the engine exists; a replica
	// re-attaches across engine swaps). The writer loads it once per
	// publication.
	onPublish atomic.Pointer[func(*Snap, []graph.Write)]

	// Nil-safe instruments observed by the writer goroutine.
	publishDur  *telemetry.Histogram
	batchEvents *telemetry.Histogram
}

// result is one applied write's outcome, delivered after the snapshot
// containing the write is published.
type result struct {
	changed bool
	err     error
}

// item is one queued write. lead is what the item adds to the number of
// writes the queue still owes the writer: n-1 on the first of a call's n
// writes, -1 on each later one. The writes of one call share done, and their
// results arrive on it in order.
type item struct {
	w    graph.Write
	lead int
	done chan result
}

// New takes ownership of g (the caller must not mutate or query it again),
// publishes the initial snapshot and starts the writer goroutine. Close
// releases the writer.
func New(g *graph.Graph, opt Options) *Engine {
	e := &Engine{
		g:       g,
		base:    core.NewSearcher(g),
		queue:   make(chan item, queueLen),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		persist: opt.Persist,
		walSeq:  opt.InitialSeq,
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
// The writer goroutine calls the installed hook right after each publication
// with the new snapshot and the state-changing writes it contains (the same
// list the Persist hook logs); the slice is the hook's to keep. The
// call runs on the writer's critical path — the hook must hand work off,
// never block. Safe to call at any time; publications racing the swap see
// either hook.
func (e *Engine) SetOnPublish(fn func(*Snap, []graph.Write)) {
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
func (e *Engine) QueueDepth() int { return len(e.queue) }

// Published returns the number of snapshots published so far.
func (e *Engine) Published() uint64 { return e.published.Load() }

// Applied returns the number of writes applied so far.
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

// Apply is the engine's one door for writes. It checks every write against
// the graph before it queues any, so a bad write fails the whole call and
// none of it is applied. It returns, in order, whether each write changed the
// graph, after the last publication containing them is visible to Current
// (read-your-writes). ctx is honoured until the first write is queued and
// while waiting: a call it cuts short may still be applied afterwards. A
// call that fails after queueing (ErrClosed, ErrPersist, ctx) may have
// applied a prefix of its writes.
func (e *Engine) Apply(ctx context.Context, ws []graph.Write) ([]bool, error) {
	n := e.NumVertices()
	for _, w := range ws {
		if err := w.Check(n); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	done := make(chan result, len(ws))
	cancel := ctx.Done()
	for i, w := range ws {
		it := item{w: w, lead: -1, done: done}
		if i == 0 {
			it.lead = len(ws) - 1
		}
		select {
		case e.queue <- it:
		case <-e.stop:
			return nil, ErrClosed
		case <-cancel:
			return nil, ctx.Err()
		}
		// The writer waits for the rest of a call it has begun, so once the
		// first write is queued the others follow whatever ctx does.
		cancel = nil
	}
	changed := make([]bool, len(ws))
	for i := range ws {
		r, err := e.wait(ctx, done)
		if err == nil {
			err = r.err
		}
		if err != nil {
			return nil, err
		}
		changed[i] = r.changed
	}
	return changed, nil
}

// CheckIn moves vertex v to p in the next published snapshot, with Apply's
// checks and blocking semantics.
func (e *Engine) CheckIn(ctx context.Context, v graph.V, p geom.Point) error {
	_, err := e.Apply(ctx, []graph.Write{{Kind: graph.WriteCheckin, V: v, Loc: p}})
	return err
}

// UpdateEdge inserts (insert=true) or deletes the undirected edge {u, v} in
// the next published snapshot, repairing the writer's core decomposition
// incrementally. It reports whether the edge set changed, with Apply's
// checks and blocking semantics.
func (e *Engine) UpdateEdge(ctx context.Context, u, v graph.V, insert bool) (bool, error) {
	w := graph.Write{Kind: graph.WriteRemoveEdge, V: u, W: v}
	if insert {
		w.Kind = graph.WriteAddEdge
	}
	changed, err := e.Apply(ctx, []graph.Write{w})
	if err != nil {
		return false, err
	}
	return changed[0], nil
}

// Close stops the writer goroutine and fails pending writes with ErrClosed.
// The last published snapshot remains readable.
func (e *Engine) Close() {
	e.closed.Do(func() { close(e.stop) })
	<-e.done
}

// wait receives the next result of a queued call.
func (e *Engine) wait(ctx context.Context, done chan result) (result, error) {
	select {
	case r := <-done:
		return r, nil
	case <-e.stop:
		// The writer finishes a batch it has already dequeued even as stop
		// closes, so an applied-and-published write must never be reported
		// as failed: wait for the writer to exit (e.done), then a final
		// non-blocking drain of done is authoritative — nothing can send on
		// it afterwards.
		select {
		case r := <-done:
			return r, nil
		case <-e.done:
		}
		select {
		case r := <-done:
			return r, nil
		default:
		}
		return result{}, ErrClosed
	case <-ctx.Done():
		// The write may still be applied later (documented); prefer a
		// result that already landed.
		select {
		case r := <-done:
			return r, nil
		default:
		}
		return result{}, ctx.Err()
	}
}

// writer is the single goroutine that owns the mutable graph: it drains
// bursts of writes, applies them, logs the batch through the persist hook
// (one group commit per burst), publishes one snapshot, and only then
// releases the writes' waiters.
func (e *Engine) writer() {
	defer close(e.done)
	pending := make([]item, 0, batchMax)
	results := make([]result, 0, batchMax)
	applied := make([]graph.Write, 0, batchMax)
	owed := 0 // writes of calls already begun that are still to be dequeued
	for {
		select {
		case <-e.stop:
			return
		case it := <-e.queue:
			pending = append(pending[:0], it)
			owed += it.lead
		drain:
			for len(pending) < batchMax {
				var more item
				if owed > 0 {
					// A call is still queueing its writes: wait for them, so
					// that it publishes in as few snapshots as batchMax allows.
					select {
					case more = <-e.queue:
					case <-e.stop:
						return
					}
				} else {
					select {
					case more = <-e.queue:
					default:
						break drain
					}
				}
				pending = append(pending, more)
				owed += more.lead
			}
			// After a persistence failure the engine is read-only: the
			// mutable graph already diverged from the last durable state, so
			// applying anything more could only widen the gap. Fail the
			// whole batch without touching the graph.
			if e.persistErr != nil {
				for _, it := range pending {
					it.done <- result{err: e.persistErr}
				}
				continue
			}
			results = results[:0]
			applied = applied[:0]
			for _, it := range pending {
				changed, err := e.base.Apply(it.w)
				if err == nil {
					e.applied.Add(1)
				}
				results = append(results, result{changed: changed, err: err})
				if changed {
					applied = append(applied, it.w)
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
					for _, it := range pending {
						it.done <- result{err: e.persistErr}
					}
					continue
				}
				e.walSeq = seq
			}
			// Publish only when the batch actually moved an epoch: a batch
			// of rejected or no-op writes (re-inserting a present edge, say)
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
					(*fn)(snap, slices.Clone(applied))
				}
			}
			for i, it := range pending {
				it.done <- results[i]
			}
		}
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
// and topology epochs it was frozen at. Its answers come through one door,
// Answer (answer.go). A Snap is safe for any number of concurrent readers;
// Get/Put satisfy the batch package's searcher source, so whole batches run
// pinned to one snapshot.
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

// Structure returns the structure-cohesiveness metric the snapshot serves.
func (sn *Snap) Structure() core.Structure { return sn.base.Structure() }

// Get returns a pooled worker rebound to this snapshot. Queries on it see
// exactly the published state, whatever the writer does meanwhile. Return
// the worker with Put.
func (sn *Snap) Get() *core.Searcher { return sn.eng.pool.GetFor(sn.base) }

// Put returns a worker obtained from Get.
func (sn *Snap) Put(s *core.Searcher) { sn.eng.pool.Put(s) }
