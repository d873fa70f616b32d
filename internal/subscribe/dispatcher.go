package subscribe

import (
	"errors"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sacsearch/internal/core"
)

// sweepEvery is the reap cadence for expired detached subscriptions.
const sweepEvery = 30 * time.Second

// Backend is what a serving front-end supplies to the Dispatcher: how its
// change notifications decide whether a standing query's answer may have
// moved, and how one standing query is answered. P is the front-end's
// pending summary — whatever it coalesces between dispatch rounds (Merge):
// applied events plus the published snapshot on a single engine, moved
// vertices, a topology flag and the shards heard from off the shard feeds
// on a router.
//
// Gate and Evaluate are the seam every invalidation rule plugs into. The
// soundness obligation is Gate's alone: it may return false only when no
// change summarized in p can alter sub's answer, judged against whatever
// Evaluate recorded in sub.Gate the last time it succeeded. A rule that
// cannot prove that must return true; nothing else in the dispatcher can
// make a skipped re-evaluation safe. Every algorithm, θ-SAC included
// (internal/core/theta.go), reads only the candidate set X, so one gate on
// X serves them all: a single engine asks its view store whether X stood
// and no write moved a member or joined two (core.Searcher.Stood); the
// router wakes a certified answer on its owner shard's frames alone, and an
// assembled one on any topology change, any resync and a check-in of a
// vertex its last evaluation gathered.
type Backend[P any] interface {
	// Begin fixes the state one dispatch round runs against. p is the
	// coalesced summary — its zero value on a registration-only round — and
	// Begin may complete it (a single engine pins the snapshot here). seq is
	// that state's sequence number, recorded as ProcessedSeq once the round
	// is done; ok = false abandons the round, leaving initial evaluations
	// pending until the next notification.
	Begin(p *P) (seq uint64, ok bool)
	// Gate reports whether the changes in p can have altered sub's answer.
	// It runs on the dispatch goroutine, only for subscriptions whose last
	// evaluation succeeded.
	Gate(sub *Sub, p *P) bool
	// Evaluate answers sub's query on the round's state and refreshes
	// sub.Gate for the next Gate call. A query with no community is a
	// result (EvalResult.NoCommunity), not an error; an error leaves the
	// subscription's last result standing and forces a retry on the next
	// notification. Evaluations of different subscriptions run concurrently,
	// so p is read-only here. The evaluation's deadline is Evaluate's own.
	Evaluate(sub *Sub, p *P) (*EvalResult, error)
}

// Dispatcher is the one standing-query driver in the tree. It coalesces a
// front-end's notifications into a pending summary, and in rounds — one at a
// time, each covering everything that arrived since the last — filters the
// registered subscriptions through the Backend's gate, re-evaluates the
// survivors on a bounded set of workers and applies the diffs to the Hub.
// Subscriptions awaiting their first result, or whose last evaluation
// failed, are evaluated on every round regardless of the gate.
type Dispatcher[P any] struct {
	hub *Hub
	be  Backend[P]
	log *slog.Logger

	mu   sync.Mutex
	pend P
	has  bool      // a notification arrived since the last round
	reg  bool      // a registration arrived since the last round
	at   time.Time // arrival of the oldest un-dispatched notification

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	// processed is the newest Begin sequence whose round completed.
	processed atomic.Uint64

	closeOnce sync.Once
}

// NewDispatcher builds the delivery core from hub, starts the dispatch
// goroutine and returns the running Dispatcher; release it with Close. A nil
// logger means slog.Default().
func NewDispatcher[P any](hub Options, logger *slog.Logger, be Backend[P]) *Dispatcher[P] {
	if logger == nil {
		logger = slog.Default()
	}
	d := &Dispatcher[P]{
		hub:  NewHub(hub),
		be:   be,
		log:  logger,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go d.dispatchLoop()
	return d
}

// Hub exposes the delivery core (lookup by id, metrics, Active).
func (d *Dispatcher[P]) Hub() *Hub { return d.hub }

// ProcessedSeq returns the newest state sequence (Backend.Begin's) whose
// dispatch round completed, evaluations applied. Tests poll it for
// quiescence.
func (d *Dispatcher[P]) ProcessedSeq() uint64 { return d.processed.Load() }

func (d *Dispatcher[P]) kickNow() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// Merge folds one change notification into the pending summary and wakes the
// dispatcher. merge runs under the dispatcher's lock, possibly on a writer's
// critical path, so it must only coalesce.
func (d *Dispatcher[P]) Merge(merge func(p *P)) {
	d.mu.Lock()
	d.has = true
	if d.at.IsZero() {
		d.at = time.Now()
	}
	merge(&d.pend)
	d.mu.Unlock()
	d.kickNow()
}

// Register creates a standing query under id and schedules its initial
// evaluation; the resulting init event arrives on any attached stream. The
// query must be pre-validated; its algorithm name is canonicalized here.
func (d *Dispatcher[P]) Register(id string, q core.Query) (*Sub, error) {
	spec, ok := core.LookupAlgo(q.Algo)
	if !ok {
		return nil, errors.New("subscribe: unvalidated query reached Register")
	}
	q.Algo = spec.Name
	sub, err := d.hub.Register(id, q)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.reg = true
	d.mu.Unlock()
	d.kickNow()
	return sub, nil
}

// Close is the one drain path: it stops the dispatch goroutine, runs a final
// round over whatever was notified before the call — so changes already
// applied reach subscribers as deltas — and only then ends every stream with
// the terminal bye. The front-end stops its notification sources first;
// notifications that still arrive after Close are dropped.
func (d *Dispatcher[P]) Close() {
	d.closeOnce.Do(func() {
		close(d.stop)
		<-d.done
		d.round()
		d.hub.CloseAll()
	})
}

func (d *Dispatcher[P]) dispatchLoop() {
	defer close(d.done)
	sweep := time.NewTicker(sweepEvery)
	defer sweep.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-sweep.C:
			d.hub.Sweep()
		case <-d.kick:
			for d.round() {
			}
		}
	}
}

// round takes the pending work and dispatches it: gate every subscription
// against the coalesced summary, re-evaluate the survivors concurrently,
// record progress. It reports whether there was anything to take.
func (d *Dispatcher[P]) round() bool {
	var zero P
	d.mu.Lock()
	p, has, reg, at := d.pend, d.has, d.reg, d.at
	d.pend, d.has, d.reg, d.at = zero, false, false, time.Time{}
	d.mu.Unlock()
	if !has && !reg {
		return false
	}
	seq, ok := d.be.Begin(&p)
	if !ok {
		return true
	}
	var evals []*Sub
	for _, sub := range d.hub.Snapshot() {
		switch {
		case sub.needsInit || sub.retry:
			evals = append(evals, sub)
		case !has:
			// registration-only round: nothing changed for this sub
		case d.be.Gate(sub, &p):
			evals = append(evals, sub)
		default:
			d.hub.skipped.Inc()
		}
	}
	if len(evals) > 0 {
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for _, sub := range evals {
			wg.Add(1)
			sem <- struct{}{}
			go func(sub *Sub) {
				defer wg.Done()
				defer func() { <-sem }()
				d.evaluate(sub, &p, at)
			}(sub)
		}
		wg.Wait()
	}
	if seq > d.processed.Load() { // rounds never overlap: this is the only writer
		d.processed.Store(seq)
	}
	return true
}

// evaluate re-runs one standing query through the backend and applies the
// diff; a failure marks the subscription for retry.
func (d *Dispatcher[P]) evaluate(sub *Sub, p *P, publishedAt time.Time) {
	d.hub.evals.Inc()
	res, err := d.be.Evaluate(sub, p)
	if err != nil {
		sub.retry = true
		d.log.Warn("standing query evaluation failed; will retry on next publication",
			"sub", sub.ID, "q", int64(sub.Query.Q), "k", sub.Query.K, "err", err)
		return
	}
	sub.needsInit, sub.retry = false, false
	sub.Apply(res, publishedAt)
}
