// Package subscribe implements standing SAC queries: a client registers a
// (q, k, algo) subscription once and is pushed community deltas as check-ins
// and edge events land, instead of polling /v1/query.
//
// The package splits into two halves:
//
//   - The delivery core (this file): a Hub of subscriptions, each holding the
//     last delivered result and an event log (eventlog.go, shared with the
//     shard publication Feed): a bounded ring of recent events for
//     Last-Event-ID resume, and any number of attached SSE streams with
//     slow-consumer shedding.
//   - The evaluation driver (dispatcher.go): one Dispatcher decides *when* a
//     subscription's answer may have changed and recomputes it, through the
//     Backend its front-end supplies. Manager (manager.go) is the
//     single-engine backend, hooked on snapshot.Engine's post-publish point;
//     the router package supplies its own over the per-shard publication
//     feeds (feed.go).
//
// The dispatcher's rounds own each subscription's gate state exclusively
// (Sub.Gate and the evaluation flags); the delivery core never touches it
// after creating the Sub, so backends need no locks there.
package subscribe

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

// Errors returned by Hub.Register. The HTTP layer maps ErrLimit onto a 429
// subscription_limit envelope.
var (
	ErrLimit  = errors.New("subscribe: subscription limit reached")
	ErrExists = errors.New("subscribe: subscription id already registered")
	ErrClosed = errors.New("subscribe: subscriptions draining")
)

// Event kinds on the /v1/subscribe wire.
const (
	KindInit  = "init"  // full current result (first event, and after a resume gap)
	KindDelta = "delta" // joined/left members, MCC change, no-community transitions
	KindBye   = "bye"   // terminal: the server is draining; reconnect elsewhere
)

// Event is one SSE frame: a per-subscription sequence number (the SSE id
// clients echo back as Last-Event-ID), the event kind, and the
// pre-marshaled JSON payload, encoded once however many streams are
// attached.
type Event struct {
	Seq  uint64
	Kind string
	Data []byte
}

// EventJSON is the payload of init and delta events (wire.SubEvent). The
// alias exists only because bench/trace.go names it; see ROADMAP item 8.
type EventJSON = wire.SubEvent

// EvalResult is one evaluation's outcome, handed to Sub.Apply by the
// dispatcher.
// Members must be ascending (core.Result order) and are retained.
type EvalResult struct {
	Members     []int64
	MCC         wire.Circle
	Delta       float64
	NoCommunity bool
}

// state is the last delivered result of one subscription and its hash.
type state struct {
	EvalResult
	valid bool // false until the first Apply
	hash  uint64
}

// resultHash fingerprints a result with FNV-1a so "did anything change?" is
// one word compare and clients can verify replayed state.
func resultHash(r *EvalResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	if r.NoCommunity {
		put(1)
		return h.Sum64()
	}
	put(2)
	for _, v := range r.Members {
		put(uint64(v))
	}
	put(math.Float64bits(r.MCC.X))
	put(math.Float64bits(r.MCC.Y))
	put(math.Float64bits(r.MCC.R))
	put(math.Float64bits(r.Delta))
	return h.Sum64()
}

// Options sizes a Hub. Zero values take the defaults.
type Options struct {
	// Metrics is the registry the sac_subscription_* instruments register
	// on; nil disables them.
	Metrics *telemetry.Registry
	// MaxSubscriptions caps registered subscriptions (default 1024).
	MaxSubscriptions int
	// StreamBuf is each attached stream's channel buffer (default 32). A
	// consumer that falls this far behind is shed and must resume.
	StreamBuf int
}

const (
	// ringLen is how many past events each subscription (and each shard
	// feed) retains for Last-Event-ID resume. A resume beyond the ring gets
	// a fresh init (a resync frame on a feed) instead.
	ringLen = 64
	// resumeTTL is how long a subscription with no attached stream is kept
	// for resume before Sweep reaps it.
	resumeTTL = 2 * time.Minute
)

func (o Options) maxSubs() int {
	if o.MaxSubscriptions > 0 {
		return o.MaxSubscriptions
	}
	return 1024
}

func (o Options) streamBuf() int {
	if o.StreamBuf > 0 {
		return o.StreamBuf
	}
	return 32
}

// Hub is the delivery core under the Dispatcher: the registered
// subscriptions, their limits, and the sac_subscription_*
// instruments. Safe for concurrent use.
type Hub struct {
	opt Options

	mu     sync.Mutex
	subs   map[string]*Sub
	closed bool

	active  *telemetry.Gauge
	evals   *telemetry.Counter
	skipped *telemetry.Counter
	deltas  *telemetry.Counter
	sheds   *telemetry.Counter
	latency *telemetry.Histogram
}

// NewHub builds the delivery core and registers its instruments.
func NewHub(opt Options) *Hub {
	reg := opt.Metrics
	return &Hub{
		opt:  opt,
		subs: make(map[string]*Sub),
		active: reg.Gauge("sac_subscriptions_active",
			"Standing queries currently registered (attached or within the resume TTL)."),
		evals: reg.Counter("sac_subscription_evaluations_total",
			"Standing-query re-evaluations actually run."),
		skipped: reg.Counter("sac_subscription_skipped_by_gate_total",
			"Publications a subscription skipped because the invalidation gate proved its answer unchanged."),
		deltas: reg.Counter("sac_subscription_deltas_total",
			"Delta events appended to subscription streams (init events excluded)."),
		sheds: reg.Counter("sac_subscription_sheds_total",
			"Subscriber streams dropped for falling more than one buffer behind."),
		latency: reg.Histogram("sac_subscription_delta_latency_seconds",
			"Publication arrival to delta appended, per delta event.", nil),
	}
}

// Evals exposes the evaluations counter (tests).
func (h *Hub) Evals() *telemetry.Counter { return h.evals }

// Skipped exposes the skipped-by-gate counter (tests).
func (h *Hub) Skipped() *telemetry.Counter { return h.skipped }

// Register creates a subscription under id. The query must already be
// validated; its Algo should be the canonical registry name so event
// payloads render it consistently. Fails with ErrExists when the id is
// taken, ErrLimit at capacity, ErrClosed after CloseAll.
func (h *Hub) Register(id string, q core.Query) (*Sub, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if _, ok := h.subs[id]; ok {
		return nil, ErrExists
	}
	if len(h.subs) >= h.opt.maxSubs() {
		return nil, ErrLimit
	}
	sub := &Sub{
		ID:    id,
		Query: q,
		// The dispatcher's flags are set before the Sub is published in the
		// table, so a concurrent round never sees one half-built.
		needsInit: true,
		hub:       h,
		eventLog:  eventLog{streamBuf: h.opt.streamBuf(), sheds: h.sheds, streams: make(map[*Stream]struct{})},
		// Starts detached: a subscription whose client never attaches (or
		// never comes back) is reaped by Sweep after the resume TTL.
		detachedAt: time.Now(),
	}
	h.subs[id] = sub
	h.active.Set(float64(len(h.subs)))
	return sub, nil
}

// Get looks a subscription up by id.
func (h *Hub) Get(id string) (*Sub, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sub, ok := h.subs[id]
	return sub, ok
}

// Snapshot returns the registered subscriptions (order unspecified) — the
// working set of one dispatch round.
func (h *Hub) Snapshot() []*Sub {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Sub, 0, len(h.subs))
	for _, sub := range h.subs {
		out = append(out, sub)
	}
	return out
}

// Active returns the number of registered subscriptions.
func (h *Hub) Active() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Sweep reaps subscriptions that have had no attached stream for the resume
// TTL, returning how many it removed. The dispatcher calls it periodically.
func (h *Hub) Sweep() int {
	cutoff := time.Now().Add(-resumeTTL)
	var dead []*Sub
	h.mu.Lock()
	for id, sub := range h.subs {
		sub.mu.Lock()
		idle := len(sub.streams) == 0 && !sub.detachedAt.IsZero() && sub.detachedAt.Before(cutoff)
		sub.mu.Unlock()
		if idle {
			delete(h.subs, id)
			dead = append(dead, sub)
		}
	}
	h.active.Set(float64(len(h.subs)))
	h.mu.Unlock()
	for _, sub := range dead {
		sub.terminate("resume window expired")
	}
	return len(dead)
}

// CloseAll is the drain path: every attached stream gets a terminal bye
// event (after whatever deltas it already buffered) and is closed, and
// further Registers fail with ErrClosed. The dispatcher must have stopped
// its rounds first, so no Apply races the close.
func (h *Hub) CloseAll() {
	h.mu.Lock()
	h.closed = true
	subs := make([]*Sub, 0, len(h.subs))
	for _, sub := range h.subs {
		subs = append(subs, sub)
	}
	h.subs = make(map[string]*Sub)
	h.active.Set(0)
	h.mu.Unlock()
	for _, sub := range subs {
		sub.terminate("server draining")
	}
}

// Sub is one standing query: its immutable spec, the last delivered result,
// the resume ring, and the attached streams.
type Sub struct {
	// ID is the subscription id clients resume by.
	ID string
	// Query is the validated standing query (canonical Algo name).
	Query core.Query
	// Gate is the Backend's invalidation state as of the last successful
	// evaluation (nil before it). Only the dispatcher's rounds read or write
	// it — Backend.Evaluate sets it, Backend.Gate reads it.
	Gate any

	// Evaluation bookkeeping, owned by the dispatcher's rounds like Gate.
	needsInit bool // no result delivered yet: evaluate on the next round
	retry     bool // last evaluation failed: evaluate on the next round

	hub *Hub

	eventLog             // the resume ring and the attached streams; its mu guards the rest
	st         state     // the last delivered result
	detachedAt time.Time // zero while any stream is attached
}

// Apply records one evaluation's outcome: it diffs against the last
// delivered state and, when anything changed, appends an init (first
// result) or delta event to the ring and every attached stream. publishedAt
// — the arrival time of the publication that triggered the evaluation —
// feeds the delta-latency histogram (zero skips it, e.g. for the initial
// evaluation, which no publication triggered).
func (sub *Sub) Apply(r *EvalResult, publishedAt time.Time) {
	hash := resultHash(r)
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	if sub.st.valid && sub.st.hash == hash {
		return
	}
	prev := sub.st
	sub.st = state{EvalResult: *r, valid: true, hash: hash}
	payload := sub.payload()
	kind := KindDelta
	if !prev.valid {
		kind = KindInit
		payload.Members = r.Members
	} else {
		payload.Joined, payload.Left = diffMembers(prev.Members, r.Members)
	}
	sub.append(kind, func(seq uint64) any {
		payload.Seq = seq
		return payload
	})
	if kind == KindDelta {
		sub.hub.deltas.Inc()
		if !publishedAt.IsZero() {
			sub.hub.latency.Observe(time.Since(publishedAt).Seconds())
		}
	}
}

// Attach adds a consumer stream. replay holds what the consumer must see
// before reading live events from the stream: with a resumable
// Last-Event-ID, exactly the ring events after it; otherwise — fresh
// attach, or a resume that outran the ring — one synthesized init carrying
// the full current state. A consumer attaching before the first evaluation
// gets no replay; its init arrives live.
func (sub *Sub) Attach(lastEventID uint64, hasLast bool) (*Stream, []Event, error) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return nil, nil, ErrClosed
	}
	synth := sub.initEvent
	if !sub.st.valid {
		synth = nil
	}
	st, replay := sub.attach(lastEventID, hasLast, synth)
	sub.detachedAt = time.Time{}
	return st, replay, nil
}

// payload is the event payload for the last delivered state, less what an
// init (Members) or a delta (Joined/Left) adds and the sequence number.
// Caller holds sub.mu.
func (sub *Sub) payload() wire.SubEvent {
	p := wire.SubEvent{
		Sub:         sub.ID,
		Q:           int64(sub.Query.Q),
		K:           sub.Query.K,
		Algo:        sub.Query.Algo,
		NoCommunity: sub.st.NoCommunity,
		Hash:        fmt.Sprintf("%016x", sub.st.hash),
	}
	if !sub.st.NoCommunity {
		mcc := sub.st.MCC
		p.MCC, p.Delta = &mcc, sub.st.Delta
	}
	return p
}

// initEvent synthesizes a full-state init frame at the given seq (the state
// after every event ≤ seq). Caller holds sub.mu.
func (sub *Sub) initEvent(seq uint64) Event {
	p := sub.payload()
	p.Seq, p.Members = seq, sub.st.Members
	data, _ := json.Marshal(p)
	return Event{Seq: seq, Kind: KindInit, Data: data}
}

// Detach removes a consumer stream; the last detach starts the resume TTL.
func (sub *Sub) Detach(st *Stream) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	delete(sub.streams, st)
	if len(sub.streams) == 0 && !sub.closed {
		sub.detachedAt = time.Now()
	}
}

// terminate sends the terminal bye (after any buffered deltas) and closes
// every stream. Safe to call once per sub; Hub removal paths guarantee that.
func (sub *Sub) terminate(reason string) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	sub.bye(wire.Bye{Sub: sub.ID, Reason: reason})
}

// SameQuery reports whether two validated queries denote the same standing
// query — the check that stops a second client binding an existing
// subscription id to a different question. Both sides must carry canonical
// Algo names.
func SameQuery(a, b core.Query) bool {
	return a.Algo == b.Algo && a.Q == b.Q && a.K == b.K &&
		a.Structure == b.Structure &&
		sameParam(a.EpsF, b.EpsF) && sameParam(a.EpsA, b.EpsA) && sameParam(a.Theta, b.Theta)
}

func sameParam(a, b *float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// diffMembers computes joined/left between two ascending member lists by a
// single merge pass.
func diffMembers(old, cur []int64) (joined, left []int64) {
	i, j := 0, 0
	for i < len(old) && j < len(cur) {
		switch {
		case old[i] == cur[j]:
			i++
			j++
		case old[i] < cur[j]:
			left = append(left, old[i])
			i++
		default:
			joined = append(joined, cur[j])
			j++
		}
	}
	for ; i < len(old); i++ {
		left = append(left, old[i])
	}
	for ; j < len(cur); j++ {
		joined = append(joined, cur[j])
	}
	return joined, left
}
