package router

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sacsearch/client"
	"sacsearch/internal/core"
	"sacsearch/internal/subscribe"
)

// Router-held standing queries: the router's Backend for the shared
// subscribe.Dispatcher, behind the same GET /v1/subscribe handler as a
// single server's. One watcher per shard tails the shard's publication feed
// (GET /v1/shard/watch, failing over across its endpoints) and merges each
// frame, with the shard it came from, into the pending summary. Evaluations
// take route, so a standing query's answers are what /v1/query would have
// returned at the same moment, and keep the gathered set route returns.
//
// A certified answer (no gathered set) wakes on its owner shard's frames
// alone, a resync included. Every algorithm reads only X (q's component of
// the global k-core), X's edges and its members' locations (θ-SAC too,
// internal/core/theta.go). The certificate (internal/shard/cert.go) proved
// X a ghost-free component of the owner's optimistic peel, or q dead in it
// for a certified no-community answer. That peel reads only the owner's
// subgraph: its owned vertices, their edges and their ghosts, which it
// never peels. Only writes routed to the owner change that subgraph (a
// check-in goes to its vertex's owner, an edge op to both endpoints'), and
// the owner publishes each on its feed. So until an owner frame the peel,
// the certificate and the members' locations stand, and so does the
// answer; a resync from the owner hides its writes, so it wakes too. The
// re-evaluation is one search leg, which the owner's view store answers
// from the answer it kept if no member moved (core's standAs).
//
// An assembled answer keeps the gathered vertex ids, a superset of X
// (routeAssembled). The router cannot scan global core numbers the way a
// single engine can, so this gate is coarser but still sound: any edge
// event anywhere, any resync, or a check-in of a gathered vertex
// re-evaluates. Each evaluation's answer may be of either kind; the gate
// state follows it.
//
// Both arguments assume an evaluation reads each shard no older than the
// frames that woke it. Each endpoint of a shard (leader or replica) publishes
// a write once it is readable there, so evaluations read the endpoint the
// watcher tails (tailed): a round-robin read could land on a replica that
// lacks the frame's write, and its stale answer would stand. Before a
// watcher first attaches they read any endpoint; the attach's resync, like
// that of a move to another endpoint, wakes them again.

// maxPendCheckins bounds the coalesced check-in set between dispatch
// rounds; past it the round degrades to evaluate-everything.
const maxPendCheckins = 4096

// rpend is the router's pending summary: the feed frames coalesced between
// dispatch rounds.
type rpend struct {
	from     []bool // per shard: it sent a frame, a resync included
	full     bool   // a resync (or overflow): evaluate every assembled answer
	topo     bool   // at least one edge event
	checkins map[int64]struct{}
}

// routerSubs drives the router's standing queries: the shared dispatcher
// over the routed evaluation paths, fed by one feed watcher per shard.
type routerSubs struct {
	*subscribe.Dispatcher[rpend]
	rt      *Router
	tailing []atomic.Int32 // per shard: 1 + the index of the endpoint the watcher tails

	// Watchers start with the first registration and run until drain.
	watchOnce sync.Once
	watchWG   sync.WaitGroup
	ctx       context.Context
	cancel    context.CancelFunc
}

func newRouterSubs(rt *Router) *routerSubs {
	rs := &routerSubs{rt: rt, tailing: make([]atomic.Int32, rt.m.Shards)}
	rs.ctx, rs.cancel = context.WithCancel(context.Background())
	rs.Dispatcher = subscribe.NewDispatcher[rpend](subscribe.Options{
		Metrics:          rt.cfg.Metrics,
		MaxSubscriptions: rt.cfg.MaxSubscriptions,
	}, rt.cfg.Logger, rs)
	return rs
}

// Register creates the subscription and lazily starts the shard watchers, so
// a router nobody subscribes through holds no feed streams open.
func (rs *routerSubs) Register(id string, cq core.Query) (*subscribe.Sub, error) {
	sub, err := rs.Dispatcher.Register(id, cq)
	if err == nil {
		rs.watchOnce.Do(func() {
			for s := 0; s < rs.rt.m.Shards; s++ {
				rs.watchWG.Add(1)
				go rs.watchShard(s)
			}
		})
	}
	return sub, err
}

// note merges one frame of shard s's feed into the pending summary.
func (rs *routerSubs) note(s int, ev client.WatchEvent) {
	rs.Merge(func(p *rpend) {
		if p.from == nil {
			p.from = make([]bool, rs.rt.m.Shards)
		}
		p.from[s] = true
		if ev.Resync {
			p.full = true
			p.checkins = nil
		}
		if len(ev.Edges) > 0 {
			p.topo = true
		}
		if !p.full && len(ev.Checkins) > 0 {
			if p.checkins == nil {
				p.checkins = make(map[int64]struct{}, len(ev.Checkins))
			}
			for _, v := range ev.Checkins {
				p.checkins[v] = struct{}{}
			}
			if len(p.checkins) > maxPendCheckins {
				p.full = true
				p.checkins = nil
			}
		}
	})
}

// watchShard tails one shard's publication feed, rotating across the
// shard's endpoints on failure. Feed sequence numbers are per-endpoint, so
// a rotation drops the resume state — the new endpoint's synthesized
// resync frame then forces a full re-evaluation rather than risking a
// missed invalidation.
func (rs *routerSubs) watchShard(s int) {
	defer rs.watchWG.Done()
	clients := rs.rt.sets[s].Clients()
	var lastID uint64
	hasLast := false
	lastEndpoint := -1
	next := 0
	backoff := 100 * time.Millisecond
	for rs.ctx.Err() == nil {
		i := next % len(clients)
		next++
		if i != lastEndpoint {
			hasLast = false
		}
		ws, err := clients[i].ShardWatch(rs.ctx, lastID, hasLast)
		if err != nil {
			select {
			case <-rs.ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
			continue
		}
		lastEndpoint = i
		rs.tailing[s].Store(int32(i) + 1)
		backoff = 100 * time.Millisecond
		for ev := range ws.Events {
			if ev.Bye {
				break
			}
			rs.note(s, ev)
			lastID, hasLast = ev.Seq, true
		}
		ws.Close()
		next-- // prefer the same endpoint on reconnect (keeps resume state)
	}
}

// tailed reads shard s where its watcher tails the feed (file comment). A
// read that fails there is retried on the next frame.
func (rs *routerSubs) tailed(s int) shardReader {
	if i := rs.tailing[s].Load(); i > 0 {
		return rs.rt.sets[s].Clients()[i-1]
	}
	return rs.rt.sets[s]
}

// Begin has no state to pin: every routed evaluation reads the shards live.
func (rs *routerSubs) Begin(*rpend) (uint64, bool) { return 0, true }

// Gate is the router's invalidation gate; see the file comment above for
// the soundness argument.
func (rs *routerSubs) Gate(sub *subscribe.Sub, p *rpend) bool {
	gathered := sub.Gate.(map[int64]struct{})
	if gathered == nil { // certified
		return p.from[rs.rt.m.OwnerOf(sub.Query.Q)]
	}
	if p.full || p.topo {
		return true
	}
	// Only check-ins remain. A move reshapes the answer only if it touches
	// the candidate set; when q is outside the global k-core that set is
	// empty, and so may be the gathered set.
	for v := range p.checkins {
		if _, ok := gathered[v]; ok {
			return true
		}
	}
	return false
}

// Evaluate answers one standing query through route, reading each shard on
// its tailed endpoint, and records the gathered set it returned (nil for a
// certified answer) as sub.Gate.
func (rs *routerSubs) Evaluate(sub *subscribe.Sub, _ *rpend) (*subscribe.EvalResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rs.rt.cfg.queryTimeout())
	defer cancel()
	resp, gathered, err := rs.rt.route(ctx, sub.Query, rs.tailed)
	var er subscribe.EvalResult
	switch {
	case err == nil:
		er = subscribe.EvalResult{Members: resp.Members, MCC: resp.MCC, Delta: resp.Delta}
	case errors.Is(err, core.ErrNoCommunity):
		er.NoCommunity = true
	default:
		return nil, err
	}
	sub.Gate = gathered
	return &er, nil
}

// handleSubscribe serves GET /v1/subscribe on the router — the same handler
// as a single server's, validated against the shard map and evaluated
// through the routed paths.
func (rt *Router) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	rt.api.ServeSubscribe(w, r, rt.subs, rt.validateQuery)
}

// DrainSubscriptions stops the shard watchers, flushes pending deltas and
// writes the terminal bye to every subscription stream. cmd/sacrouter calls
// it on SIGTERM before http.Server.Shutdown.
func (rt *Router) DrainSubscriptions() {
	rt.subs.cancel()
	rt.subs.watchWG.Wait()
	rt.subs.Close()
}
