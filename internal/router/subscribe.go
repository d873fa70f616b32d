package router

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"sacsearch/client"
	"sacsearch/internal/core"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/subscribe"
	"sacsearch/internal/wire"
)

// Router-held standing queries. The router serves the same GET /v1/subscribe
// contract as a single server through the same handler and the same
// dispatcher (subscribe.Dispatcher); this file is the router's Backend. Its
// invalidation signal is the shards' publication firehoses
// (GET /v1/shard/watch): one watcher per shard tails the feed (failing over
// across the shard's endpoints) and merges each frame into the dispatcher's
// pending summary.
//
// Gate soundness: the router cannot scan global core numbers the way a
// single engine can, so its gate is coarser but still sound: any edge event
// anywhere re-evaluates everything (topology changes are what reshape
// candidate sets), while check-ins re-evaluate only subscriptions whose
// gathered candidate superset — the certified shard's expansion, or the
// assembled path's collected vertex set, gathered even with no community —
// contains the moved vertex (θ-SAC too reads only the candidate set,
// internal/core/theta.go). A resync frame (watcher reconnected with a gap,
// or a shard re-synced) re-evaluates everything. Evaluations reuse the
// certified / assembled routing paths, so a standing query's answers are
// exactly what /v1/query would have returned at the same moment.

// routeGathered answers one validated query, whatever its algorithm (each
// reads only the candidate set X; θ-SAC by internal/core/theta.go):
// owner-first with the certificate fast path, falling back to cross-shard
// assembly. With watch set it also returns the gathered watch set: vertex
// ids known to cover X (nil = unknown; callers must then treat every
// check-in as relevant), at the price of one more expand leg on the
// certified path.
func (rt *Router) routeGathered(ctx context.Context, cq core.Query, watch bool) (*wire.Result, map[int64]struct{}, error) {
	owner := rt.m.OwnerOf(cq.Q)
	lctx, span := rt.leg(ctx, "search", owner)
	verdict, err := rt.sets[owner].ShardSearch(lctx, httpapi.WireQuery(cq))
	span.End()
	if err != nil {
		return nil, nil, &legFailure{owner, err}
	}
	if !verdict.Contained {
		rt.queryPath.With("assembled").Inc()
		return rt.routeAssembled(ctx, cq, owner)
	}
	rt.queryPath.With("certified").Inc()
	switch {
	case verdict.NoCommunity:
		err = core.ErrNoCommunity
	case verdict.Result == nil:
		return nil, nil, &legFailure{owner, errors.New("contained verdict carried no result")}
	}
	if !watch {
		return verdict.Result, nil, err
	}
	// Contained means the whole candidate set lives on the owner (none of
	// it when q is outside the k-core); one expansion round fetches it for
	// the watch set. A failed expansion degrades to watch-everything, never
	// to a missed invalidation.
	ectx, espan := rt.leg(ctx, "expand", owner)
	exp, eerr := rt.sets[owner].ShardExpand(ectx, cq.K, []int64{int64(cq.Q)})
	espan.End()
	var gathered map[int64]struct{}
	if eerr == nil {
		gathered = make(map[int64]struct{}, len(exp.Members))
		for _, m := range exp.Members {
			gathered[m.V] = struct{}{}
		}
	}
	return verdict.Result, gathered, err
}

// maxPendCheckins bounds the coalesced check-in set between dispatch
// rounds; past it the round degrades to evaluate-everything.
const maxPendCheckins = 4096

// rpend is the router's pending summary: the feed frames coalesced between
// dispatch rounds.
type rpend struct {
	full     bool // resync (or overflow): evaluate everything
	topo     bool // at least one edge event
	checkins map[int64]struct{}
}

// routerSubs drives the router's standing queries: the shared dispatcher
// over the routed evaluation paths, fed by one feed watcher per shard.
type routerSubs struct {
	*subscribe.Dispatcher[rpend]
	rt *Router

	// Watchers start with the first registration and run until drain.
	watchOnce sync.Once
	watchWG   sync.WaitGroup
	ctx       context.Context
	cancel    context.CancelFunc
}

func newRouterSubs(rt *Router) *routerSubs {
	rs := &routerSubs{rt: rt}
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

// note merges one feed event into the pending summary.
func (rs *routerSubs) note(ev client.WatchEvent) {
	rs.Merge(func(p *rpend) {
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
		backoff = 100 * time.Millisecond
		for ev := range ws.Events {
			if ev.Bye {
				break
			}
			rs.note(ev)
			lastID, hasLast = ev.Seq, true
		}
		ws.Close()
		next-- // prefer the same endpoint on reconnect (keeps resume state)
	}
}

// Begin has no state to pin: every routed evaluation reads the shards live.
func (rs *routerSubs) Begin(*rpend) (uint64, bool) { return 0, true }

// Gate is the router's invalidation gate; see the file comment above for
// the soundness argument.
func (rs *routerSubs) Gate(sub *subscribe.Sub, p *rpend) bool {
	if p.full || p.topo {
		return true
	}
	// Only check-ins remain. A move reshapes the answer only if it touches
	// the candidate set; when q is outside the global k-core that set is
	// empty, and so is the watch set.
	watch := sub.Gate.(map[int64]struct{})
	if len(p.checkins) == 0 {
		return false
	}
	if watch == nil {
		return true // candidate superset unknown: stay conservative
	}
	for v := range p.checkins {
		if _, ok := watch[v]; ok {
			return true
		}
	}
	return false
}

// Evaluate answers one standing query through the routed paths and records
// the gathered watch set as sub.Gate.
func (rs *routerSubs) Evaluate(sub *subscribe.Sub, _ *rpend) (*subscribe.EvalResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rs.rt.cfg.queryTimeout())
	defer cancel()
	resp, watch, err := rs.rt.routeGathered(ctx, sub.Query, true)
	var er subscribe.EvalResult
	switch {
	case err == nil:
		er = subscribe.EvalResult{Members: resp.Members, MCC: resp.MCC, Delta: resp.Delta}
	case errors.Is(err, core.ErrNoCommunity):
		er.NoCommunity = true
	default:
		return nil, err
	}
	sub.Gate = watch
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
