package subscribe

import (
	"context"
	"errors"
	"log/slog"
	"slices"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/graph"
	"sacsearch/internal/snapshot"
)

// ManagerOptions assembles a Manager.
type ManagerOptions struct {
	// Current returns the newest published snapshot — the view
	// registration-time initial evaluations run against. Required. May
	// return nil while a replica has not completed its first sync; initial
	// evaluations then wait for the post-sync notification.
	Current func() *snapshot.Snap
	// Hub sizes the delivery core; see Options.
	Hub Options
	// Logger receives evaluation failures. Default slog.Default().
	Logger *slog.Logger
}

// evalTimeout bounds one engine re-evaluation. An evaluation that times out
// leaves the subscription's last result standing and is retried on the next
// publication.
const evalTimeout = 10 * time.Second

// maxPendEvents bounds the coalesced event list; past it the pending work
// degrades to a full re-evaluation, which every gate treats as "evaluate
// everything" — cheaper than scanning an unbounded backlog per sub.
const maxPendEvents = 4096

// pend is the engine's pending summary: the latest published snapshot and
// every applied write since the last round.
type pend struct {
	snap   *snapshot.Snap
	events []graph.Write
	full   bool // unknown or oversized change set: gate everything in
}

// gate is the engine backend's per-subscription invalidation state
// (Sub.Gate), set by every successful evaluation: the snapshot it answered
// on and the token of (q, k)'s community there (core.Searcher.Token).
type gate struct {
	lastSeq uint64
	token   core.Token
}

// Manager drives standing queries off one snapshot engine: the Dispatcher
// with the single-engine Backend. Notify coalesces post-publish
// notifications, the gate filters subscriptions against the applied events,
// and the affected ones re-run on pooled workers pinned to the published
// snapshot.
//
// Gate soundness: a round skips a subscription only when the view store
// proves that the round's writes left its answer alone
// (core.Searcher.Stood): (q, k)'s community is still the one the last
// evaluation read, by revalidate's proof (internal/core/repair.go), and no
// write moved a member or joined two members. An unknown change set (a
// replica resync may have replaced the engine) re-evaluates every
// subscription, so a token is only compared in the store it came from.
type Manager struct {
	*Dispatcher[pend]
}

// NewManager builds and starts a Manager. Hook it to an engine with
// eng.SetOnPublish(m.Notify) (or replica.Follower.SetOnPublish).
func NewManager(opt ManagerOptions) *Manager {
	return &Manager{NewDispatcher[pend](opt.Hub, opt.Logger, engineBackend{opt.Current})}
}

// Notify is the engine's post-publish hook. It runs on the writer's
// critical path, so it only coalesces: record the newest snapshot, append
// the events, kick the dispatcher. A nil events slice means the change set
// is unknown (a replica resync swapped the whole engine) and every
// subscription must re-evaluate.
func (m *Manager) Notify(snap *snapshot.Snap, events []graph.Write) {
	m.Merge(func(p *pend) {
		p.snap = snap
		if events == nil {
			p.full = true
			p.events = nil
		} else if !p.full {
			p.events = append(p.events, events...)
			if len(p.events) > maxPendEvents {
				p.full = true
				p.events = nil
			}
		}
	})
}

// engineBackend answers standing queries from one engine's snapshots.
type engineBackend struct {
	current func() *snapshot.Snap
}

// Begin pins the round to the notified snapshot, or — on a registration-only
// round — to the newest published one. A replica before its first sync has
// neither; initial evaluations then wait for the post-sync notification.
func (b engineBackend) Begin(p *pend) (uint64, bool) {
	if p.snap == nil {
		p.snap = b.current()
	}
	if p.snap == nil {
		return 0, false
	}
	return p.snap.Seq(), true
}

// Gate decides whether the coalesced events can have changed this
// subscription's answer; see the Manager doc comment for the argument.
func (engineBackend) Gate(sub *Sub, p *pend) bool {
	g := sub.Gate.(*gate)
	if p.full {
		return true
	}
	if p.snap.Seq() <= g.lastSeq {
		return false // already evaluated this state (the initial eval ran on it)
	}
	s := p.snap.Get()
	defer p.snap.Put(s)
	return !s.Stood(sub.Query.Q, sub.Query.K, g.token, p.events)
}

// Evaluate answers one standing query on the round's snapshot, through the
// snapshot's one door to its answers, which keeps the answer, body encoded,
// on the view it read for the hot queries of its key that follow the write, and
// records the token of the community it read for the next Gate.
func (engineBackend) Evaluate(sub *Sub, p *pend) (*EvalResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), evalTimeout)
	defer cancel()
	r, err := p.snap.Answer(ctx, sub.Query, true)
	var er EvalResult
	switch {
	case err == nil:
		// The store keeps r.Result for later readers: the hub gets a copy.
		er.Members = slices.Clone(r.Result.Members)
		er.MCC = r.Result.MCC
		er.Delta = r.Result.Delta
	case errors.Is(err, core.ErrNoCommunity):
		er.NoCommunity = true
	default:
		return nil, err
	}
	s := p.snap.Get()
	sub.Gate = &gate{lastSeq: p.snap.Seq(), token: s.Token(sub.Query.Q, sub.Query.K)}
	p.snap.Put(s)
	return &er, nil
}
