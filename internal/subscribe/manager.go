package subscribe

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/graph"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/wire"
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
// every applied event since the last round.
type pend struct {
	snap   *snapshot.Snap
	events []snapshot.AppliedEvent
	full   bool // unknown or oversized change set: gate everything in
}

// gate is the engine backend's per-subscription invalidation state
// (Sub.Gate), rebuilt by every successful evaluation.
type gate struct {
	kcore   bool // structure metric is k-core (core-number scans are valid)
	lastSeq uint64
	// Candidate closure of (q, k) as of the last evaluation. members is the
	// candidate set X (nil when q had no community), frontier its outside
	// neighbors, in marks members 1 and frontier 2; in is nil for θ-SAC,
	// which the dispatcher never gates. The closure is a function of
	// topology alone, so an evaluation on a snapshot at the same topology
	// epoch (topo) as the last one takes it over instead of walking the
	// community again.
	topo     uint64
	members  []graph.V
	frontier []graph.V
	in       map[graph.V]byte
}

const (
	inMember   = 1
	inFrontier = 2
)

// Manager drives standing queries off one snapshot engine: the Dispatcher
// with the single-engine Backend. Notify coalesces post-publish
// notifications, the gate filters subscriptions against the applied events,
// and the affected ones re-run on pooled workers pinned to the published
// snapshot.
//
// Gate soundness (k-core structure): every registered algorithm except
// θ-SAC is a pure function of induced(X) and the locations of X, where X is
// the connected component of q in the global k-core. So a publication
// cannot change the answer unless it (a) moves a member of X, or (b)
// changes X itself. X changes only through topology events, and only when —
// on the *new* snapshot — an edge touches the old closure, a member's core
// number fell below k (it left the k-core, or X lost a vertex reachable
// only through it... any member loss shows as some member's edge or core
// change), or a frontier vertex's core number reached k (X can only grow
// through its frontier, or via a new edge landing on X, which case (a
// touched endpoint) already catches). A subscription with no community
// re-evaluates only when q's own core number reaches k. Non-k-core structure
// metrics fall back to always-evaluate on any topology event.
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
func (m *Manager) Notify(snap *snapshot.Snap, events []snapshot.AppliedEvent) {
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
	topo := false
	for i := range p.events {
		ev := &p.events[i]
		if ev.Checkin {
			if g.in[ev.V] == inMember {
				return true
			}
		} else {
			topo = true
			if g.in[ev.U] != 0 || g.in[ev.W] != 0 {
				return true
			}
		}
	}
	if !topo {
		return false
	}
	if !g.kcore {
		// Truss/clique communities have no cheap remote-cascade test; any
		// topology change re-evaluates.
		return true
	}
	return coreCascade(g, sub.Query, p.snap)
}

// coreCascade scans the new snapshot's core numbers for the non-local ways
// X can change: a member dropping out of the k-core, or a frontier vertex
// entering it. (Frontier vertices have core < k at evaluation time: a
// frontier vertex already in the k-core would be a k-core neighbor of X and
// hence inside X.)
func coreCascade(g *gate, q core.Query, snap *snapshot.Snap) bool {
	if g.members == nil {
		return snap.CoreNumber(q.Q) >= q.K
	}
	for _, v := range g.members {
		if snap.CoreNumber(v) < q.K {
			return true
		}
	}
	for _, f := range g.frontier {
		if snap.CoreNumber(f) >= q.K {
			return true
		}
	}
	return false
}

// Evaluate re-runs one standing query pinned to the round's snapshot and
// refreshes the gate closure.
func (engineBackend) Evaluate(sub *Sub, p *pend) (*EvalResult, error) {
	prev, _ := sub.Gate.(*gate)
	if p.full && prev != nil {
		// An unknown change set can mean the engine itself was swapped
		// (replica resync), and epochs of different engines do not compare.
		// Forget the closure before anything can fail, so that a retry in a
		// later, ordinary round cannot take it over either.
		prev.in = nil
	}
	s := p.snap.Get()
	defer p.snap.Put(s)
	ctx, cancel := context.WithTimeout(context.Background(), evalTimeout)
	defer cancel()
	res, err := s.Search(ctx, sub.Query)
	var er EvalResult
	switch {
	case err == nil:
		er.Members = graph.IDs(res.Members)
		er.MCC = wire.Circle{X: res.MCC.C.X, Y: res.MCC.C.Y, R: res.MCC.R}
		er.Delta = res.Delta
	case errors.Is(err, core.ErrNoCommunity):
		er.NoCommunity = true
	default:
		return nil, err
	}
	g := &gate{lastSeq: p.snap.Seq(), kcore: s.Structure() == core.StructureKCore, topo: p.snap.TopoEpoch()}
	switch {
	case sub.always:
	case prev != nil && prev.in != nil && prev.topo == g.topo:
		g.members, g.frontier, g.in = prev.members, prev.frontier, prev.in
	default:
		g.members, g.frontier = s.CandidateClosure(sub.Query.Q, sub.Query.K)
		g.in = make(map[graph.V]byte, len(g.members)+len(g.frontier))
		for _, v := range g.members {
			g.in[v] = inMember
		}
		for _, f := range g.frontier {
			g.in[f] = inFrontier
		}
	}
	sub.Gate = g
	return &er, nil
}
