package core

import (
	"sync"
	"sync/atomic"

	"sacsearch/internal/graph"
)

// Finished answers. Every registered algorithm's answer is a function of the
// candidate set X, the edges inside it and its members' locations (theta.go's
// lemma for θ-SAC), and a view version's stamp covers exactly those, so a
// version keeps the answers finished on it: a repeat of a query on the same
// state reads its answer where the view is, runs no algorithm and computes
// no MCC. A version made by standAs, over a gap that changed none of the
// three, takes its source's answers with it; a repaired, rebuilt or private
// version starts with none, and a recycled one drops them. θ-SAC takes no
// view: its answers are held by the (q, k) entry, each valid at the location
// epoch it was finished at.
//
// A table is read in one place, answerTable.lookup, by two callers: run,
// right after candidates, and Finished, the store's answer to a caller that
// holds no worker (a snapshot's door asks it before it takes one). A search
// that found none keeps the answer it finishes (keep).

// A table's bounds. The key comes from the client (εF, εA and θ are floats),
// so both are constants: a table holds at most maxAnswers answers, filled in
// turn, and their members together number at most min(|X|, maxAnswerIDs),
// X its holder's members. So the answers a store keeps never hold more ids
// than its views do, and one community's — its views' and its entry's —
// at most (maxViewsPerEntry+1) · maxAnswerIDs, however large it is; an
// answer over the bound is searched every time.
const (
	maxAnswers   = 8
	maxAnswerIDs = 1 << 15
)

// Answer is one finished answer: its members in id order, their MCC, δ and
// the stats of the search that finished it. An Answer a table holds is
// shared by every query that reads it and must not be modified; the serving
// layer may attach its encoding of it once (Attach).
type Answer struct {
	Result
	key      Resolved
	loc      uint64 // θ-SAC's: the location epoch it is valid at
	attached atomic.Value
}

// Attached returns what the serving layer attached to a, or nil.
func (a *Answer) Attached() any { return a.attached.Load() }

// Attach attaches v to a unless a value is attached already, and returns
// the value that is: v, or the earlier one. Every v attached to one Answer
// must have the same concrete type.
func (a *Answer) Attach(v any) any {
	if a.attached.CompareAndSwap(nil, v) {
		return v
	}
	return a.attached.Load()
}

// answerTable is a holder's finished answers, each immutable: a reader
// loads a slot and takes no lock. Writers take turns (mu).
type answerTable struct {
	slots [maxAnswers]atomic.Pointer[Answer]
	mu    sync.Mutex
	hand  int // the slot filled last; under mu
	ids   int // the members the slots hold; under mu
}

// lookup returns t's answer to key at location epoch loc, or nil.
func (t *answerTable) lookup(key Resolved, loc uint64) *Answer {
	for i := range t.slots {
		if a := t.slots[i].Load(); a != nil && a.key == key && a.loc == loc {
			return a
		}
	}
	return nil
}

// keep makes t, whose holder has x members, hold a — in the slot of an
// answer to the same key (one another search of it finished meanwhile, or
// θ-SAC's at another location epoch), else in the next slot in turn —
// emptying the slots after it until t is within its bounds. An answer over
// them alone is not kept.
func (t *answerTable) keep(a *Answer, x int) {
	limit := min(x, maxAnswerIDs)
	if len(a.Members) > limit {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := (t.hand + 1) % maxAnswers
	for j := range t.slots {
		if b := t.slots[j].Load(); b != nil && b.key == a.key {
			i = j
		}
	}
	t.hand = i
	t.drop(i)
	for j := i; t.ids+len(a.Members) > limit; {
		j = (j + 1) % maxAnswers
		t.drop(j)
	}
	t.slots[i].Store(a)
	t.ids += len(a.Members)
}

// drop empties slot i. Under t's lock.
func (t *answerTable) drop(i int) {
	if b := t.slots[i].Swap(nil); b != nil {
		t.ids -= len(b.Members)
	}
}

// carry makes t, a table nobody reads yet, hold what from holds.
func (t *answerTable) carry(from *answerTable) {
	from.mu.Lock()
	defer from.mu.Unlock()
	for i := range t.slots {
		t.slots[i].Store(from.slots[i].Load())
	}
	t.hand, t.ids = from.hand, from.ids
}

// clear drops every answer of a holder about to be recycled.
func (t *answerTable) clear() {
	for i := range t.slots {
		t.slots[i].Store(nil)
	}
	t.hand, t.ids = 0, 0
}

// Finished returns the finished answer to key the store holds for the
// searcher's state, or nil: the answer a view version of key.Q at exactly
// the searcher's stamp holds — for θ-SAC, the one (q, k)'s entry holds at
// the searcher's topology, finished at its location epoch. It reads the
// store alone: no scratch, no walk, no repair and no allocation, so any
// searcher sharing the store may ask, a snapshot's base included. Asking
// counts as a sighting of key.Q (viewFor).
func (s *Searcher) Finished(key Resolved) *Answer {
	spec := algoIndex[key.Algo]
	if spec == nil || key.Structure != s.structure {
		return nil
	}
	now := s.now()
	e := s.heldEntry(key.Q, key.K, now)
	if e == nil {
		return nil
	}
	defer s.unpinEntry(e)
	if spec.circleOnly {
		return e.answers.lookup(key, now.loc)
	}
	e.views.mu.Lock()
	sl := e.views.touch(key.Q)
	e.views.mu.Unlock()
	if sl == nil {
		return nil
	}
	vw := s.loadView(sl, key.Q)
	if vw == nil {
		return nil
	}
	defer s.unpinView(vw)
	if vw.at != now {
		return nil
	}
	return vw.answers.lookup(key, 0)
}

// heldEntry returns the non-negative entry of (q, k) the store holds at
// now's topology, pinned, or nil. Unlike current it brings nothing forward.
func (s *Searcher) heldEntry(q graph.V, k int, now stamp) *cacheEntry {
	sl := s.store.lookup(q, k)
	if sl == nil {
		return nil
	}
	e := s.loadEntry(sl)
	if e != nil && (e.members == nil || e.topo.Load() != now.topo) {
		s.unpinEntry(e)
		e = nil
	}
	return e
}
