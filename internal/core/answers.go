package core

import "sync/atomic"

// Finished answers. Every registered algorithm's answer is a function of the
// candidate set X, the edges inside it and its members' locations (theta.go's
// lemma for θ-SAC), and a view version's stamp covers exactly those, so a
// version keeps the last answer finished on it: a repeat of that query on
// the same state reads its answer where the view is, runs no algorithm and
// computes no MCC. A version made by standAs, over a gap that changed none
// of the three, takes its source's answer with it; a repaired, rebuilt or
// private version starts with none, and a recycled one drops it. θ-SAC
// takes no view and keeps no answer: every θ-SAC query is searched.
//
// A version's answer is read in one place, viewVersion.lookup, by two
// callers: run, right after candidates, and Finished, the store's answer to
// a caller that holds no worker (a snapshot's door asks it before it takes
// one). A search that found none keeps the answer it finishes (keep),
// replacing the one the version held.

// maxAnswerIDs bounds a kept answer's members; one over it is searched every
// time. A version's one answer is a subset of its members, so the answers a
// store keeps never hold more ids than its views do, and one community's at
// most maxViewsPerEntry · maxAnswerIDs, however large it is.
const maxAnswerIDs = 1 << 15

// Answer is one finished answer: its members in id order, their MCC, δ and
// the stats of the search that finished it. An Answer a version holds is
// shared by every query that reads it and must not be modified; the serving
// layer may attach its encoding of it once (Attach).
type Answer struct {
	Result
	key      Resolved
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

// lookup returns vw's answer to key, or nil.
func (vw *viewVersion) lookup(key Resolved) *Answer {
	if a := vw.answer.Load(); a != nil && a.key == key {
		return a
	}
	return nil
}

// keep makes a the answer vw holds, unless it has over maxAnswerIDs members.
func (vw *viewVersion) keep(a *Answer) {
	if len(a.Members) <= maxAnswerIDs {
		vw.answer.Store(a)
	}
}

// Finished returns the finished answer to key the store holds for the
// searcher's state, or nil: the answer a view version of key.Q at exactly
// the searcher's stamp holds (θ-SAC's never is). It reads the store alone:
// no scratch, no walk, no repair and no allocation, so any searcher sharing
// the store may ask, a snapshot's base included. Asking counts as a sighting
// of key.Q (viewFor).
func (s *Searcher) Finished(key Resolved) *Answer {
	spec := algoIndex[key.Algo]
	if spec == nil || spec.circleOnly || key.Structure != s.structure {
		return nil
	}
	sl := s.store.lookup(key.Q, key.K)
	if sl == nil {
		return nil
	}
	e := s.loadEntry(sl)
	if e == nil {
		return nil
	}
	defer s.unpinEntry(e)
	now := s.now()
	if e.members == nil || e.topo.Load() != now.topo {
		return nil
	}
	e.views.mu.Lock()
	vs := e.views.touch(key.Q)
	e.views.mu.Unlock()
	if vs == nil {
		return nil
	}
	vw := s.loadView(vs, key.Q)
	if vw == nil {
		return nil
	}
	defer s.unpinView(vw)
	if vw.at != now {
		return nil
	}
	return vw.lookup(key)
}
