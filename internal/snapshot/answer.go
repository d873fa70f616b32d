package snapshot

import (
	"context"

	"sacsearch/internal/core"
	"sacsearch/internal/graph"
	"sacsearch/internal/wire"
)

// Between two writes the answer to a query depends on the published state
// alone, and the engine's view store keeps the last answer finished on a
// view version with it (core.Answer, internal/core/answers.go), valid at
// exactly that version's stamp. Every answer a snapshot gives goes through
// one door, Snap.Answer, which asks the store for it (core.Searcher.Finished)
// before it takes a pooled worker: a hit runs no search and copies no
// members. A key's second sighting on a state is a hit unless another key
// of the same vertex finished between the two; θ-SAC is searched every time.
//
// The store holds an answer in core terms; its wire form and encoded body
// are attached to it once (attach), on its first reuse, or at once for a
// standing query's evaluation, whose key the hot queries that follow the
// write ask for. An answer never reused is never encoded.

// Answer is a finished answer in wire terms: the result, stats as its search
// reported them, and Body, the result in wire.AppendResult's layout when it
// is attached to the store's answer. Neither may be modified.
type Answer struct {
	Result *wire.Result
	Body   []byte
}

// Reply is what Snap.Answer hands back: the key q resolved to (zero when it
// did not), the answer, with its Body when the store's answer carries one,
// and its way.
type Reply struct {
	Key core.Resolved
	Answer
	Hit    bool       // the store held the answer: no worker, no search
	Stored bool       // this call encoded the answer's body and attached it
	Stats  core.Stats // the search's work counters; zero on a hit
}

// Answer is the one door to the snapshot's answers: it resolves q as Search
// would, answers a repeat from the store with no worker and no search, and
// otherwise runs q on a pooled worker rebound to this snapshot, whose
// search keeps its answer on the view it read. The body is encoded on the
// answer's first reuse, and at once for a standing query's evaluation. The
// Result may be shared: it must not be modified.
func (sn *Snap) Answer(ctx context.Context, q core.Query, standing bool) (Reply, error) {
	key, err := core.Resolve(q, sn.g.NumVertices(), sn.Structure())
	if err != nil {
		return Reply{}, err
	}
	r := Reply{Key: key}
	if a := sn.base.Finished(key); a != nil {
		r.Answer, r.Stored = attach(key, a)
		r.Hit = true
		return r, nil
	}
	w := sn.Get()
	res, err := w.Search(ctx, q)
	sn.Put(w)
	if err != nil {
		return r, err
	}
	r.Stats = res.Stats
	var a *core.Answer
	if standing || res.Stats.AnswerHits > 0 { // asking again would count q's first sighting twice
		a = sn.base.Finished(key)
	}
	if a != nil {
		r.Answer, r.Stored = attach(key, a)
	} else {
		r.Result = WireResult(key.Algo, res)
	}
	return r, nil
}

// attach returns a in wire terms with its body, encoding both and attaching
// them to a unless they are attached already; stored reports that this call
// attached them.
func attach(key core.Resolved, a *core.Answer) (wa Answer, stored bool) {
	if v, ok := a.Attached().(*Answer); ok {
		return *v, false
	}
	res := WireResult(key.Algo, &a.Result)
	body, err := wire.AppendResult(nil, res)
	if err != nil { // a result encoding/json would refuse: the route reports it
		return Answer{Result: res}, false
	}
	mine := &Answer{Result: res, Body: body}
	v := a.Attach(mine).(*Answer)
	return *v, v == mine
}

// WireResult converts an engine result, labelling its stats with the
// canonical algorithm name.
func WireResult(algo string, res *core.Result) *wire.Result {
	return &wire.Result{
		Q:       int64(res.Query),
		K:       res.K,
		Members: graph.IDs(res.Members),
		MCC:     wire.Circle{X: res.MCC.C.X, Y: res.MCC.C.Y, R: res.MCC.R},
		Delta:   res.Delta,
		Stats: wire.Stats{
			CandidateSize:     res.Stats.CandidateSize,
			FeasibilityChecks: res.Stats.FeasibilityChecks,
			BinaryIters:       res.Stats.BinaryIters,
			ElapsedMicros:     res.Stats.Elapsed.Microseconds(),
			Algorithm:         algo,
		},
	}
}
