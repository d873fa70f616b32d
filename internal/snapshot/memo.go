package snapshot

import (
	"context"
	"hash/maphash"
	"math"
	"sync/atomic"

	"sacsearch/internal/core"
	"sacsearch/internal/graph"
	"sacsearch/internal/wire"
)

// Between two writes the answer to a query depends on the published state
// alone, so each Snap keeps a memo of the answers it has finished, keyed by
// the query as the registry resolves it (core.Resolved). Every answer a
// snapshot gives goes through one door, Snap.Answer, which consults the memo
// before it takes a pooled worker: a hit runs no search and copies no
// members. A write publishes a new Snap with an empty memo, so an entry is
// never stale and nothing is stamped or compared to tell.
//
// An answer is stored on its key's second sighting (the first keeps only a
// 64-bit hash), so a workload whose queries never repeat stores nothing, and
// a hit is the third sighting on. A standing query's evaluation stores its
// answer at once: the subscription is itself the repeat the second sighting
// waits for, and the hot queries of its key that follow the write find it.
// A hit needs the whole key equal, so a hash collision costs a search, never
// a wrong answer. An entry is immutable once stored, and a lookup takes no
// lock and allocates nothing.
const (
	// memoSlots: the most answers a snapshot holds. A lookup scans every
	// slot's hash (512 B), so it stays small, yet four times the benchmark's
	// hot set of 16.
	memoSlots = 64
	// memoBudget: the most a snapshot's memo holds in member ids and encoded
	// bytes — over twice what the 16 hot syn1 answers of the benchmark take
	// (700 to 17 700 ids each).
	memoBudget = 4 << 20
	// memoEntryMax: no one answer (above ~37 000 ids) takes more than an
	// eighth of the budget.
	memoEntryMax = memoBudget / 8
)

// Answer is one finished answer a snapshot's memo holds: the result, stats
// as its search reported them, and Body, the result in wire.AppendResult's
// layout. Neither may be modified.
type Answer struct {
	Result *wire.Result
	Body   []byte
}

func (a *Answer) size() int64 { return int64(8*len(a.Result.Members) + len(a.Body)) }

// Memo is a snapshot's memo of finished answers. seen holds the hash of each
// key answered once, direct-mapped. slots holds the stored entries and keys
// their hashes, scanned on every lookup; they are filled, and emptied to
// make room, in turn, so the entry evicted is the one stored longest ago.
type Memo struct {
	seen  [memoSlots]atomic.Uint64
	keys  [memoSlots]atomic.Uint64
	slots [memoSlots]atomic.Pointer[memoEntry]
	held  atomic.Int64  // bytes of the entries in slots, and of those about to be
	hand  atomic.Uint64 // the slot filled last
}

type memoEntry struct {
	key  core.Resolved
	hash uint64
	Answer
}

var memoSeed = maphash.MakeSeed()

// memoHash hashes a key. It is never 0, the hash of an empty seen slot.
func memoHash(k core.Resolved) uint64 {
	h := maphash.String(memoSeed, k.Algo)
	for _, u := range [...]uint64{uint64(k.Q), uint64(k.K), math.Float64bits(k.EpsF),
		math.Float64bits(k.EpsA), math.Float64bits(k.Theta), uint64(k.Structure)} {
		h = (h ^ u) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h | 1
}

// Lookup returns the answer stored for key, or nil.
func (m *Memo) Lookup(key core.Resolved) *Answer {
	h := memoHash(key)
	for i := range m.keys {
		if m.keys[i].Load() != h {
			continue
		}
		if e := m.slots[i].Load(); e != nil && e.hash == h && e.key == key {
			return &e.Answer
		}
	}
	return nil
}

// Offer tells the memo that res answers key. On the key's second sighting
// it stores res (Store); otherwise it returns nil. res must not be modified
// afterwards either way.
func (m *Memo) Offer(key core.Resolved, res *wire.Result) *Answer {
	h := memoHash(key)
	if m.seen[h%memoSlots].Swap(h) != h {
		return nil
	}
	return m.put(key, h, res)
}

// Store stores res with its encoding as key's answer and returns it, or nil
// when it is over memoEntryMax or finds no room. res must not be modified.
func (m *Memo) Store(key core.Resolved, res *wire.Result) *Answer {
	return m.put(key, memoHash(key), res)
}

func (m *Memo) put(key core.Resolved, h uint64, res *wire.Result) *Answer {
	if 8*len(res.Members) > memoEntryMax { // too large to store: do not encode it
		return nil
	}
	body, err := wire.AppendResult(nil, res)
	if err != nil {
		return nil
	}
	e := &memoEntry{key: key, hash: h, Answer: Answer{Result: res, Body: body}}
	if !m.store(e) {
		return nil
	}
	return &e.Answer
}

// store puts e in the next slot, emptying slots in turn until it fits the
// budget. It gives up when a whole round leaves no room (stores in flight
// hold the rest), and stores nothing above memoEntryMax.
func (m *Memo) store(e *memoEntry) bool {
	size := e.size()
	if size > memoEntryMax {
		return false
	}
	for range memoSlots {
		i := m.hand.Add(1) % memoSlots
		if old := m.slots[i].Swap(nil); old != nil {
			m.held.Add(-old.size())
		}
		if held := m.held.Load(); held+size > memoBudget || !m.held.CompareAndSwap(held, held+size) {
			continue
		}
		m.keys[i].Store(e.hash)
		if old := m.slots[i].Swap(e); old != nil { // a store that came round the table meanwhile
			m.held.Add(-old.size())
		}
		return true
	}
	return false
}

// Reply is what Snap.Answer hands back: the key q resolved to (zero when it
// did not), the answer, with its Body when the memo holds it, and its way.
type Reply struct {
	Key core.Resolved
	Answer
	Hit    bool       // from the memo: no search ran
	Stored bool       // this search's answer went into the memo
	Stats  core.Stats // the search's work counters; zero on a hit
}

// Answer is the one door to the snapshot's answers: it resolves q as Search
// would, answers a repeat from the memo with no worker and no search, and
// otherwise runs q on a pooled worker rebound to this snapshot and offers
// the answer to the memo, or stores it at once for a standing query's
// evaluation. The Result may be the memo's: it must not be modified.
func (sn *Snap) Answer(ctx context.Context, q core.Query, standing bool) (Reply, error) {
	key, err := core.Resolve(q, sn.g.NumVertices(), sn.Structure())
	if err != nil {
		return Reply{}, err
	}
	r := Reply{Key: key}
	if hit := sn.memo.Lookup(key); hit != nil {
		r.Answer, r.Hit = *hit, true
		return r, nil
	}
	w := sn.Get()
	res, err := w.Search(ctx, q)
	sn.Put(w)
	if err != nil {
		return r, err
	}
	r.Stats, r.Result = res.Stats, WireResult(key.Algo, res)
	stored := sn.memo.Offer
	if standing {
		stored = sn.memo.Store
	}
	if a := stored(key, r.Result); a != nil {
		r.Body, r.Stored = a.Body, true
	}
	return r, nil
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
