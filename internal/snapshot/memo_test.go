package snapshot

import (
	"context"
	"sync"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/wire"
)

// answerOf is a result of n members for key, shaped like a hot answer.
func answerOf(key core.Resolved, n int) *wire.Result {
	r := &wire.Result{Q: int64(key.Q), K: key.K, MCC: wire.Circle{X: 0.5, Y: 0.5, R: 0.01}, Delta: 0.02,
		Stats: wire.Stats{CandidateSize: n, FeasibilityChecks: 3, BinaryIters: 2, ElapsedMicros: 40, Algorithm: key.Algo}}
	r.Members = make([]int64, n)
	for i := range r.Members {
		r.Members[i] = int64(key.Q) + int64(7*i)
	}
	return r
}

// held is what m holds: its entries, their bytes, and its running count of
// them against the budget. With no store in flight the two byte counts agree.
func held(m *Memo) (entries int, bytes, counted int64) {
	for i := range m.slots {
		if e := m.slots[i].Load(); e != nil {
			entries++
			bytes += e.size()
		}
	}
	return entries, bytes, m.held.Load()
}

// TestMemoSecondSighting: an answer offered once is not stored, the second
// offer stores it with its encoding, and only the whole key finds it.
func TestMemoSecondSighting(t *testing.T) {
	var m Memo
	key := core.Resolved{Algo: "appfast", Q: 3, K: 4, EpsF: 0.5}
	res := answerOf(key, 100)
	if a := m.Offer(key, res); a != nil || m.Lookup(key) != nil {
		t.Fatal("an answer seen once was stored")
	}
	a := m.Offer(key, res)
	if a == nil || m.Lookup(key) != a || a.Result != res {
		t.Fatal("an answer seen twice was not stored")
	}
	if want, _ := wire.AppendResult(nil, res); string(a.Body) != string(want) {
		t.Fatalf("stored body %s, want %s", a.Body, want)
	}
	for _, other := range []core.Resolved{
		{Algo: "appinc", Q: 3, K: 4, EpsF: 0.5},
		{Algo: "appfast", Q: 4, K: 4, EpsF: 0.5},
		{Algo: "appfast", Q: 3, K: 5, EpsF: 0.5},
		{Algo: "appfast", Q: 3, K: 4, EpsF: 0.25},
		{Algo: "appfast", Q: 3, K: 4, EpsF: 0.5, Structure: core.StructureKTruss},
	} {
		if m.Lookup(other) != nil {
			t.Fatalf("%+v finds the answer stored for %+v", other, key)
		}
	}
}

// TestMemoBound: 500 distinct keys, each answered three times with answers
// of up to 20 000 members, leave the memo within its entry count and byte
// budget, with nothing above the per-entry cap stored, and its running
// count equal to what it holds.
func TestMemoBound(t *testing.T) {
	var m Memo
	for i := range 500 {
		key := core.Resolved{Algo: "appfast", Q: graph.V(i), K: 4, EpsF: 0.5}
		res := answerOf(key, 50*(i%400+1))
		for range 3 {
			if a := m.Offer(key, res); a != nil && a.size() > memoEntryMax {
				t.Fatalf("stored an answer of %d bytes, over the per-entry cap %d", a.size(), memoEntryMax)
			}
			m.Lookup(key)
		}
		if entries, bytes, counted := held(&m); entries > memoSlots || bytes > memoBudget || counted != bytes {
			t.Fatalf("after %d keys the memo holds %d entries, %d bytes (counted %d); caps %d and %d",
				i+1, entries, bytes, counted, memoSlots, memoBudget)
		}
	}
	if entries, _, _ := held(&m); entries == 0 {
		t.Fatal("the memo stored nothing")
	}
	key := core.Resolved{Algo: "exact", Q: 1, K: 2}
	huge := answerOf(key, memoEntryMax/8+1)
	m.Offer(key, huge)
	if m.Offer(key, huge) != nil || m.Lookup(key) != nil {
		t.Fatal("stored an answer above the per-entry cap")
	}
}

// TestMemoRace: goroutines offering and looking up the same few keys see
// either nothing or the answer stored for the very key they asked.
func TestMemoRace(t *testing.T) {
	var m Memo
	keys := make([]core.Resolved, 8)
	answers := make([]*wire.Result, len(keys))
	for i := range keys {
		keys[i] = core.Resolved{Algo: "appacc", Q: graph.V(i), K: 3, EpsA: 0.5}
		answers[i] = answerOf(keys[i], 5_000)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 400 {
				j := (g + i) % len(keys)
				if a := m.Lookup(keys[j]); a != nil && a.Result != answers[j] {
					t.Errorf("key %d found another key's answer", j)
					return
				}
				m.Offer(keys[j], answers[j])
			}
		}()
	}
	wg.Wait()
	if _, bytes, counted := held(&m); bytes > memoBudget || counted != bytes {
		t.Fatalf("memo holds %d bytes, counted %d, budget %d", bytes, counted, memoBudget)
	}
}

// TestMemoLookupAllocs: a hit allocates nothing.
func TestMemoLookupAllocs(t *testing.T) {
	var m Memo
	key := core.Resolved{Algo: "appfast", Q: 3, K: 4, EpsF: 0.5}
	res := answerOf(key, 3100)
	m.Offer(key, res)
	m.Offer(key, res)
	if n := testing.AllocsPerRun(100, func() {
		if m.Lookup(key) == nil {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Fatalf("a hit allocates %v times", n)
	}
}

// TestMemoPerSnapshot: every publication starts an empty memo, and an older
// snapshot keeps its own.
func TestMemoPerSnapshot(t *testing.T) {
	e := newEngine(t)
	old := e.Current()
	key := core.Resolved{Algo: "appfast", Q: 1, K: 2, EpsF: 0.5}
	old.Memo().Offer(key, answerOf(key, 10))
	old.Memo().Offer(key, answerOf(key, 10))
	if err := e.CheckIn(context.Background(), 5, geom.Point{X: 0.3, Y: 0.3}); err != nil {
		t.Fatal(err)
	}
	if cur := e.Current(); cur == old || cur.Memo().Lookup(key) != nil {
		t.Fatal("the snapshot after a write inherited an answer")
	}
	if old.Memo().Lookup(key) == nil {
		t.Fatal("the older snapshot lost its answer")
	}
}
