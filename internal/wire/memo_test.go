package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"sacsearch/internal/wire"
)

// hotResult is a hot answer's shape: n sorted ids below 30 000, from first.
func hotResult(n int, first int64) *wire.Result {
	r := &wire.Result{
		Q: first, K: 4,
		MCC:   wire.Circle{X: 0.4816, Y: 0.5173, R: 0.0392},
		Delta: 0.0784,
		Stats: wire.Stats{CandidateSize: 29871, FeasibilityChecks: 7, BinaryIters: 6, ElapsedMicros: 88, Algorithm: "appfast"},
	}
	r.Members = make([]int64, n)
	for i := range r.Members {
		r.Members[i] = first + int64(9*i+i%7)
	}
	return r
}

// mustMatch encodes r and fails unless the bytes are the encoder's.
func mustMatch(t testing.TB, what string, r *wire.Result) {
	t.Helper()
	want, _ := encoded(r)
	got, err := wire.AppendResult(nil, r)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendResult %.80s… (%v), encoder %.80s…", what, got, err, want)
	}
}

// TestMembersMemoCollision forces every members array to one hash: two
// answers that differ in a single id must each still get their own bytes,
// from the memo and around it.
func TestMembersMemoCollision(t *testing.T) {
	wire.WithMemo(func([]int64) uint64 { return 42 }, func() {
		a := hotResult(100, 3)
		b := hotResult(100, 3)
		b.Members[57]++
		for i := 0; i < 4; i++ {
			mustMatch(t, fmt.Sprintf("a, round %d", i), a)
			mustMatch(t, fmt.Sprintf("b, round %d", i), b)
		}
		// Both were stored, one slot each, so the equal hashes were
		// compared, not merely formatted around.
		array, _ := json.Marshal(a.Members)
		one := int64(8*len(a.Members) + len(array))
		if got, _ := wire.MemoBytes(); got != 2*one {
			t.Fatalf("memo holds %d bytes, want two entries of %d", got, one)
		}
	})
}

// TestMembersMemoBound: 1 000 distinct large answers, each seen twice — more
// bytes than the budget even in one entry per slot — leave the memo within
// its budget with its running count exact, and an answer above the per-entry
// cap is formatted every time and never stored.
func TestMembersMemoBound(t *testing.T) {
	wire.WithMemo(nil, func() {
		for i := 0; i < 1000; i++ {
			r := hotResult(5000, int64(i))
			mustMatch(t, "first sighting", r)
			mustMatch(t, "second sighting", r)
		}
		held, counted := wire.MemoBytes()
		if held == 0 || held > wire.MemoBudget || counted != held {
			t.Fatalf("memo holds %d bytes (counted %d) after 1 000 answers, budget %d", held, counted, wire.MemoBudget)
		}
		huge := hotResult(50000, 1)
		for i := 0; i < 3; i++ {
			mustMatch(t, "huge", huge)
		}
		if got, _ := wire.MemoBytes(); got != held {
			t.Fatalf("an answer above the per-entry cap changed the memo: %d → %d bytes", held, got)
		}
	})
}

// TestMembersMemoStoresRepeats: answers seen once (a cold workload) store
// nothing, a list below the minimum is never stored, and the second sighting
// of a long one is.
func TestMembersMemoStoresRepeats(t *testing.T) {
	wire.WithMemo(nil, func() {
		for i := 0; i < 100; i++ {
			mustMatch(t, "seen once", hotResult(3100, int64(i)))
		}
		short := hotResult(wire.MemoMinIDs-1, 5)
		for i := 0; i < 3; i++ {
			mustMatch(t, "short", short)
		}
		if got, _ := wire.MemoBytes(); got != 0 {
			t.Fatalf("answers seen once and a %d-id list were stored (%d bytes)", len(short.Members), got)
		}
		mustMatch(t, "second sighting", hotResult(3100, 99))
		if got, _ := wire.MemoBytes(); got == 0 {
			t.Fatal("the second sighting stored nothing")
		}
	})
}

// TestMembersMemoRace: goroutines alternating two answers through one memo
// each get their own answer's bytes every time (run with -race).
func TestMembersMemoRace(t *testing.T) {
	a, b := hotResult(3100, 0), hotResult(3100, 1)
	wantA, _ := encoded(a)
	wantB, _ := encoded(b)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				r, want := a, wantA
				if (i+g)%2 == 1 {
					r, want = b, wantB
				}
				buf, _ = wire.AppendResult(buf[:0], r)
				if !bytes.Equal(buf, want) {
					errs <- fmt.Errorf("goroutine %d, round %d: wrong bytes for answer %d", g, i, r.Q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMembersMemoHitAllocs: once dst has grown, a memo hit allocates
// nothing — the hash, the compare and the copy all work in place.
func TestMembersMemoHitAllocs(t *testing.T) {
	r := hotResult(3100, 0)
	var dst []byte
	for i := 0; i < 3; i++ {
		dst, _ = wire.AppendResult(dst[:0], r)
	}
	if n := testing.AllocsPerRun(100, func() { dst, _ = wire.AppendResult(dst[:0], r) }); n != 0 {
		t.Fatalf("a hit allocates %v times", n)
	}
}

// BenchmarkAppendResult encodes a 3 100-id answer (a hot syn1 AppFast
// answer's size). Miss is an answer never seen before — a hash and a format;
// Hit is a repeat — a hash, a compare and a copy of the stored bytes.
func BenchmarkAppendResult(b *testing.B) {
	r := hotResult(3100, 0)
	var dst []byte
	next := int64(1 << 40) // never repeats, across every b.N the harness tries
	b.Run("Miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			next++
			r.Members[0] = next
			dst, _ = wire.AppendResult(dst[:0], r)
		}
	})
	r.Members[0] = 0
	b.Run("Hit", func(b *testing.B) {
		for i := 0; i < 2; i++ { // record, then store
			dst, _ = wire.AppendResult(dst[:0], r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, _ = wire.AppendResult(dst[:0], r)
		}
	})
}
