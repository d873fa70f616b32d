package subscribe

import (
	"errors"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"testing"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/telemetry"
)

// fakePend counts the notifications one round coalesced.
type fakePend struct{ notes int }

// fakeBackend scripts the three decisions a front-end makes, and records
// what the dispatcher asked of it.
type fakeBackend struct {
	mu     sync.Mutex
	rounds []int          // notes per begun round
	gated  map[string]int // Gate calls per subscription
	evals  map[string]int // Evaluate calls per subscription
	fail   map[string]int // remaining scripted failures per subscription
	pass   bool           // Gate's verdict

	// hold, when non-nil, blocks every Evaluate until closed; entered
	// signals each arrival.
	hold    chan struct{}
	entered chan struct{}
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{gated: map[string]int{}, evals: map[string]int{}, fail: map[string]int{}}
}

func (b *fakeBackend) Begin(p *fakePend) (uint64, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rounds = append(b.rounds, p.notes)
	return uint64(len(b.rounds)), true
}

func (b *fakeBackend) Gate(sub *Sub, _ *fakePend) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gated[sub.ID]++
	return b.pass
}

// Evaluate answers with a community that grows by one member per call, so
// every successful evaluation after the first yields a delta.
func (b *fakeBackend) Evaluate(sub *Sub, _ *fakePend) (*EvalResult, error) {
	b.mu.Lock()
	hold, entered := b.hold, b.entered
	b.mu.Unlock()
	if hold != nil {
		entered <- struct{}{}
		<-hold
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.evals[sub.ID]++
	if b.fail[sub.ID] > 0 {
		b.fail[sub.ID]--
		return nil, errors.New("scripted failure")
	}
	members := make([]int64, b.evals[sub.ID])
	for i := range members {
		members[i] = int64(i)
	}
	return &EvalResult{Members: members}, nil
}

func (b *fakeBackend) counts(id string) (gated, evals int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gated[id], b.evals[id]
}

func note(d *Dispatcher[fakePend]) { d.Merge(func(p *fakePend) { p.notes++ }) }

// waitRounds blocks until the dispatcher has completed n rounds (the fake's
// Begin numbers them, so ProcessedSeq counts completed rounds).
func waitRounds(t *testing.T, d *Dispatcher[fakePend], n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.ProcessedSeq() < n {
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher stuck at round %d, want %d", d.ProcessedSeq(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// mustRegister registers a subscription and attaches a stream to it. The
// initial evaluation races the attach, so the init event is either live on
// the stream or in the returned replay.
func mustRegister(t *testing.T, d *Dispatcher[fakePend], id string) (*Stream, []Event) {
	t.Helper()
	sub, err := d.Register(id, core.Query{Q: 1, K: 2, Algo: "appfast"})
	if err != nil {
		t.Fatal(err)
	}
	st, replay, err := sub.Attach(0, false)
	if err != nil {
		t.Fatal(err)
	}
	return st, replay
}

// TestDispatcherCoalesces: notifications arriving while a round is busy fold
// into one pending summary and are answered by one further round.
func TestDispatcherCoalesces(t *testing.T) {
	be := newFakeBackend()
	be.pass = true
	hold := make(chan struct{})
	be.hold, be.entered = hold, make(chan struct{}, 1)
	d := NewDispatcher[fakePend](Options{}, nil, be)
	defer d.Close()
	mustRegister(t, d, "a")
	<-be.entered // the initial evaluation is parked inside round 1
	for i := 0; i < 5; i++ {
		note(d)
	}
	be.mu.Lock()
	be.hold = nil // later evaluations run straight through
	be.mu.Unlock()
	close(hold)
	waitRounds(t, d, 2)
	be.mu.Lock()
	rounds := append([]int(nil), be.rounds...)
	be.mu.Unlock()
	if len(rounds) != 2 || rounds[0] != 0 || rounds[1] != 5 {
		t.Fatalf("rounds saw %v notifications, want [0 5]: five notifications, one round", rounds)
	}
	if _, evals := be.counts("a"); evals != 2 {
		t.Fatalf("a evaluated %d times, want 2 (init + the coalesced round)", evals)
	}
}

// TestDispatcherRegistrationOnlyRound: a registration evaluates only the
// subscriptions still waiting for their first result — established ones are
// neither gated nor re-evaluated.
func TestDispatcherRegistrationOnlyRound(t *testing.T) {
	be := newFakeBackend()
	be.pass = true
	d := NewDispatcher[fakePend](Options{}, nil, be)
	defer d.Close()
	mustRegister(t, d, "a")
	waitRounds(t, d, 1)
	mustRegister(t, d, "b")
	waitRounds(t, d, 2)
	if gated, evals := be.counts("a"); gated != 0 || evals != 1 {
		t.Fatalf("a: gated %d evaluated %d after b's registration, want 0 and 1", gated, evals)
	}
	if _, evals := be.counts("b"); evals != 1 {
		t.Fatalf("b evaluated %d times, want 1", evals)
	}
}

// TestDispatcherRetriesFailedEvaluation: a failed evaluation delivers
// nothing and is retried on the next notification even when the gate would
// have skipped it; once it succeeds the gate is consulted again.
func TestDispatcherRetriesFailedEvaluation(t *testing.T) {
	be := newFakeBackend() // Gate says "unchanged" throughout
	be.fail["a"] = 1
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil)) // the scripted failure is logged at Warn
	d := NewDispatcher[fakePend](Options{Metrics: telemetry.NewRegistry()}, quiet, be)
	defer d.Close()
	st, _ := mustRegister(t, d, "a")
	waitRounds(t, d, 1)
	if got := len(drainStream(st)); got != 0 {
		t.Fatalf("failed initial evaluation delivered %d events", got)
	}
	note(d)
	waitRounds(t, d, 2)
	evs := drainStream(st)
	if len(evs) != 1 || evs[0].Kind != KindInit {
		t.Fatalf("retry delivered %v, want one init", evs)
	}
	if gated, evals := be.counts("a"); gated != 0 || evals != 2 {
		t.Fatalf("after retry: gated %d evaluated %d, want 0 and 2", gated, evals)
	}
	skipped0 := d.Hub().Skipped().Value()
	note(d)
	waitRounds(t, d, 3)
	if gated, evals := be.counts("a"); gated != 1 || evals != 2 {
		t.Fatalf("after success: gated %d evaluated %d, want 1 and 2", gated, evals)
	}
	if got := d.Hub().Skipped().Value(); got != skipped0+1 {
		t.Fatalf("skipped_by_gate %d -> %d, want +1", skipped0, got)
	}
}

// TestDispatcherCloseFlushesThenByes: a change notified before Close reaches
// the stream as a delta ahead of the terminal bye, whichever of the dispatch
// loop and Close's final round picks it up, and Close leaves no goroutine
// behind.
func TestDispatcherCloseFlushesThenByes(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		be := newFakeBackend()
		be.pass = true
		d := NewDispatcher[fakePend](Options{}, nil, be)
		st, replay := mustRegister(t, d, "a")
		waitRounds(t, d, 1)
		note(d)
		d.Close()
		var kinds []string
		for _, ev := range replay {
			kinds = append(kinds, ev.Kind)
		}
		for ev := range st.C { // Close closes the stream after the bye
			kinds = append(kinds, ev.Kind)
		}
		if len(kinds) != 3 || kinds[0] != KindInit || kinds[1] != KindDelta || kinds[2] != KindBye {
			t.Fatalf("iteration %d: stream saw %v, want [init delta bye]", i, kinds)
		}
		if _, err := d.Register("late", core.Query{Q: 1, K: 2, Algo: "appfast"}); !errors.Is(err, ErrClosed) {
			t.Fatalf("Register after Close: %v, want ErrClosed", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
