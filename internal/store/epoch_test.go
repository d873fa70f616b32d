package store

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{Init: testGraph(), CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return st
}

func TestEpochStartsAtOneAndWritesFlow(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	defer st.Close()
	if st.Epoch() != 1 || st.Fenced() || st.FencedBy() != 0 {
		t.Fatalf("fresh store: epoch=%d fenced=%v by=%d", st.Epoch(), st.Fenced(), st.FencedBy())
	}
	if err := st.CheckIn(context.Background(), 0, geom.Point{X: 0.5, Y: 0.5}); err != nil {
		t.Fatalf("unfenced check-in: %v", err)
	}
	s := st.Stats()
	if s.Epoch != 1 || s.FencedBy != 0 {
		t.Fatalf("stats epoch=%d fencedBy=%d", s.Epoch, s.FencedBy)
	}
}

func TestFenceRejectsWritesAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ctx := context.Background()

	// Stale news (at or below the current epoch) is a no-op.
	if err := st.Fence(1); err != nil {
		t.Fatal(err)
	}
	if st.Fenced() {
		t.Fatal("fenced by its own epoch")
	}

	if err := st.Fence(5); err != nil {
		t.Fatal(err)
	}
	if !st.Fenced() || st.FencedBy() != 5 {
		t.Fatalf("fenced=%v by=%d, want true/5", st.Fenced(), st.FencedBy())
	}
	if err := st.CheckIn(ctx, 0, geom.Point{X: 0.1, Y: 0.1}); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced check-in: err = %v, want ErrFenced", err)
	}
	if _, err := st.UpdateEdge(ctx, 0, graph.V(7), true); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced edge update: err = %v, want ErrFenced", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The fence is durable: a restarted deposed leader stays deposed.
	st2 := openTestStore(t, dir)
	defer st2.Close()
	if !st2.Fenced() || st2.FencedBy() != 5 || st2.Epoch() != 1 {
		t.Fatalf("reopened: fenced=%v by=%d epoch=%d", st2.Fenced(), st2.FencedBy(), st2.Epoch())
	}
	if err := st2.CheckIn(ctx, 0, geom.Point{X: 0.2, Y: 0.2}); !errors.Is(err, ErrFenced) {
		t.Fatalf("reopened fenced check-in: err = %v, want ErrFenced", err)
	}
}

func TestBumpEpochClearsFenceAndOutranksFencer(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	ctx := context.Background()
	if err := st.Fence(5); err != nil {
		t.Fatal(err)
	}
	next, err := st.BumpEpoch()
	if err != nil {
		t.Fatal(err)
	}
	// Promotion must outrank the epoch that fenced us, not just our own.
	if next != 6 || st.Fenced() || st.FencedBy() != 0 {
		t.Fatalf("after bump: epoch=%d fenced=%v by=%d, want 6/false/0", next, st.Fenced(), st.FencedBy())
	}
	if err := st.CheckIn(ctx, 0, geom.Point{X: 0.3, Y: 0.3}); err != nil {
		t.Fatalf("post-promotion check-in: %v", err)
	}
	// An echo of the old fencer is now stale and ignored.
	if err := st.Fence(5); err != nil {
		t.Fatal(err)
	}
	if st.Fenced() {
		t.Fatal("re-fenced by a stale epoch")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	defer st2.Close()
	if st2.Epoch() != 6 || st2.Fenced() {
		t.Fatalf("reopened: epoch=%d fenced=%v, want 6/false", st2.Epoch(), st2.Fenced())
	}
}

// TestFenceStopsTheLog pins the fence at the place a record becomes durable:
// once Fence returns, the WAL's last sequence never moves — not for writes
// that were already past the door check and queued in the engine — and a
// reopened store recovers exactly that sequence. Every write either succeeded
// (logged before the fence) or failed with ErrFenced.
func TestFenceStopsTheLog(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Init: testGraph(), CheckpointInterval: -1, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const writers = 64
	var (
		wg      sync.WaitGroup
		started sync.WaitGroup
		acked   atomic.Uint64
	)
	started.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := st.CheckIn(ctx, graph.V(w%8), geom.Point{X: float64(w) / writers, Y: float64(i%97) / 97})
				if i == 0 {
					started.Done()
				}
				if err != nil {
					if !errors.Is(err, ErrFenced) {
						t.Errorf("writer %d: err = %v, want nil or ErrFenced", w, err)
					}
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	started.Wait() // every writer has a write through; the queue stays busy from here
	if err := st.Fence(7); err != nil {
		t.Fatal(err)
	}
	atFence := st.WalLastSeq()
	wg.Wait()
	if got := st.WalLastSeq(); got != atFence {
		t.Fatalf("WAL grew from seq %d to %d after Fence returned", atFence, got)
	}
	if got := acked.Load(); got != atFence {
		t.Fatalf("%d writes acknowledged, WAL holds %d records", got, atFence)
	}
	// The hook itself refuses, whatever reaches it.
	if _, err := st.persistBatch([]graph.Write{{Kind: graph.WriteCheckin, V: 1, Loc: geom.Point{X: 0.5, Y: 0.5}}}); !errors.Is(err, ErrFenced) {
		t.Fatalf("persistBatch on a fenced store: err = %v, want ErrFenced", err)
	}
	if got := st.WalLastSeq(); got != atFence {
		t.Fatalf("a fenced persistBatch moved the WAL from seq %d to %d", atFence, got)
	}
	st.Crash()

	st2, err := Open(dir, Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.WalLastSeq(); got != atFence || !st2.Fenced() {
		t.Fatalf("reopened: seq %d fenced=%v, want seq %d and fenced", got, st2.Fenced(), atFence)
	}
}
