package core

import (
	"runtime"
	"sync"
	"testing"

	"sacsearch/internal/graph"
)

// TestPoolMatchesSequential runs the same query stream through concurrent
// Pool workers and through one sequential Searcher and requires identical
// Members and MCC for every query. Run under -race this also exercises the
// no-shared-mutable-state property of pooled clones.
func TestPoolMatchesSequential(t *testing.T) {
	g := clusteredGraph(13, 8, 9, 60)
	base := NewSearcher(g)
	pool := NewPool(base)

	type query struct {
		q graph.V
		k int
	}
	var stream []query
	for v := 0; v < g.NumVertices(); v += 3 {
		for _, k := range []int{2, 3, 4} {
			stream = append(stream, query{graph.V(v), k})
		}
	}
	// Repeat the stream so pooled workers see warm-cache queries too.
	stream = append(stream, stream...)

	seq := NewSearcher(g)
	want := make([]*Result, len(stream))
	wantErr := make([]error, len(stream))
	for i, qu := range stream {
		want[i], wantErr[i] = seq.AppFast(qu.q, qu.k, 0.5)
	}

	got := make([]*Result, len(stream))
	gotErr := make([]error, len(stream))
	var wg sync.WaitGroup
	const workers = 8
	feed := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := pool.Get()
			defer pool.Put(ws)
			for i := range feed {
				got[i], gotErr[i] = ws.AppFast(stream[i].q, stream[i].k, 0.5)
			}
		}()
	}
	for i := range stream {
		feed <- i
	}
	close(feed)
	wg.Wait()

	for i := range stream {
		if (wantErr[i] == nil) != (gotErr[i] == nil) {
			t.Fatalf("query %d: err mismatch: seq %v, pool %v", i, wantErr[i], gotErr[i])
		}
		if wantErr[i] != nil {
			continue
		}
		if len(want[i].Members) != len(got[i].Members) {
			t.Fatalf("query %d: member count %d vs %d", i, len(want[i].Members), len(got[i].Members))
		}
		for j := range want[i].Members {
			if want[i].Members[j] != got[i].Members[j] {
				t.Fatalf("query %d: members differ: %v vs %v", i, want[i].Members, got[i].Members)
			}
		}
		if want[i].MCC != got[i].MCC {
			t.Fatalf("query %d: MCC differs: %+v vs %+v", i, want[i].MCC, got[i].MCC)
		}
	}
}

// TestPoolDo exercises clone recycling: a worker answers through Get, comes
// back through Put, and is the one the next Get returns; the cache it warmed
// is the pool's, so another worker finds the view it sorted.
func TestPoolDo(t *testing.T) {
	g := figure3()
	pool := NewPool(NewSearcher(g))
	w := pool.Get()
	res, err := w.Exact(vQ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(res.Members, vQ, vC, vD) {
		t.Fatalf("pooled worker's Exact = %v", res.Members)
	}
	if _, err := w.AppFast(vQ, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if cachedCommunities(w) == 0 {
		t.Fatal("worker did not warm the pool's cache")
	}
	other := pool.Get()
	if res, err := other.AppFast(vQ, 2, 0.5); err != nil || res.Stats.ViewHits != 1 {
		t.Fatalf("another worker did not find the view the first one sorted: %v %+v", err, res)
	}
	pool.Put(other)
	pool.Put(w)
	if got := pool.Get(); got != w || pool.Created() != 2 {
		t.Fatalf("Get after Put cloned a new worker (created %d)", pool.Created())
	}
}

// TestPoolKeepsWarmWorkersAcrossGC pins what the free list is for: an idle
// worker, with its scratch, outlives garbage collections (a sync.Pool drops
// it within two), the most recently used worker is handed out first, and
// retention is capped. The warm cache is the pool's and survives with it.
func TestPoolKeepsWarmWorkersAcrossGC(t *testing.T) {
	pool := NewPool(NewSearcher(figure3()))
	cold, warm := pool.Get(), pool.Get()
	if _, err := warm.AppFast(vQ, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	pool.Put(cold)
	pool.Put(warm)
	runtime.GC()
	runtime.GC()
	if got := pool.Get(); got != warm || cachedCommunities(got) == 0 {
		t.Fatal("Get after GC did not return the most recently used, still warm worker")
	}
	if got := pool.Get(); got != cold {
		t.Fatal("second Get did not return the other idle worker")
	}
	if c := pool.Created(); c != 2 {
		t.Fatalf("Created = %d after recycling two workers, want 2", c)
	}

	// A burst beyond the idle cap is cloned on demand and not retained.
	burst := make([]*Searcher, idleCap()+3)
	for i := range burst {
		burst[i] = pool.Get()
	}
	for _, w := range burst {
		pool.Put(w)
	}
	if len(pool.idle) != idleCap() {
		t.Fatalf("pool retains %d idle workers, want the cap %d", len(pool.idle), idleCap())
	}
}

// TestPoolIdleCapUnderBurst: 64 goroutines each hold a worker at once, so 64
// are cloned; once all are back the free list keeps exactly 2×GOMAXPROCS of
// them, and it stays LIFO — the next Get returns the last worker put back.
func TestPoolIdleCapUnderBurst(t *testing.T) {
	const burst = 64
	pool := NewPool(NewSearcher(figure3()))
	var holding, done sync.WaitGroup
	release := make(chan struct{})
	holding.Add(burst)
	done.Add(burst)
	for i := 0; i < burst; i++ {
		go func() {
			defer done.Done()
			w := pool.Get()
			holding.Done()
			<-release
			pool.Put(w)
		}()
	}
	holding.Wait()
	close(release)
	done.Wait()
	if c := pool.Created(); c != burst {
		t.Fatalf("Created = %d after %d concurrent Gets, want %d", c, burst, burst)
	}
	if want := 2 * runtime.GOMAXPROCS(0); len(pool.idle) != want {
		t.Fatalf("pool retains %d idle workers after the burst, want 2×GOMAXPROCS = %d", len(pool.idle), want)
	}
	a, b := pool.Get(), pool.Get()
	pool.Put(a)
	pool.Put(b)
	if got := pool.Get(); got != b {
		t.Fatal("Get did not return the last worker put back")
	}
	if c := pool.Created(); c != burst {
		t.Fatalf("Created = %d, want %d: recycling cloned", c, burst)
	}
}

// TestPoolIdleCapFollowsGOMAXPROCS: a pool made at GOMAXPROCS 2 and then
// served at 8 keeps 2×8 idle workers, not the 2×2 it was made with, so a
// burst as wide as the machine now runs is not re-cloned on every op.
func TestPoolIdleCapFollowsGOMAXPROCS(t *testing.T) {
	SetProcs(t, 2)
	pool := NewPool(NewSearcher(figure3()))
	runtime.GOMAXPROCS(8)
	held := make([]*Searcher, 16)
	for i := range held {
		held[i] = pool.Get()
	}
	for _, w := range held {
		pool.Put(w)
	}
	if len(pool.idle) != 16 {
		t.Fatalf("pool made at GOMAXPROCS 2 retains %d idle workers at 8, want 16", len(pool.idle))
	}
}
