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
// back through Put with its warm cache, and is the one the next Get returns.
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
	if w.CachedCommunities() == 0 {
		t.Fatal("worker did not warm its cache")
	}
	pool.Put(w)
	if got := pool.Get(); got != w || pool.Created() != 1 {
		t.Fatalf("Get after Put cloned a new worker (created %d)", pool.Created())
	}
}

// TestPoolKeepsWarmWorkersAcrossGC pins what the free list is for: an idle
// worker, with its warm cache, outlives garbage collections (a sync.Pool
// drops it within two), the warmest worker is handed out first, and
// retention is capped.
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
	if got := pool.Get(); got != warm || got.CachedCommunities() == 0 {
		t.Fatal("Get after GC did not return the most recently used, still warm worker")
	}
	if got := pool.Get(); got != cold {
		t.Fatal("second Get did not return the other idle worker")
	}
	if c := pool.Created(); c != 2 {
		t.Fatalf("Created = %d after recycling two workers, want 2", c)
	}

	// A burst beyond the idle cap is cloned on demand and not retained.
	burst := make([]*Searcher, pool.maxIdle+3)
	for i := range burst {
		burst[i] = pool.Get()
	}
	for _, w := range burst {
		pool.Put(w)
	}
	if len(pool.idle) != pool.maxIdle {
		t.Fatalf("pool retains %d idle workers, want the cap %d", len(pool.idle), pool.maxIdle)
	}
}
