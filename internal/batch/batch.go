// Package batch implements batched SAC query processing — the paper's
// Section 6 future work ("we will study how to support batch processing for
// SAC search"). Applications like event recommendation fire many SAC queries
// at once (one per online user); answering them together beats answering
// them one by one because
//
//   - the O(m) core decomposition is computed once and shared by every
//     worker (core.Pool clones share the immutable decompositions),
//   - duplicate (q, k) pairs — common when hot users re-query — are
//     answered once and fanned back out,
//   - queries run on a configurable number of workers drawn from a
//     Source (a core.Pool, or a published snapshot that pins the whole
//     batch to one graph state), each owning isolated scratch space and
//     sharing the pool's candidate cache, so the batch saturates the
//     machine without data races — and when the caller keeps the pool alive
//     across batches, the cache it warmed survives between batches too.
//
// A batch names its algorithm the way a single query does: Options.Template
// is a core.Query (any registered algorithm, parameters included) whose Q
// and K each item fills in, dispatched through the registry.
//
// Every entry point takes a context: when it fires, in-flight queries stop
// at their next loop boundary and return core.ErrCanceled, and queries not
// yet dispatched are failed with the same error without running — a batch
// deadline bounds the whole batch, not just the queries that happened to
// start. Results come back in input order.
//
// Fan is the one driver behind all of it, generic in what answers a query:
// Run hands it a search on a worker drawn from a Source, and the
// HTTP front-ends' /v1/batch (internal/httpapi's ServeBatch) hand it the
// function that answers their /v1/query, so a server and a router fan a
// batch out alike.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sacsearch/internal/core"
	"sacsearch/internal/graph"
)

// Source supplies searcher workers for exclusive per-goroutine use. A
// *core.Pool is a Source; so is a published snapshot (internal/snapshot's
// Snap), which hands out workers pinned to one immutable graph state.
type Source interface {
	Get() *core.Searcher
	Put(*core.Searcher)
}

// Query is one SAC request.
type Query struct {
	Q graph.V
	K int
}

// Outcome is one answered query. Exactly one of Result and Err is set.
//
// Deduplicated batches alias: every occurrence of the same (q, k) in a
// batch carries the SAME Result. Results are read-only by contract, so the
// sharing is safe; callers that mutate a result (sorting Members in place,
// say) must copy it first.
type Outcome[R any] struct {
	Query
	Result R
	Err    error
}

// Item is one query answered by a searcher.
type Item = Outcome[*core.Result]

// Options configures a batch run. The zero value runs the registry's
// default algorithm (AppFast(0.5)) on GOMAXPROCS workers.
type Options struct {
	// Workers is the number of concurrent searchers; ≤ 0 means GOMAXPROCS.
	Workers int
	// Template selects the algorithm and parameters for every item in the
	// batch — any registered algorithm, θ-SAC included — as a core.Query
	// whose Q and K are replaced per item. An empty Algo means
	// core.DefaultAlgo and absent parameters take the registry's defaults.
	Template core.Query
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run answers every query on workers drawn from p — one per query, for
// the length of its search — and returns the items in input order.
// Duplicate (q, k) pairs are answered once and fanned back out. A long-lived
// core.Pool keeps its workers' warmed candidate caches between batches. A
// pool's base searcher is never used directly, so it may be in use elsewhere
// as long as the graph's locations are not mutated concurrently; snapshot
// sources have no such caveat. When ctx fires, undispatched queries fail
// with core.ErrCanceled without running.
func Run(ctx context.Context, p Source, queries []Query, opt Options) []Item {
	return Fan(ctx, queries, opt.workers(), func(ctx context.Context, q Query) (*core.Result, error) {
		w := p.Get()
		defer p.Put(w)
		t := opt.Template
		t.Q, t.K = q.Q, q.K
		return w.Search(ctx, t)
	})
}

// Fan answers every query with answer, at most workers (at least one) at a
// time, and returns the outcomes in input order. Each distinct (q, k) is
// answered once and its outcome fanned back out to every occurrence. When
// ctx fires, queries not yet dispatched fail with core.ErrCanceled without
// running; answer sees ctx and is expected to give up on it too.
func Fan[R any](ctx context.Context, queries []Query, workers int, answer func(context.Context, Query) (R, error)) []Outcome[R] {
	items := make([]Outcome[R], len(queries))

	// Deduplicate: first occurrence owns the computation.
	type slot struct {
		first int   // index into queries that computes the answer
		rest  []int // indices that reuse it
	}
	order := make([]Query, 0, len(queries))
	slots := make(map[Query]*slot, len(queries))
	for i, q := range queries {
		if sl, ok := slots[q]; ok {
			sl.rest = append(sl.rest, i)
			continue
		}
		slots[q] = &slot{first: i}
		order = append(order, q)
	}

	// Each worker claims the next undispatched query until none is left; one
	// claimed after ctx fired is failed instead of run, with the error an
	// in-flight query would return (errors.Is holds for core.ErrCanceled and
	// for the context's cause).
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(max(workers, 1), len(order)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(order); i = int(next.Add(1) - 1) {
				o := Outcome[R]{Query: order[i]}
				if err := ctx.Err(); err != nil {
					o.Err = fmt.Errorf("%w: %w", core.ErrCanceled, err)
				} else {
					o.Result, o.Err = answer(ctx, o.Query)
				}
				items[slots[o.Query].first] = o
			}
		}()
	}
	wg.Wait()

	// Fan duplicate answers back out.
	for q, sl := range slots {
		for _, i := range sl.rest {
			items[i] = items[sl.first]
			items[i].Query = q
		}
	}
	return items
}

// Workload builds the all-pairs batch for one k over a set of query
// vertices — a convenience for benchmark harnesses and the batch example.
func Workload(qs []graph.V, k int) []Query {
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = Query{Q: q, K: k}
	}
	return out
}
