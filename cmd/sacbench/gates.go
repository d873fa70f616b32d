package main

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/exp"
	"sacsearch/internal/graph"
	"sacsearch/internal/telemetry"
)

// The two CI safety gates. Each measures on cfg's first dataset with the
// experiments' own query workload, prints one result line to stderr and
// fails the run on a violated bound. Measurements use testing.Benchmark so
// ns/op match what `go test -bench` reports.

// minGateCPUs is the smallest machine -gate-parallel judges: a 1-core
// runner measuring ~1× is expected physics, not a regression.
const minGateCPUs = 4

// telemetryCost is what the metrics layer costs per query: the same
// serve-shaped loop run against a nil registry — whose instruments are
// documented no-ops — and against a live one.
type telemetryCost struct {
	baseNsPerOp, instrumentedNsPerOp float64
}

// overheadPct is the live registry's share as a percentage of the base run.
func (c telemetryCost) overheadPct() float64 {
	if c.baseNsPerOp <= 0 {
		return 0
	}
	return (c.instrumentedNsPerOp - c.baseNsPerOp) / c.baseNsPerOp * 100
}

// telemetryVerdict decides -gate-telemetry: the instrumented query hot path
// may cost at most maxPct percent over the nil-registry run.
func telemetryVerdict(c telemetryCost, maxPct float64) (line string, ok bool) {
	pct := c.overheadPct()
	if pct > maxPct {
		return fmt.Sprintf("telemetry gate FAILED: overhead %.2f%% > allowed %.2f%% (base %.0f ns/op, instrumented %.0f ns/op)",
			pct, maxPct, c.baseNsPerOp, c.instrumentedNsPerOp), false
	}
	return fmt.Sprintf("telemetry gate passed: overhead %.2f%% ≤ %.2f%% (base %.0f ns/op, instrumented %.0f ns/op)",
		pct, maxPct, c.baseNsPerOp, c.instrumentedNsPerOp), true
}

// parallelVerdict decides -gate-parallel from the best speedup either exact
// algorithm reached; below minGateCPUs it skips (and best is not looked at).
func parallelVerdict(best, threshold float64, numCPU int) (line string, ok bool) {
	switch {
	case numCPU < minGateCPUs:
		return fmt.Sprintf("-gate-parallel %.2g skipped: only %d CPUs (need ≥ %d for a meaningful scaling gate)",
			threshold, numCPU, minGateCPUs), true
	case best < threshold:
		return fmt.Sprintf("parallel gate FAILED: best Exact/Exact+ speedup %.2fx < required %.2fx (gomaxprocs %d, numcpu %d)",
			best, threshold, runtime.GOMAXPROCS(0), numCPU), false
	}
	return fmt.Sprintf("parallel gate passed: best speedup %.2fx ≥ %.2fx", best, threshold), true
}

// measureTelemetry runs the serve-shaped query loop against a nil registry
// and a live one. The loop mirrors what one /v1/query costs the server
// beyond the search itself: a root span, the in-flight gauge, the request
// counter, and the per-algo duration histogram and work counters. Spans are
// always on in the server (they cannot be disabled), so both arms pay for
// them; the differential isolates the registry's share.
//
// The registry's per-op cost (~0.5µs: one context alloc, two label-key
// joins, a handful of atomics) is an order of magnitude below the
// run-to-run jitter of the query itself, so a single base/instrumented
// pair would report noise. The arms therefore alternate over several
// rounds — so slow drift (thermal, GC pacing) hits both equally — and
// each arm keeps its minimum, the standard noise-robust estimator.
func measureTelemetry(g *graph.Graph, queries []graph.V, k int) (telemetryCost, error) {
	var out telemetryCost
	arm := func(reg *telemetry.Registry) (float64, error) {
		s := core.NewSearcher(g)
		httpMet := telemetry.NewHTTPMetrics(reg)
		queryDur := reg.HistogramVec("sac_query_duration_seconds",
			"Query wall time by algorithm.", nil, "algo")
		cand := reg.CounterVec("sac_query_candidate_vertices_total",
			"Candidate vertices examined, by algorithm.", "algo")
		// Warm the searcher's caches outside the timed region so first-touch
		// costs don't land in whichever arm runs first.
		for _, q := range queries {
			if _, err := s.AppFast(q, k, 0.5); err != nil {
				return 0, err
			}
		}
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				start := time.Now()
				_, span := telemetry.StartSpan(context.Background(), "POST /v1/query")
				httpMet.Inflight.Add(1)
				res, err := s.AppFast(queries[i%len(queries)], k, 0.5)
				if err != nil {
					benchErr = err
					b.FailNow()
				}
				elapsed := time.Since(start)
				queryDur.With("appfast").Observe(elapsed.Seconds())
				cand.With("appfast").Add(uint64(res.Stats.CandidateSize))
				span.End()
				httpMet.Inflight.Add(-1)
				httpMet.Requests.With("/v1/query", "POST", "200").Inc()
				httpMet.Duration.With("/v1/query").Observe(elapsed.Seconds())
			}
		})
		return float64(r.NsPerOp()), benchErr
	}
	const rounds = 3
	for i := 0; i < rounds; i++ {
		base, err := arm(nil)
		if err != nil {
			return out, err
		}
		instr, err := arm(telemetry.NewRegistry())
		if err != nil {
			return out, err
		}
		if i == 0 || base < out.baseNsPerOp {
			out.baseNsPerOp = base
		}
		if i == 0 || instr < out.instrumentedNsPerOp {
			out.instrumentedNsPerOp = instr
		}
	}
	return out, nil
}

// workerLadder is the worker-count sweep: powers of two from 2 up to the
// machine's core count. It is derived from NumCPU, not GOMAXPROCS — a
// process booted with GOMAXPROCS=1 would otherwise collapse the ladder and
// silently erase the scaling curve.
func workerLadder() []int {
	top := runtime.NumCPU()
	var counts []int
	for w := 2; w < top; w *= 2 {
		counts = append(counts, w)
	}
	return append(counts, top)
}

// measureParallel benchmarks the intra-query parallel enumeration paths and
// returns the best serial ÷ parallel ratio either reached. The Exact/Exact+
// arms pick the workload query with the largest candidate set still under
// cfg.ExactCap — the widest enumeration the harness is allowed to run — and
// measure the same query serially and at each ladder worker count (the
// parallel results are byte-identical to the serial ones by construction;
// the differential tests pin this).
//
// At full scale no such query exists: every preset collapses into one giant
// connected k-core at the workload k, so plain Exact's pairwise enumeration
// is the paper's >10h case and is honestly skipped. Exact+ survives — the
// annulus filter is the whole point of Algorithm 5 — so the fallback
// benches it on the smallest feasible candidate at doubled k, escalating
// until any query is feasible.
func measureParallel(g *graph.Graph, queries []graph.V, cfg exp.Config) float64 {
	s := core.NewSearcher(g)
	ladder := workerLadder()
	speedup := func(run func() error) float64 {
		// A scan's workers are GOMAXPROCS over the queries in flight, so
		// each arm runs at its worker count of processors.
		bench := func(workers int) float64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						b.Fatal(err)
					}
				}
			})
			return float64(r.NsPerOp())
		}
		serial := bench(1)
		best := 0.0
		for _, w := range ladder {
			if ns := bench(w); ns > 0 && serial/ns > best {
				best = serial / ns
			}
		}
		return best
	}

	bestQ := graph.V(-1)
	bestSize := -1
	for _, q := range queries {
		probe, err := s.AppFast(q, cfg.K, 2)
		if err != nil {
			continue
		}
		if sz := probe.Stats.CandidateSize; sz <= cfg.ExactCap && sz > bestSize {
			bestQ, bestSize = q, sz
		}
	}
	if bestSize > 0 {
		return max(
			speedup(func() error { _, err := s.Exact(bestQ, cfg.K); return err }),
			speedup(func() error { _, err := exp.ExactPlus(s, bestQ, cfg.K); return err }),
		)
	}
	// Full-scale fallback: smallest feasible candidate at escalating k.
	// A doubled degree bound thins the core below whole-graph size while
	// AppAcc's annulus stays tight (pushing k further makes the filter
	// admit nearly every circle and the scan slower, not faster).
	for k := 2 * cfg.K; k <= 16*cfg.K; k *= 2 {
		fbQ, fbSize := graph.V(-1), -1
		for _, q := range queries {
			probe, err := s.AppFast(q, k, 2)
			if err != nil {
				continue
			}
			if sz := probe.Stats.CandidateSize; fbSize < 0 || sz < fbSize {
				fbQ, fbSize = q, sz
			}
		}
		if fbSize > 0 {
			return speedup(func() error { _, err := exp.ExactPlus(s, fbQ, k); return err })
		}
	}
	return 0
}
