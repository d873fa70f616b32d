package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of xs (p in (0,100]): the
// smallest sample with at least p% of the samples at or below it. It sorts a
// copy. An empty input gives NaN so that a missing class can never read as a
// fast one.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// supported reports whether the p-th percentile of n samples has at least ten
// samples beyond it — the rule the benchmark uses to decide which tail a run
// may speak about (p95 needs 200 samples, p99 needs 1000).
func supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10-1e-9 // 100-99.9 is not exact in binary
}

// highestSupported returns the highest of the candidate percentiles that n
// samples support, or 50 when none does.
func highestSupported(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if supported(n, p) {
			return p
		}
	}
	return 50
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns Q1, Q2 and Q3 by the method of Python's
// statistics.quantiles(xs, n=4) (exclusive), which is what the acceptance
// rule for this benchmark is written in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

// spread is (Q3−Q1)/median: the run-to-run noise figure the bounds in
// BENCHMARK.json are compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}
