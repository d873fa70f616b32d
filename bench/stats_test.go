package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, c := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("percentile sorts a copy: got %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN, never a fast-looking zero")
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{199, 95, false}, {200, 95, true}, {999, 99, false}, {1000, 99, true}, {20, 50, true}, {19, 50, false}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The acceptance rule for the benchmark is written in terms of Python's
// statistics.quantiles(values, n=4); the expected values below are its output.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 2, 7})
	if q1 != 2 || q2 != 7 || q3 != 10 {
		t.Errorf("quartiles(10,2,7) = %v %v %v, want 2 7 10", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// A round is roundOps consecutive operations of one connection; only rounds
// wholly inside the window count, and the run reports its fastest tenth.
func TestRoundsAndTheirFastestTenth(t *testing.T) {
	n := roundOps[wlChurn]
	t0 := time.Unix(1000, 0)
	rr := &runResult{Workload: wlChurn, t0: t0, t1: t0.Add(100 * time.Second)}
	// One connection, one operation a second, starting one round before the
	// window opens and running past its end; the final sweep (conn -1) is not
	// part of any round.
	at := t0.Add(-time.Duration(n) * time.Second)
	for i := 0; i < 7*n; i++ {
		kind := opCheckin
		if i%2 == 0 {
			kind = opQuery
		}
		rr.records = append(rr.records, opRecord{op: op{Kind: kind}, start: at, end: at.Add(time.Second)})
		at = at.Add(time.Second)
	}
	rr.records = append(rr.records, opRecord{op: op{Kind: opQuery}, conn: -1, start: t0, end: t0.Add(time.Second)})
	rates, p50s := rr.rounds()
	// Rounds 1..4 fit [t0, t0+100s) with n = 20; round 0 starts before the
	// window and round 5 ends on its edge.
	if len(rates) != 4 || len(p50s) != 4 {
		t.Fatalf("%d rates and %d latencies, want 4 each", len(rates), len(p50s))
	}
	for i := range rates {
		if math.Abs(rates[i]-1) > 1e-9 || math.Abs(p50s[i]-1000) > 1e-6 {
			t.Errorf("round %d: %v ops/s, query p50 %v ms, want 1 and 1000", i, rates[i], p50s[i])
		}
	}

	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64((i*7)%40 + 1) // 1..40 in a scrambled order
	}
	if got := fastest(xs, true); got != (40+39+38+37)/4.0 {
		t.Errorf("fastest tenth of the rates = %v, want 38.5", got)
	}
	if got := fastest(xs, false); got != (1+2+3+4)/4.0 {
		t.Errorf("fastest tenth of the latencies = %v, want 2.5", got)
	}
	if got := fastest([]float64{3, 1, 2}, false); got != 1 {
		t.Errorf("fastest of three = %v, want the single lowest", got)
	}
}
