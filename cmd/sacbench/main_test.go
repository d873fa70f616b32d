package main

import (
	"strings"
	"testing"
)

// TestGateVerdicts pins the two gate decisions: a bound is inclusive, a
// violated bound fails, and -gate-parallel judges nothing below four CPUs.
func TestGateVerdicts(t *testing.T) {
	type verdict struct {
		line string
		ok   bool
	}
	v := func(line string, ok bool) verdict { return verdict{line, ok} }
	for _, tc := range []struct {
		name string
		got  verdict
		ok   bool
		has  string
	}{
		{"telemetry under the bound", v(telemetryVerdict(telemetryCost{100, 104}, 5)), true, "telemetry gate passed: overhead 4.00% ≤ 5.00%"},
		{"telemetry at the bound", v(telemetryVerdict(telemetryCost{100, 105}, 5)), true, "telemetry gate passed"},
		{"telemetry over the bound", v(telemetryVerdict(telemetryCost{100, 106}, 5)), false, "telemetry gate FAILED: overhead 6.00% > allowed 5.00%"},
		{"parallel reaches the factor", v(parallelVerdict(2.4, 2, 8)), true, "parallel gate passed: best speedup 2.40x ≥ 2.00x"},
		{"parallel at the factor", v(parallelVerdict(2, 2, 8)), true, "parallel gate passed"},
		{"parallel short of the factor", v(parallelVerdict(1.3, 2, 8)), false, "parallel gate FAILED: best Exact/Exact+ speedup 1.30x < required 2.00x"},
		{"parallel judged at 4 CPUs", v(parallelVerdict(1, 2, 4)), false, "parallel gate FAILED"},
		{"parallel skipped at 3 CPUs", v(parallelVerdict(0, 2, 3)), true, "-gate-parallel 2 skipped: only 3 CPUs"},
		{"parallel skipped at 1 CPU", v(parallelVerdict(0, 2, 1)), true, "skipped: only 1 CPUs"},
	} {
		if tc.got.ok != tc.ok || !strings.Contains(tc.got.line, tc.has) {
			t.Errorf("%s: got (%q, %v), want ok=%v and a line containing %q", tc.name, tc.got.line, tc.got.ok, tc.ok, tc.has)
		}
	}
}

// TestGateTelemetryStandalone runs the telemetry gate the way CI does — no
// other mode flag — on the quick config, with a bound no measurement can
// violate: the run must measure, judge and exit 0.
func TestGateTelemetryStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("six one-second benchmark arms")
	}
	if code := run([]string{"-gate-telemetry", "1000"}); code != 0 {
		t.Fatalf("sacbench -gate-telemetry 1000 exited %d, want 0", code)
	}
}
