package main

import "testing"

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	fail := metricDef{Name: "fail_share", Better: "lower", Bound: 0.001}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"latency up past the bound", lower, []float64{10}, []float64{11.5}, verdictWorse},
		{"latency up inside the bound", lower, []float64{10}, []float64{10.9}, verdictSame},
		{"latency down past the bound", lower, []float64{10}, []float64{8}, verdictBetter},
		{"throughput down past the bound", higher, []float64{100}, []float64{85}, verdictWorse},
		{"throughput up past the bound", higher, []float64{100}, []float64{115}, verdictBetter},
		{"throughput inside the bound", higher, []float64{100}, []float64{95}, verdictSame},
		{"medians of several quiet runs", lower, []float64{10, 10.1, 9.9, 10, 10.2}, []float64{12, 12.1, 11.9, 12, 12.2}, verdictWorse},
		{"runs noisier than the bound", lower, []float64{8, 10, 12, 9, 11}, []float64{12, 12.1, 11.9, 12, 12.2}, verdictUnresolved},
		{"fail share is absolute", fail, []float64{0}, []float64{0.0005}, verdictSame},
		{"fail share past +0.001", fail, []float64{0}, []float64{0.002}, verdictWorse},
	} {
		if _, _, _, got := judge(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareExitsOneOnWorse(t *testing.T) {
	mk := func(p50 float64) []*result {
		return []*result{{Workloads: map[string]*workloadReport{
			wlHot: {Metrics: values{"query_p50_ms": {Value: p50, Unit: "ms"}, "ops_per_s": {Value: 800, Unit: "1/s"}}},
		}}}
	}
	defs := []metricDef{{"ops_per_s", "1/s", "higher", 0.10}, {"query_p50_ms", "ms", "lower", 0.10}}
	if code := compareResults(mk(2), mk(2.1), defs); code != 0 {
		t.Errorf("a move inside the bound exits %d, want 0", code)
	}
	if code := compareResults(mk(2), mk(3), defs); code != 1 {
		t.Errorf("a regression past the bound exits %d, want 1", code)
	}
}
