package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke boots the real child processes on small inputs, runs every
// workload and the traced run, and checks that the run is correct, quick,
// and leaves no process behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots child processes")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.cleanup() // only the binary directory's name is needed here
	out := filepath.Join(t.TempDir(), "smoke.json")
	start := time.Now()
	if code := run(context.Background(), options{smoke: true, seed: 1, out: out}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("smoke run took %v, want under 30s", d)
	}
	res, err := readResults(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		rep := res[0].Workloads[w]
		if rep == nil || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: report %+v, want attempts and no failure", w, rep)
		}
	}
	for _, d := range perLayer {
		// Five per-layer metrics come from a --trace 1 run's own end-to-end
		// pass; a full run has them in each workload's report instead.
		switch d.Name {
		case "query_p95_ms", "cpu_ms_per_op", "loadgen.cpu_share", "snapshot.pool_clones", "trace.vs_e2e_p50_ratio":
			continue
		}
		if _, ok := res[0].PerLayer[d.Name]; !ok {
			t.Errorf("the traced run produced no %s", d.Name)
		}
	}
	// No daemon started from this checkout's binary directory may be alive.
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		cmdline, err := os.ReadFile(p)
		if err == nil && bytes.HasPrefix(cmdline, []byte(e.bin+string(filepath.Separator))) {
			t.Errorf("leaked process: %s", strings.ReplaceAll(string(cmdline), "\x00", " "))
		}
	}
}
