// Command bench is the one benchmark of the serving stack. It builds
// sacserver, sacshard and sacrouter from the checkout, boots them as child
// processes, drives four named workloads over loopback HTTP with the typed
// client, checks every answer, and prints every metric by name with its
// unit; a separate traced run replays the same generated inputs through
// each layer's public functions, in process, to say where the time goes.
// See README.md in this directory for the metric glossary.
//
// Usage, from this directory (it is a module of its own):
//
//	go run . -seed 1 -out results/run.json          # all workloads, then the traced run
//	go run . -smoke -seed 1                         # the same on small inputs, ~20 s
//	go run . -compare old.json new.json             # regression verdicts, exit 1 on any "worse"
//	bash run.sh --workload single_hot --seed 1 --seconds 24 --trace 0   # the BENCHMARK.json command
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

const schema = "sacsearch-perfbench/1"

// Run shape. The window length comes from the command line (BENCHMARK.json's
// run_seconds for the driver, 30 s for a full run); the warm-up is a fifth
// of it; set-up is repeated so that setup_s can be a median.
const (
	defaultSeconds = 30
	setupRepeats   = 5
)

func warmupFor(window time.Duration) time.Duration { return window / 5 }

// result is the file a full run writes and -compare reads.
type result struct {
	Schema        string                     `json:"schema"`
	Fingerprint   fingerprint                `json:"fingerprint"`
	Seed          int64                      `json:"seed"`
	Sizing        sizing                     `json:"sizing"`
	WarmupSeconds float64                    `json:"warmupSeconds"`
	WindowSeconds float64                    `json:"windowSeconds"`
	Workloads     map[string]*workloadReport `json:"workloads"`
	PerLayer      values                     `json:"perLayer,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's result line (with -seconds and -trace)")
		seed     = flag.Int64("seed", 1, "seed every generated input is a pure function of")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = the traced run's per-layer metrics")
		out      = flag.String("out", "", "write the full run's result JSON here")
		traceOut = flag.String("trace-out", "", "write the traced run's spans here as JSON lines")
		smoke    = flag.Bool("smoke", false, "small inputs and 2 s windows: a quick check that everything boots and agrees")
		compare  = flag.Bool("compare", false, "compare result files: -compare old.json[,old2.json] new.json[,new2.json]")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}

	// Refuse before anything is written: one CPU cannot run a server beside
	// its load generator, and a number recorded there would be read as a
	// regression (or a baseline) later.
	if runtime.NumCPU() < serverProcs {
		fmt.Fprintf(os.Stderr, "bench: %d CPU available, %d needed; refusing to measure\n", runtime.NumCPU(), serverProcs)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(serverProcs)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		out: *out, traceOut: *traceOut, smoke: *smoke,
	})
	stop()
	os.Exit(code)
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	traceOut string
	smoke    bool
}

func run(ctx context.Context, o options) int {
	e, err := newEnv()
	if err == nil {
		defer e.cleanup()
		// A signal cancels ctx; the run in progress then unwinds through its
		// own deferred stopAll, so no child outlives the benchmark.
		err = e.build(ctx)
	}
	if err == nil {
		sz, window := fullSizing, time.Duration(o.seconds)*time.Second
		if o.smoke {
			sz, window = smokeSizing, 2*time.Second
		}
		if o.workload != "" {
			err = driverRun(ctx, e, o, sz, window)
		} else {
			err = fullRun(ctx, e, o, sz, window)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// measure runs one workload end to end and checks its answers.
func measure(ctx context.Context, e *env, name string, seed int64, sz sizing, window time.Duration) (*workloadReport, error) {
	rr, err := e.runE2E(ctx, runConfig{
		Workload: name, Seed: seed, Warmup: warmupFor(window), Window: window,
		Setups: setupRepeats, Sizing: sz,
	})
	if err != nil {
		return nil, err
	}
	return report(rr, verify(rr)), nil
}

// driverRun is the BENCHMARK.json contract: one workload, and as the last
// line of standard output one JSON object with correct, attempted, failed
// and metrics — the gated end-to-end metrics, or with -trace 1 the per-layer
// ones. A wrong answer is reported in the line, not by the exit code.
func driverRun(ctx context.Context, e *env, o options, sz sizing, window time.Duration) error {
	known := false
	for _, n := range workloadNames {
		known = known || n == o.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	line := struct {
		Correct   bool   `json:"correct"`
		Attempted int    `json:"attempted"`
		Failed    int    `json:"failed"`
		Metrics   values `json:"metrics"`
	}{Metrics: values{}}
	var measured values
	defs := gatedE2E
	if o.trace {
		tr, err := tracedRun(ctx, e, o.workload, o.seed, sz, window)
		if err != nil {
			return err
		}
		tr.metrics.print(os.Stdout, "  ")
		if err := tr.writeSpans(o.traceOut); err != nil {
			return err
		}
		line.Attempted, line.Failed, measured, defs = tr.attempted, tr.failed, tr.metrics, perLayer
	} else {
		rep, err := measure(ctx, e, o.workload, o.seed, sz, window)
		if err != nil {
			return err
		}
		printReport(o.workload, rep)
		line.Attempted, line.Failed, measured = rep.Attempted, rep.Failed, rep.Metrics
	}
	for _, d := range defs {
		v, ok := measured[d.Name]
		if !ok {
			return fmt.Errorf("%s produced no %s", o.workload, d.Name)
		}
		line.Metrics[d.Name] = value{Value: v.Value, Unit: v.Unit}
	}
	line.Correct = line.Failed == 0
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

func printReport(name string, rep *workloadReport) {
	fmt.Printf("%s: attempted %d, failed %d, recomputed %d\n", name, rep.Attempted, rep.Failed, rep.Checked)
	rep.Metrics.print(os.Stdout, "  ")
	rep.Info.print(os.Stdout, "  · ")
	for _, p := range rep.Problems {
		fmt.Printf("  ! %s\n", p)
	}
}

// fullRun measures every workload, then does the traced run, prints every
// metric and writes the result file. It fails when any workload has a failed
// operation.
func fullRun(ctx context.Context, e *env, o options, sz sizing, window time.Duration) error {
	res := &result{
		Schema: schema, Fingerprint: takeFingerprint(e.root), Seed: o.seed, Sizing: sz,
		WarmupSeconds: warmupFor(window).Seconds(), WindowSeconds: window.Seconds(),
		Workloads: map[string]*workloadReport{},
	}
	fmt.Printf("fingerprint: %+v\n", res.Fingerprint)
	failed := 0
	e2eP50 := map[string]float64{}
	for _, name := range workloadNames {
		rep, err := measure(ctx, e, name, o.seed, sz, window)
		if err != nil {
			return err
		}
		printReport(name, rep)
		res.Workloads[name] = rep
		failed += rep.Failed
		e2eP50[name] = rep.Metrics["window_query_p50_ms"].Value
	}
	tr, err := traceAll(ctx, e, o.seed, sz, e2eP50)
	if err != nil {
		return err
	}
	fmt.Println("per layer (traced run):")
	tr.metrics.print(os.Stdout, "  ")
	res.PerLayer = tr.metrics
	failed += tr.failed
	if err := tr.writeSpans(o.traceOut); err != nil {
		return err
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failed operations", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
