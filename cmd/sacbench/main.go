// Command sacbench regenerates the paper's tables and figures and hosts the
// two CI safety gates that measure in process.
//
// Usage:
//
//	sacbench -exp fig10                 # one experiment, quick config
//	sacbench -exp all -scale 0.1 -queries 200 -datasets brightkite,gowalla
//	sacbench -list                      # show available experiment ids
//	sacbench -exp fig12exact -paper     # start from the paper-sized config
//	sacbench -exp fig10 -load g.sacg    # bench a saved graph file
//	sacbench -gate-telemetry 5          # CI: telemetry overhead gate
//	sacbench -datasets syn1 -scale 1 -gate-parallel 2  # CI: scaling gate
//	sacbench -exp fig10 -cpuprofile cpu.out -memprofile mem.out
//
// Output goes to stdout; redirect to keep a record alongside EXPERIMENTS.md.
// Performance is tracked by the bench/ module, which drives real server
// processes over HTTP; nothing here records a trajectory.
//
// -gate-parallel fails the run unless the best measured Exact/Exact+
// speedup of parallel over serial circle enumeration reaches the given
// factor. Machines with fewer than 4 CPUs skip the gate with a log line
// instead of failing — a 1-core runner measuring ~1× is expected physics,
// not a regression. -gate-telemetry fails the run when the instrumented
// query hot path costs more than the given percentage over the same path
// on a nil registry (5 is the documented bar). Both measure on the first
// configured dataset and print one result line to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"sacsearch/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main's body behind one normal return path, so the profile-flushing
// defers execute on failures too (os.Exit would skip them).
func run(args []string) int {
	fs := flag.NewFlagSet("sacbench", flag.ExitOnError)
	var (
		expID    = fs.String("exp", "", "experiment id to run, or 'all'")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		paper    = fs.Bool("paper", false, "start from the paper-sized config (hours) instead of the quick one")
		datasets = fs.String("datasets", "", "comma-separated dataset names (default from config)")
		scale    = fs.Float64("scale", 0, "dataset scale in (0,1] (0 = config default)")
		queries  = fs.Int("queries", 0, "queries per dataset (0 = config default)")
		k        = fs.Int("k", 0, "default minimum degree (0 = config default)")
		seed     = fs.Int64("seed", 0, "workload seed (0 = config default)")
		load     = fs.String("load", "", "bench a saved binary graph file instead of the dataset presets")

		procs         = fs.Int("procs", 0, "set GOMAXPROCS for the run (0 = leave the runtime default, normally all cores)")
		gateParallel  = fs.Float64("gate-parallel", 0, "fail unless the best parallel Exact/Exact+ speedup reaches this factor (skipped with a log line when NumCPU < 4)")
		gateTelemetry = fs.Float64("gate-telemetry", 0, "fail when telemetry overhead exceeds this percentage of the uninstrumented hot path")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile    = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	fs.Parse(args) // ExitOnError: Parse does not return on a bad flag

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sacbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "sacbench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sacbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "sacbench: %v\n", err)
			}
		}()
	}

	if *load != "" && *datasets != "" {
		fmt.Fprintln(os.Stderr, "sacbench: -load and -datasets are mutually exclusive")
		return 2
	}

	if *list {
		for _, id := range exp.IDs() {
			e := exp.Registry[id]
			fmt.Printf("%-12s %s\n", id, e.Title)
		}
		return 0
	}
	gating := *gateParallel > 0 || *gateTelemetry > 0
	if *expID == "" && !gating {
		fmt.Fprintln(os.Stderr, "sacbench: -exp, -gate-telemetry or -gate-parallel is required (try -list)")
		return 2
	}

	cfg := exp.DefaultConfig()
	if *paper {
		cfg = exp.PaperConfig()
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *k > 0 {
		cfg.K = *k
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *load != "" {
		cfg.LoadPath = *load
		// One file, one "dataset": experiments iterate cfg.Datasets, so
		// collapse it to a single label the loader will override.
		base := strings.TrimSuffix(filepath.Base(*load), filepath.Ext(*load))
		cfg.Datasets = []string{base}
	}

	if gating {
		if code := runGates(cfg, *gateTelemetry, *gateParallel); code != 0 || *expID == "" {
			return code
		}
	}

	var err error
	if *expID == "all" {
		err = exp.RunAll(cfg, os.Stdout)
	} else {
		err = exp.Run(*expID, cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sacbench: %v\n", err)
		return 1
	}
	return 0
}

// runGates measures and judges the requested gates (a zero bound means not
// requested) on cfg's first dataset, one stderr line each.
func runGates(cfg exp.Config, telemetryPct, parallelX float64) int {
	ds, qs, err := exp.LoadWorkload(cfg, cfg.Datasets[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "sacbench: %v\n", err)
		return 1
	}
	report := func(line string, ok bool) bool {
		fmt.Fprintf(os.Stderr, "sacbench: %s\n", line)
		return ok
	}
	if parallelX > 0 {
		best := 0.0
		if runtime.NumCPU() >= minGateCPUs {
			best = measureParallel(ds.Graph, qs, cfg)
		}
		if !report(parallelVerdict(best, parallelX, runtime.NumCPU())) {
			return 1
		}
	}
	if telemetryPct > 0 {
		cost, err := measureTelemetry(ds.Graph, qs, cfg.K)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sacbench: %v\n", err)
			return 1
		}
		if !report(telemetryVerdict(cost, telemetryPct)) {
			return 1
		}
	}
	return 0
}
