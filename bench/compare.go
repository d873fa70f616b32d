package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// manifest is BENCHMARK.json, as far as -compare and the tests read it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// Verdicts of one compared metric.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the new side's median with the old side's. A move past the
// bound in the good direction is "better", in the bad direction "worse",
// anything else "same" — unless several runs were given and either side's own
// spread is wider than the bound, in which case the runs cannot resolve a
// move of that size and the verdict is "unresolved". The fail_share bound is
// absolute (+0.001); every other bound is a share of the old median.
func judge(d metricDef, old, new []float64) (oldMed, newMed, ratio float64, verdict string) {
	oldMed, newMed = median(old), median(new)
	ratio = newMed / oldMed
	worse, better := newMed > oldMed*(1+d.Bound), newMed < oldMed*(1-d.Bound)
	if d.Better == "higher" {
		worse, better = newMed < oldMed*(1-d.Bound), newMed > oldMed*(1+d.Bound)
	}
	if d.Name == "fail_share" {
		worse, better = newMed > oldMed+d.Bound, newMed < oldMed-d.Bound
	} else if (len(old) > 1 && spread(old) > d.Bound) || (len(new) > 1 && spread(new) > d.Bound) {
		return oldMed, newMed, ratio, verdictUnresolved
	}
	switch {
	case worse:
		return oldMed, newMed, ratio, verdictWorse
	case better:
		return oldMed, newMed, ratio, verdictBetter
	}
	return oldMed, newMed, ratio, verdictSame
}

func readResults(list string) ([]*result, error) {
	var out []*result
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != schema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schema)
		}
		out = append(out, &r)
	}
	return out, nil
}

// compareMain prints one row per workload × end-to-end metric and returns
// the exit code: 1 when any row is "worse", 2 on unusable input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare old.json[,old2.json] new.json[,new2.json]")
		return 2
	}
	olds, err := readResults(args[0])
	var news []*result
	if err == nil {
		news, err = readResults(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// Bounds come from BENCHMARK.json for the metrics it gates; the
	// workload-specific ones keep the bounds in this program's own table.
	defs := append(append([]metricDef(nil), gatedE2E...), ungatedE2E...)
	if wd, err := os.Getwd(); err == nil {
		if root, err := findRoot(wd); err == nil {
			if m, err := readManifest(root); err == nil {
				for i := range defs {
					for _, mm := range m.EndToEnd {
						if mm.Name == defs[i].Name {
							defs[i].Bound = mm.Bound
						}
					}
				}
			}
		}
	}
	if o, n := olds[0].Fingerprint, news[0].Fingerprint; o.NumCPU != n.NumCPU || o.CPUModel != n.CPUModel ||
		o.GoVersion != n.GoVersion || olds[0].WindowSeconds != news[0].WindowSeconds || olds[0].Sizing != news[0].Sizing {
		fmt.Println("warning: the two sides were not measured on the same machine, toolchain, window or input size")
	}
	return compareResults(olds, news, defs)
}

func compareResults(olds, news []*result, defs []metricDef) int {
	code := 0
	fmt.Printf("%-13s %-18s %12s %12s %18s %7s  %s\n", "workload", "metric", "old", "new", "ratio (new/old)", "bound", "verdict")
	for _, w := range workloadNames {
		for _, d := range defs {
			collect := func(rs []*result) []float64 {
				var xs []float64
				for _, r := range rs {
					if rep := r.Workloads[w]; rep != nil {
						if v, ok := rep.Metrics[d.Name]; ok {
							xs = append(xs, v.Value)
						}
					}
				}
				return xs
			}
			old, new := collect(olds), collect(news)
			if len(old) == 0 || len(new) == 0 {
				continue // the metric does not exist on this workload
			}
			oldMed, newMed, ratio, verdict := judge(d, old, new)
			fmt.Printf("%-13s %-18s %12.6g %12.6g %9.4f of %-6.4g %7.3g  %s\n", w, d.Name, oldMed, newMed, ratio, oldMed, d.Bound, verdict)
			if verdict == verdictWorse {
				code = 1
			}
		}
	}
	return code
}
