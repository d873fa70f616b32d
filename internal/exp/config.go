// Package exp implements the experiment harness for Section 5: one runner
// per table and figure, each producing the same rows/series the paper
// reports. Experiments are registered by id (fig9a … fig14, table3 …
// table5) and can be driven from cmd/sacbench, from the top-level
// bench_test.go, or programmatically.
//
// Absolute numbers differ from the paper (different hardware, language and
// — for the real datasets — synthetic stand-ins, internal/dataset), but the
// qualitative shapes are preserved; exp_test.go asserts each experiment's
// shape on the quick config.
package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/graph"
)

// Config sizes an experiment run. The zero value is unusable; start from
// DefaultConfig (quick, minutes for the full registry) or PaperConfig
// (larger, for overnight runs).
type Config struct {
	Datasets []string // dataset preset names
	Scale    float64  // dataset scale in (0,1]
	Queries  int      // query vertices per dataset (paper: 200)
	K        int      // default minimum degree (paper default: 4)
	MinCore  int      // workload constraint (paper: core number ≥ 4)
	Seed     int64
	// ExactCap skips the naive Exact algorithm for queries whose candidate
	// k-ĉore exceeds this size (the paper likewise skips Exact runs that
	// would take over 10 hours).
	ExactCap int
	// Quick trades a little fidelity for wall time in the experiments that
	// offer a cheaper substitute (currently fig13's per-check-in search).
	Quick bool
	// LoadPath, when non-empty, benches a saved binary graph file (see the
	// facade's SaveGraph) instead of the dataset presets: every experiment
	// runs on that one graph, and Datasets/Scale are ignored.
	LoadPath string
}

// DefaultConfig is sized so the entire registry finishes in a few minutes.
func DefaultConfig() Config {
	return Config{
		Datasets: []string{"brightkite", "gowalla"},
		Scale:    0.02,
		Queries:  20,
		K:        4,
		MinCore:  4,
		Seed:     42,
		ExactCap: 200,
		Quick:    true,
	}
}

// PaperConfig runs closer to the paper's workload sizes. Expect hours.
func PaperConfig() Config {
	return Config{
		Datasets: []string{"brightkite", "gowalla", "flickr", "foursquare", "syn1", "syn2"},
		Scale:    0.2,
		Queries:  200,
		K:        4,
		MinCore:  4,
		Seed:     42,
		ExactCap: 2000,
	}
}

// LoadWorkload builds one dataset and its query set. Exported for
// cmd/sacbench's gates, which measure on the same workload the experiments
// run.
func LoadWorkload(cfg Config, name string) (*dataset.Dataset, []graph.V, error) {
	ds, err := dataset.LoadOrRead(cfg.LoadPath, name, cfg.Scale)
	if err != nil {
		return nil, nil, err
	}
	qs := dataset.QueryWorkload(ds.Graph, cfg.MinCore, cfg.Queries, cfg.Seed)
	if len(qs) == 0 {
		return nil, nil, fmt.Errorf("exp: dataset %s at scale %v has no vertices with core ≥ %d",
			name, cfg.Scale, cfg.MinCore)
	}
	return ds, qs, nil
}

// ExactPlus answers (q, k) with Exact+ at the registry's default εA — the
// ground truth the effectiveness experiments and the parallel gate measure
// against.
func ExactPlus(s *core.Searcher, q graph.V, k int) (*core.Result, error) {
	return s.Search(context.Background(), core.Query{Algo: "exact+", Q: q, K: k})
}

// runTimed executes fn over the queries and returns mean wall time per
// successful query plus the per-query results. Queries with no community
// are skipped (they do not occur with the core-number workload constraint
// unless k exceeds MinCore).
func runTimed(qs []graph.V, fn func(q graph.V) (*core.Result, error)) (time.Duration, []*core.Result) {
	var total time.Duration
	var results []*core.Result
	for _, q := range qs {
		res, err := fn(q)
		if err != nil {
			continue
		}
		total += res.Stats.Elapsed
		results = append(results, res)
	}
	if len(results) == 0 {
		return 0, nil
	}
	return total / time.Duration(len(results)), results
}

// fprintf writes a formatted row, ignoring write errors deliberately: the
// harness streams progress to a terminal or file and a failed write there
// should not abort a long experiment.
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
