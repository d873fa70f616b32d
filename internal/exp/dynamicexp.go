package exp

import (
	"context"
	"io"

	"sacsearch/internal/core"
	"sacsearch/internal/dynamic"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
)

// Figure 13 — adaptability to location changes: CJS and CAO decay as the
// time gap η between community snapshots grows (the paper reports CJS
// dropping to ≈75% after six hours and further with days).

// etaSweepDays is the Figure 13 x-axis.
var etaSweepDays = []float64{0.25, 0.5, 1, 3, 5, 7, 10, 15}

// Fig13Config extends Config with the dynamic-replay knobs.
type Fig13Config struct {
	Config
	Movers     int     // tracked query users (paper: 100)
	MinFriends int     // friend threshold for movers (paper: 20)
	Days       float64 // stream length in days
	SplitFrac  float64 // fraction of the stream used as warm-up (R1)
	// FastSearch replaces the paper's per-check-in Exact+ with AppFast(0.5)
	// — communities differ slightly but the decay shape is identical, and
	// quick runs finish in seconds instead of minutes.
	FastSearch bool
}

// DefaultFig13Config scales the paper's protocol to the quick workload.
func DefaultFig13Config() Fig13Config {
	return Fig13Config{
		Config:     DefaultConfig(),
		Movers:     20,
		MinFriends: 8,
		Days:       120,
		SplitFrac:  0.25,
	}
}

// Fig13 generates a check-in stream over the first configured dataset
// (Brightkite in the paper), replays it with Exact+ snapshots for the
// selected movers, and returns the CJS/CAO decay points.
func Fig13(cfg Fig13Config) ([]dynamic.DecayPoint, error) {
	name := cfg.Datasets[0]
	ds, _, err := LoadWorkload(cfg.Config, name)
	if err != nil {
		return nil, err
	}
	g := ds.Graph
	ccfg := gen.DefaultCheckinConfig()
	ccfg.Days = cfg.Days
	checkins := gen.Checkins(g, ccfg, cfg.Seed+100)
	movers := gen.SelectMovers(g, checkins, cfg.MinFriends, cfg.Movers)

	s := core.NewSearcher(g)
	search := func(q graph.V, k int) ([]graph.V, geom.Circle, error) {
		var res *core.Result
		var err error
		if cfg.FastSearch {
			res, err = s.AppFast(q, k, 0.5)
		} else {
			res, err = ExactPlus(s, q, k)
		}
		if err != nil {
			return nil, geom.Circle{}, err
		}
		return res.Members, res.MCC, nil
	}
	timelines, err := dynamic.ReplayWithEdges(context.Background(), g, checkins, nil, movers, cfg.Days*cfg.SplitFrac, cfg.K, search, nil)
	if err != nil {
		return nil, err
	}
	return dynamic.Decay(timelines, etaSweepDays), nil
}

func printFig13(w io.Writer, points []dynamic.DecayPoint) {
	fprintf(w, "%10s %10s %10s %8s\n", "eta(days)", "avg CJS", "avg CAO", "pairs")
	for _, p := range points {
		fprintf(w, "%10.2f %10.3f %10.3f %8d\n", p.EtaDays, p.CJS, p.CAO, p.Pairs)
	}
}

// Table 5 — parameter ranges and defaults, reproduced verbatim.

// Table5Row is one parameter line.
type Table5Row struct {
	Parameter string
	Range     string
	Default   string
}

// Table5 returns the parameter table (static: it documents the harness).
func Table5() []Table5Row {
	return []Table5Row{
		{"εF (AppFast)", "0.0, 0.5, 1.0, 1.5, 2.0", "0.5"},
		{"εA (AppAcc)", "0.01, 0.05, 0.1, 0.5, 0.9", "0.5"},
		{"k", "4, 7, 10, 13, 16", "4"},
		{"θ", "1e-6 … 1e-1", "1e-4"},
		{"n", "20%, 40%, 60%, 80%, 100%", "100%"},
	}
}

func printTable5(w io.Writer, rows []Table5Row) {
	fprintf(w, "%-14s %-28s %-8s\n", "parameter", "range", "default")
	for _, r := range rows {
		fprintf(w, "%-14s %-28s %-8s\n", r.Parameter, r.Range, r.Default)
	}
}

// Table 3 — algorithm overview (ratios and complexities), static.

// Table3Row is one algorithm line.
type Table3Row struct {
	Algo       string
	Ratio      string
	Complexity string
}

// Table3 returns the algorithm overview table.
func Table3() []Table3Row {
	return []Table3Row{
		{"Exact", "1", "O(m·n³)"},
		{"AppInc", "2", "O(m·n)"},
		{"AppFast", "2+εF", "O(m·min{n, log 1/εF}) (εF>0); O(m·n) (εF=0)"},
		{"AppAcc", "1+εA", "O(m/εA² · min{n, log 1/εA})"},
		{"Exact+", "1", "O(m/εA² · min{n, log 1/εA} + m·|F1|³)"},
	}
}

func printTable3(w io.Writer, rows []Table3Row) {
	fprintf(w, "%-10s %-8s %s\n", "algorithm", "ratio", "time complexity")
	for _, r := range rows {
		fprintf(w, "%-10s %-8s %s\n", r.Algo, r.Ratio, r.Complexity)
	}
}
