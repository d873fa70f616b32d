package exp

import (
	"io"

	"sacsearch/internal/community"
	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/graph"
	"sacsearch/internal/quality"
)

// Figure 9 — approximation ratios: theoretical versus measured. The paper
// finds actual ratios far below the theoretical guarantee (≈2.0 measured at
// a 4.0 guarantee for AppFast; ≤1.1 for AppAcc).

// Fig9Row is one (dataset, ε) point.
type Fig9Row struct {
	Dataset     string
	Eps         float64
	Theoretical float64
	Actual      float64 // mean measured radius / optimal radius
	Queries     int
}

// epsFSweep and epsASweep are the x-axes of Figure 9 (Table 5 ranges).
var (
	epsFSweep = []float64{0, 0.5, 1.0, 1.5, 2.0}
	epsASweep = []float64{0.01, 0.05, 0.1, 0.5, 0.9}
)

// Fig9AppFast measures AppFast's actual approximation ratio per εF.
func Fig9AppFast(cfg Config) ([]Fig9Row, error) {
	return fig9(cfg, epsFSweep, 2, func(s *core.Searcher, q graph.V, eps float64) (*core.Result, error) {
		return s.AppFast(q, cfg.K, eps)
	})
}

// Fig9AppAcc measures AppAcc's actual approximation ratio per εA.
func Fig9AppAcc(cfg Config) ([]Fig9Row, error) {
	return fig9(cfg, epsASweep, 1, func(s *core.Searcher, q graph.V, eps float64) (*core.Result, error) {
		return s.AppAcc(q, cfg.K, eps)
	})
}

func fig9(cfg Config, sweep []float64, base float64, run func(*core.Searcher, graph.V, float64) (*core.Result, error)) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, name := range cfg.Datasets {
		ds, qs, err := LoadWorkload(cfg, name)
		if err != nil {
			return nil, err
		}
		s := core.NewSearcher(ds.Graph)
		// Ground truth per query via the exact algorithm.
		optimal := map[graph.V]float64{}
		for _, q := range qs {
			res, err := ExactPlus(s, q, cfg.K)
			if err != nil {
				continue
			}
			optimal[q] = res.Radius()
		}
		for _, eps := range sweep {
			var ratios []float64
			for _, q := range qs {
				opt, ok := optimal[q]
				if !ok || opt <= 1e-12 {
					continue
				}
				res, err := run(s, q, eps)
				if err != nil {
					continue
				}
				ratios = append(ratios, res.Radius()/opt)
			}
			rows = append(rows, Fig9Row{
				Dataset:     name,
				Eps:         eps,
				Theoretical: base + eps,
				Actual:      quality.Mean(ratios),
				Queries:     len(ratios),
			})
		}
	}
	return rows, nil
}

func printFig9(w io.Writer, rows []Fig9Row) {
	fprintf(w, "%-12s %8s %12s %10s %8s\n", "dataset", "eps", "theoretical", "actual", "queries")
	for _, r := range rows {
		fprintf(w, "%-12s %8.2f %12.2f %10.3f %8d\n", r.Dataset, r.Eps, r.Theoretical, r.Actual, r.Queries)
	}
}

// Figure 10 — spatial cohesiveness of SAC search versus Global [29],
// Local [7] and GeoModu [4]. The paper reports Global/Local radii 50×/20×
// larger than SAC search, GeoModu in between but with weak structure
// cohesiveness (average internal degree ≈ 2.2 / 1.1 for µ=1 / µ=2).

// Fig10Row is one (dataset, method) aggregate.
type Fig10Row struct {
	Dataset string
	Method  string
	Radius  float64 // mean MCC radius
	DistPr  float64 // mean average pairwise distance
	AvgDeg  float64 // mean internal degree (structure cohesiveness)
	Size    float64 // mean community size
	Found   int     // queries answered
}

// Fig10 runs the comparison. Methods returning nil communities for a query
// skip that query.
func Fig10(cfg Config) ([]Fig10Row, error) {
	var rows []Fig10Row
	for _, name := range cfg.Datasets {
		ds, qs, err := LoadWorkload(cfg, name)
		if err != nil {
			return nil, err
		}
		g := ds.Graph
		sac := core.NewSearcher(g)
		base := community.NewSearcher(g)
		geo1 := community.RunGeoModu(g, 1)
		geo2 := community.RunGeoModu(g, 2)

		methods := []struct {
			name string
			run  func(q graph.V) []graph.V
		}{
			{"Global", func(q graph.V) []graph.V { return base.Global(q, cfg.K) }},
			{"Local", func(q graph.V) []graph.V { return base.Local(q, cfg.K) }},
			{"GeoModu(1)", func(q graph.V) []graph.V { return geo1.CommunityOf(q) }},
			{"GeoModu(2)", func(q graph.V) []graph.V { return geo2.CommunityOf(q) }},
			{"AppInc", sacMembers(func(q graph.V) (*core.Result, error) { return sac.AppInc(q, cfg.K) })},
			{"AppFast(0.5)", sacMembers(func(q graph.V) (*core.Result, error) { return sac.AppFast(q, cfg.K, 0.5) })},
			{"AppAcc(0.5)", sacMembers(func(q graph.V) (*core.Result, error) { return sac.AppAcc(q, cfg.K, 0.5) })},
			{"Exact+", sacMembers(func(q graph.V) (*core.Result, error) { return ExactPlus(sac, q, cfg.K) })},
		}
		for _, m := range methods {
			var radii, dists, degs, sizes []float64
			for _, q := range qs {
				members := m.run(q)
				if len(members) == 0 {
					continue
				}
				radii = append(radii, quality.Radius(g, members))
				dists = append(dists, quality.DistPr(g, members, cfg.Seed))
				degs = append(degs, community.AvgInternalDegree(g, members))
				sizes = append(sizes, float64(len(members)))
			}
			rows = append(rows, Fig10Row{
				Dataset: name,
				Method:  m.name,
				Radius:  quality.Mean(radii),
				DistPr:  quality.Mean(dists),
				AvgDeg:  quality.Mean(degs),
				Size:    quality.Mean(sizes),
				Found:   len(radii),
			})
		}
	}
	return rows, nil
}

func sacMembers(run func(graph.V) (*core.Result, error)) func(graph.V) []graph.V {
	return func(q graph.V) []graph.V {
		res, err := run(q)
		if err != nil {
			return nil
		}
		return res.Members
	}
}

func printFig10(w io.Writer, rows []Fig10Row) {
	fprintf(w, "%-12s %-14s %10s %10s %8s %8s %6s\n",
		"dataset", "method", "radius", "distPr", "avgDeg", "size", "found")
	for _, r := range rows {
		fprintf(w, "%-12s %-14s %10.5f %10.5f %8.2f %8.1f %6d\n",
			r.Dataset, r.Method, r.Radius, r.DistPr, r.AvgDeg, r.Size, r.Found)
	}
}

// Figure 11 — θ-SAC sensitivity: percentage of queries with non-empty
// results per θ, and how much larger their circles are than Exact+'s.

// Fig11Row is one (dataset, θ) point.
type Fig11Row struct {
	Dataset     string
	Theta       float64
	NonEmptyPct float64
	AvgRadius   float64 // mean radius of non-empty θ-SAC results
	ExactRadius float64 // mean Exact+ radius over the same queries
}

// thetaSweep extends the paper's 10⁻⁶..10⁻² range by one decade because the
// scaled stand-ins are sparser than the originals.
var thetaSweep = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}

// Fig11 runs the θ-SAC sweep.
func Fig11(cfg Config) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, name := range cfg.Datasets {
		ds, qs, err := LoadWorkload(cfg, name)
		if err != nil {
			return nil, err
		}
		s := core.NewSearcher(ds.Graph)
		// Exact+ ground truth once per query, shared across the θ sweep.
		optimal := map[graph.V]float64{}
		for _, q := range qs {
			if opt, err := ExactPlus(s, q, cfg.K); err == nil {
				optimal[q] = opt.Radius()
			}
		}
		for _, theta := range thetaSweep {
			var radii, exact []float64
			nonEmpty := 0
			for _, q := range qs {
				res, err := s.ThetaSAC(q, cfg.K, theta)
				if err != nil {
					continue
				}
				nonEmpty++
				radii = append(radii, res.Radius())
				if opt, ok := optimal[q]; ok {
					exact = append(exact, opt)
				}
			}
			rows = append(rows, Fig11Row{
				Dataset:     name,
				Theta:       theta,
				NonEmptyPct: 100 * float64(nonEmpty) / float64(len(qs)),
				AvgRadius:   quality.Mean(radii),
				ExactRadius: quality.Mean(exact),
			})
		}
	}
	return rows, nil
}

func printFig11(w io.Writer, rows []Fig11Row) {
	fprintf(w, "%-12s %10s %10s %12s %12s\n", "dataset", "theta", "nonempty%", "avgRadius", "exactRadius")
	for _, r := range rows {
		fprintf(w, "%-12s %10.0e %10.1f %12.6f %12.6f\n", r.Dataset, r.Theta, r.NonEmptyPct, r.AvgRadius, r.ExactRadius)
	}
}

// Table 4 — dataset statistics, published versus generated at cfg.Scale.

// Table4Row is one dataset's statistics.
type Table4Row struct {
	Name      string
	PubN      int
	PubM      int
	PubAvgDeg float64
	GenN      int
	GenM      int
	GenAvgDeg float64
}

// Table4 generates every configured dataset and reports its statistics.
func Table4(cfg Config) ([]Table4Row, error) {
	var rows []Table4Row
	for _, name := range cfg.Datasets {
		p, err := dataset.PresetByName(name)
		if err != nil {
			return nil, err
		}
		ds, err := dataset.Load(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{
			Name: p.Name, PubN: p.Vertices, PubM: p.Edges, PubAvgDeg: p.AvgDeg,
			GenN: ds.Graph.NumVertices(), GenM: ds.Graph.NumEdges(), GenAvgDeg: ds.Graph.AvgDegree(),
		})
	}
	return rows, nil
}

func printTable4(w io.Writer, rows []Table4Row, scale float64) {
	fprintf(w, "Table 4 stand-ins at scale %v (published → generated)\n", scale)
	fprintf(w, "%-12s %10s %10s %8s %10s %10s %8s\n",
		"dataset", "pub n", "pub m", "pub d̂", "gen n", "gen m", "gen d̂")
	for _, r := range rows {
		fprintf(w, "%-12s %10d %10d %8.2f %10d %10d %8.2f\n",
			r.Name, r.PubN, r.PubM, r.PubAvgDeg, r.GenN, r.GenM, r.GenAvgDeg)
	}
}
