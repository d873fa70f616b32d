package exp

import (
	"context"
	"io"
	"runtime"
	"time"

	"sacsearch/internal/batch"
	"sacsearch/internal/core"
	"sacsearch/internal/graph"
	"sacsearch/internal/quality"
)

// The extensions experiment validates the Section 6 roadmap features the
// library implements beyond the paper's evaluation: alternative structure
// metrics, the minimum-diameter objective, and batch processing. It is not
// a paper figure; it exists so `sacbench -exp extensions` documents how the
// extensions behave on the same workloads the figures use.

// ExtStructureRow compares the structure metrics on one dataset.
type ExtStructureRow struct {
	Dataset   string
	Structure string
	Found     int
	Radius    float64 // mean MCC radius of ExactPlus results
	Size      float64 // mean community size
}

// ExtStructures runs ExactPlus under each structure metric.
func ExtStructures(cfg Config) ([]ExtStructureRow, error) {
	var rows []ExtStructureRow
	for _, name := range cfg.Datasets {
		ds, qs, err := LoadWorkload(cfg, name)
		if err != nil {
			return nil, err
		}
		for _, st := range []core.Structure{core.StructureKCore, core.StructureKTruss, core.StructureKClique} {
			s := core.NewSearcherWithStructure(ds.Graph, st)
			var radii, sizes []float64
			for _, q := range qs {
				res, err := ExactPlus(s, q, cfg.K)
				if err != nil {
					continue
				}
				radii = append(radii, res.Radius())
				sizes = append(sizes, float64(res.Size()))
			}
			rows = append(rows, ExtStructureRow{
				Dataset: name, Structure: st.String(),
				Found: len(radii), Radius: quality.Mean(radii), Size: quality.Mean(sizes),
			})
		}
	}
	return rows, nil
}

// ExtDiamRow compares the MCC and diameter objectives on one dataset.
type ExtDiamRow struct {
	Dataset      string
	Method       string
	MeanDiam     float64 // mean max pairwise distance
	MeanRadius   float64 // mean MCC radius
	MeanTimePerQ time.Duration
}

// ExtMinDiam runs the minimum-diameter variants next to ExactPlus.
func ExtMinDiam(cfg Config) ([]ExtDiamRow, error) {
	var rows []ExtDiamRow
	for _, name := range cfg.Datasets {
		ds, qs, err := LoadWorkload(cfg, name)
		if err != nil {
			return nil, err
		}
		g := ds.Graph
		s := core.NewSearcher(g)
		methods := []struct {
			name string
			run  func(q graph.V) (*core.Result, error)
		}{
			{"ExactPlus(MCC)", func(q graph.V) (*core.Result, error) { return ExactPlus(s, q, cfg.K) }},
			{"MinDiam2Approx", func(q graph.V) (*core.Result, error) { return s.MinDiam2Approx(q, cfg.K) }},
			{"MinDiamLens", func(q graph.V) (*core.Result, error) { return s.MinDiamLens(q, cfg.K) }},
		}
		for _, m := range methods {
			var diams, radii []float64
			mean, results := runTimed(qs, m.run)
			for _, r := range results {
				diams = append(diams, core.DiameterOf(g, r.Members))
				radii = append(radii, r.Radius())
			}
			rows = append(rows, ExtDiamRow{
				Dataset: name, Method: m.name,
				MeanDiam: quality.Mean(diams), MeanRadius: quality.Mean(radii),
				MeanTimePerQ: mean,
			})
		}
	}
	return rows, nil
}

// ExtBatchRow is one (dataset, workers) batch timing.
type ExtBatchRow struct {
	Dataset string
	Workers int
	Total   time.Duration
	Queries int
}

// ExtBatch times the whole query workload as one batch at several worker
// counts.
func ExtBatch(cfg Config) ([]ExtBatchRow, error) {
	var rows []ExtBatchRow
	maxWorkers := runtime.GOMAXPROCS(0)
	for _, name := range cfg.Datasets {
		ds, qs, err := LoadWorkload(cfg, name)
		if err != nil {
			return nil, err
		}
		s := core.NewSearcher(ds.Graph)
		queries := batch.Workload(qs, cfg.K)
		workerSweep := []int{1, 2}
		if maxWorkers > 2 {
			workerSweep = append(workerSweep, maxWorkers)
		}
		for _, workers := range workerSweep {
			start := time.Now()
			items := batch.Run(context.Background(), s, queries, batch.Options{Workers: workers})
			answered := 0
			for _, it := range items {
				if it.Err == nil {
					answered++
				}
			}
			rows = append(rows, ExtBatchRow{
				Dataset: name, Workers: workers,
				Total: time.Since(start), Queries: answered,
			})
		}
	}
	return rows, nil
}

func printExtensions(w io.Writer, st []ExtStructureRow, dm []ExtDiamRow, bt []ExtBatchRow) {
	fprintf(w, "-- structure metrics (ExactPlus under each)\n")
	fprintf(w, "%-12s %-10s %6s %10s %8s\n", "dataset", "metric", "found", "radius", "size")
	for _, r := range st {
		fprintf(w, "%-12s %-10s %6d %10.5f %8.1f\n", r.Dataset, r.Structure, r.Found, r.Radius, r.Size)
	}
	fprintf(w, "-- spatial objectives (MCC radius vs max pairwise distance)\n")
	fprintf(w, "%-12s %-16s %10s %10s %14s\n", "dataset", "method", "diam", "radius", "time/query")
	for _, r := range dm {
		fprintf(w, "%-12s %-16s %10.5f %10.5f %14v\n", r.Dataset, r.Method, r.MeanDiam, r.MeanRadius, r.MeanTimePerQ)
	}
	fprintf(w, "-- batch processing (whole workload as one call)\n")
	fprintf(w, "%-12s %8s %14s %8s\n", "dataset", "workers", "total", "queries")
	for _, r := range bt {
		fprintf(w, "%-12s %8d %14v %8d\n", r.Dataset, r.Workers, r.Total, r.Queries)
	}
}
