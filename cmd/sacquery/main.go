// Command sacquery runs one SAC query — against a local graph (generated
// dataset or on-disk files) or, with -server, against a running sacserver
// through the typed /v1 client — and prints the community, its MCC and the
// work counters.
//
// Usage:
//
//	sacquery -dataset brightkite -scale 0.02 -q 17 -k 4 -algo exact+
//	sacquery -dataset syn1 -scale 0.05 -q 3 -k 4 -algo appfast -epsF 0.5
//	sacquery -edges g.edges -locs g.locs -n 1000 -q 5 -k 3 -algo appacc -epsA 0.3
//	sacquery -server http://localhost:8080 -q 17 -k 4 -algo theta -theta 0.05
//	sacquery -dataset gowalla -q 9 -k 3 -algo mindiam -structure kclique
//
// Algorithms come from the registry (sacquery -algos lists them with their
// parameter schemas); the per-algorithm parameter flags (-epsF, -epsA,
// -theta) are generated from the same registry, so their names match the
// HTTP wire names 1:1. The extra local-only algorithms mindiam2, mindiam,
// global and local run the minimum-diameter variants and the non-spatial
// baselines. Structure metrics (-structure): kcore (default), ktruss,
// kclique.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"sacsearch/client"
	"sacsearch/internal/community"
	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/graph"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/quality"
)

func main() {
	var (
		dsName    = flag.String("dataset", "", "dataset preset to generate")
		scale     = flag.Float64("scale", 0.02, "dataset scale in (0,1]")
		edges     = flag.String("edges", "", "edge-list file (alternative to -dataset)")
		locs      = flag.String("locs", "", "locations file")
		n         = flag.Int("n", 0, "vertex count for -edges/-locs input")
		serverURL = flag.String("server", "", "query a running sacserver at this base URL instead of a local graph")
		q         = flag.Int("q", 0, "query vertex id")
		k         = flag.Int("k", 4, "minimum degree")
		algo      = flag.String("algo", "exact+", "algorithm: registry name (see -algos) or mindiam2 | mindiam | global | local")
		listAlgos = flag.Bool("algos", false, "list the algorithm registry and exit")
		metric    = flag.String("structure", "kcore", "structure cohesiveness: kcore | ktruss | kclique")
		timeout   = flag.Duration("timeout", 0, "per-query deadline (0 = none)")
	)
	// The per-algorithm parameter flags are generated from the registry, so
	// every flag name matches its wire name and carries the registry's doc
	// and default; only flags the user explicitly set are sent, letting the
	// registry apply per-algorithm defaults (exact+ and appacc disagree on
	// epsA's default, so a baked-in flag default would be wrong for one).
	params := make(map[string]*float64)
	for _, spec := range core.Algorithms() {
		for _, p := range spec.Params {
			if _, dup := params[p.Name]; !dup {
				params[p.Name] = flag.Float64(p.Name, p.Default, p.Doc)
			}
		}
	}
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *listAlgos {
		for _, spec := range core.Algorithms() {
			fmt.Printf("%-8s ratio %-7s %s\n", spec.Name, spec.Ratio, spec.Doc)
			for _, p := range spec.Params {
				req := fmt.Sprintf("default %v", p.Default)
				if p.Required {
					req = "required"
				}
				fmt.Printf("         -%s (%s): %s\n", p.Name, req, p.Doc)
			}
		}
		return
	}

	query := core.Query{
		Algo:      *algo,
		Q:         graph.V(*q),
		K:         *k,
		Structure: *metric,
		Timeout:   *timeout,
	}
	for name, val := range params {
		if !set[name] {
			continue
		}
		// SetParam binds by the same name table the registry resolves, and
		// errors on names it does not know — so a parameter added to the
		// registry without a Query field fails loudly here instead of
		// silently dropping the user's flag.
		if err := query.SetParam(name, *val); err != nil {
			fail(err)
		}
	}

	if *serverURL != "" {
		if err := runRemote(*serverURL, query); err != nil {
			fail(err)
		}
		return
	}

	g, err := loadGraph(*dsName, *scale, *edges, *locs, *n)
	if err != nil {
		fail(err)
	}
	if err := runLocal(g, query); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "sacquery: %v\n", err)
	os.Exit(1)
}

// runRemote sends the query through the typed /v1 client.
func runRemote(baseURL string, q core.Query) error {
	cl, err := client.New(baseURL)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if q.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.Timeout)
		defer cancel()
	}
	// The deadline rides the wire too (timeoutMillis), so the server bounds
	// the query itself (within its own per-request cap) — not just this call.
	res, err := cl.Query(ctx, httpapi.WireQuery(q))
	var apiErr *client.APIError
	if errors.Is(err, client.ErrNoCommunity) {
		fmt.Println("no community")
		os.Exit(1)
	}
	if errors.As(err, &apiErr) {
		return fmt.Errorf("%s", apiErr.Error())
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s SAC for q=%d k=%d: %d members (server %s)\n",
		res.Stats.Algorithm, res.Q, res.K, len(res.Members), baseURL)
	fmt.Printf("MCC center (%.4f, %.4f), radius %.6f, δ %.6f\n",
		res.MCC.X, res.MCC.Y, res.MCC.R, res.Delta)
	fmt.Printf("stats: %d candidates, %d feasibility checks, %d binary iters, %dµs\n",
		res.Stats.CandidateSize, res.Stats.FeasibilityChecks, res.Stats.BinaryIters, res.Stats.ElapsedMicros)
	if len(res.Members) <= 25 {
		fmt.Printf("members: %v\n", res.Members)
	}
	return nil
}

// runLocal answers the query on an in-process graph: registry algorithms
// through the unified Search entry point, the local-only extras (baselines,
// minimum-diameter variants) through their legacy methods.
func runLocal(g *graph.Graph, q core.Query) error {
	switch q.Algo {
	case "global", "local":
		return runBaseline(g, q)
	}

	structure, err := core.ParseStructure(q.Structure)
	if err != nil {
		return err
	}
	s := core.NewSearcherWithStructure(g, structure)

	var res *core.Result
	switch q.Algo {
	case "mindiam2":
		res, err = s.MinDiam2Approx(q.Q, q.K)
	case "mindiam":
		res, err = s.MinDiamLens(q.Q, q.K)
	default:
		res, err = s.Search(context.Background(), q)
	}
	if errors.Is(err, core.ErrNoCommunity) {
		fmt.Println("no community")
		os.Exit(1)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s SAC for q=%d k=%d: %d members\n", q.Algo, q.Q, q.K, res.Size())
	fmt.Printf("MCC center (%.4f, %.4f), radius %.6f, δ %.6f\n",
		res.MCC.C.X, res.MCC.C.Y, res.Radius(), res.Delta)
	fmt.Printf("stats: %d candidates, %d feasibility checks, %d circles, %v\n",
		res.Stats.CandidateSize, res.Stats.FeasibilityChecks, res.Stats.CirclesExamined, res.Stats.Elapsed)
	if q.Algo == "mindiam2" || q.Algo == "mindiam" {
		fmt.Printf("diameter (max pairwise distance): %.6f\n", core.DiameterOf(g, res.Members))
	}
	if res.Size() <= 25 {
		fmt.Printf("members: %v\n", res.Members)
	}
	return nil
}

func runBaseline(g *graph.Graph, q core.Query) error {
	b := community.NewSearcher(g)
	var members []graph.V
	if q.Algo == "global" {
		members = b.Global(q.Q, q.K)
	} else {
		members = b.Local(q.Q, q.K)
	}
	if members == nil {
		fmt.Println("no community")
		os.Exit(1)
	}
	mcc := g.MCCOf(members)
	fmt.Printf("%s community: %d members, MCC center (%.4f, %.4f) radius %.6f\n",
		q.Algo, len(members), mcc.C.X, mcc.C.Y, mcc.R)
	fmt.Printf("avg internal degree %.2f, distPr %.6f\n",
		community.AvgInternalDegree(g, members), quality.DistPr(g, members, 1))
	return nil
}

func loadGraph(dsName string, scale float64, edges, locs string, n int) (*graph.Graph, error) {
	switch {
	case dsName != "":
		ds, err := dataset.Load(dsName, scale)
		if err != nil {
			return nil, err
		}
		return ds.Graph, nil
	case edges != "" && locs != "":
		if n <= 0 {
			return nil, fmt.Errorf("-n (vertex count) is required with -edges/-locs")
		}
		ef, err := os.Open(edges)
		if err != nil {
			return nil, err
		}
		defer ef.Close()
		lf, err := os.Open(locs)
		if err != nil {
			return nil, err
		}
		defer lf.Close()
		return graph.Read(ef, lf, n)
	default:
		return nil, fmt.Errorf("provide -dataset, -edges/-locs, or -server")
	}
}
