// Package sacsearch is a Go implementation of spatial-aware community (SAC)
// search over large spatial graphs, reproducing Fang, Cheng, Li, Luo and Hu,
// "Effective Community Search over Large Spatial Graphs", PVLDB 10(6), 2017.
//
// Given an undirected graph whose vertices carry 2-D locations, a query
// vertex q and a degree threshold k, SAC search returns a connected subgraph
// containing q in which every vertex has degree ≥ k, covered by the smallest
// possible minimum covering circle. The package provides the paper's two
// exact algorithms (Exact, ExactPlus) and three approximations (AppInc,
// AppFast, AppAcc), the θ-SAC variant, the Global/Local/GeoModu baselines it
// compares against, dataset generators and quality metrics.
//
// Beyond the algorithms, the declarations below are grouped by what they
// export, each group under a comment saying what it is for: the unified
// query API and its algorithm registry, alternative structure metrics
// (k-truss, k-clique percolation) and the minimum-diameter variants of the
// paper's Section 6, batch processing (BatchSearch), and dynamic topology and
// check-in replay (ReplayWithEdges). This package is the library only; the
// serving tier (snapshot engine, WAL, replicas, shards, router) is run as
// the cmd/sacserver, cmd/sacshard and cmd/sacrouter daemons, and SaveGraph
// is the bridge that hands them a graph built here.
//
// # Quick start
//
//	b := sacsearch.NewBuilder(4)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 0)
//	b.AddEdge(2, 3)
//	b.SetLoc(0, sacsearch.Point{X: 0.10, Y: 0.10})
//	b.SetLoc(1, sacsearch.Point{X: 0.11, Y: 0.10})
//	b.SetLoc(2, sacsearch.Point{X: 0.10, Y: 0.11})
//	b.SetLoc(3, sacsearch.Point{X: 0.90, Y: 0.90})
//	g := b.Build()
//
//	s := sacsearch.NewSearcher(g)
//	res, err := s.Search(context.Background(), sacsearch.Query{
//		Algo: "exact+", // any registry name: exact, exact+, appinc, appfast, appacc, theta
//		Q:    0,
//		K:    2,
//		EpsA: sacsearch.Float(0.1),
//	})
//	if err != nil { ... }
//	fmt.Println(res.Members, res.MCC)
//
// Search is the entry point every query takes: one Query value selects the
// algorithm by registry name and carries its parameters, validated and
// defaulted against the algorithm registry (Algorithms). The per-algorithm
// methods (s.Exact, s.ExactPlus, s.AppInc, ...) are one-line conveniences
// that build a Query and call Search with a background context.
// Remote callers get the same shape over HTTP — the versioned /v1 API of
// cmd/sacserver — through the typed client package sacsearch/client.
//
// Searchers precompute an O(m) core decomposition once and reuse scratch
// space across queries; they are not safe for concurrent use (Clone one per
// goroutine).
package sacsearch

import (
	"context"
	"io"

	"sacsearch/internal/batch"
	"sacsearch/internal/community"
	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/dynamic"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/quality"
)

// Geometry.
type (
	// Point is a 2-D location in the unit square.
	Point = geom.Point
	// Circle is a closed disk; SAC results carry their minimum covering
	// circle as one.
	Circle = geom.Circle
)

// Graph model.
type (
	// V is the dense vertex id type.
	V = graph.V
	// Graph is a spatial graph in CSR form, cut into copy-on-write pages:
	// locations mutate via SetLoc (check-ins) and topology via
	// AddEdge/RemoveEdge (friendship churn), which store new copies of the
	// endpoints' pages, each versioned by its own epoch.
	Graph = graph.Graph
	// Builder accumulates edges and locations for a Graph.
	Builder = graph.Builder
)

// NewBuilder creates a graph builder for n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// SaveGraph writes g to w in the checksummed binary CSR format — the fast
// reload path for multi-million-vertex graphs, and the format SaveGraph's
// counterpart LoadGraph, `sacserver -load` and `sacbench -load` read.
func SaveGraph(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// LoadGraph reads a graph written by SaveGraph, verifying its checksum and
// structural invariants; a truncated or corrupted stream returns an error
// rather than a graph that fails later.
func LoadGraph(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// SAC search (the paper's contribution).
type (
	// Searcher runs SAC queries: Exact, ExactPlus, AppInc, AppFast, AppAcc
	// and ThetaSAC. See each method's documentation for the guarantee and
	// complexity.
	Searcher = core.Searcher
	// Result is one query's outcome: members, MCC, δ and work counters.
	Result = core.Result
	// Stats holds the per-query work counters.
	Stats = core.Stats
	// Structure selects the structure-cohesiveness metric.
	Structure = core.Structure
)

// Structure metrics: minimum degree (default), k-truss, or k-clique
// percolation.
const (
	StructureKCore   = core.StructureKCore
	StructureKTruss  = core.StructureKTruss
	StructureKClique = core.StructureKClique
)

// Unified query API. A Query names the algorithm and carries its
// parameters; Searcher.Search validates it through the algorithm registry
// and dispatches. The registry (Algorithms, LookupAlgo) is the single
// source of truth for algorithm names, parameter schemas, defaults and
// ranges — the HTTP server's /v1/algorithms, the sacquery CLI flags and
// the batch layer all derive from it.
type (
	// Query is one unified SAC request: Algo, Q, K, optional parameters
	// (EpsF/EpsA/Theta as presence-aware pointers; see Float), an optional
	// Structure assertion and an optional per-query Timeout.
	Query = core.Query
	// AlgoSpec describes one registered algorithm: name, aliases, ratio,
	// doc and parameter schema.
	AlgoSpec = core.AlgoSpec
	// ParamSpec describes one algorithm parameter: name, doc, required,
	// default and range.
	ParamSpec = core.ParamSpec
	// QueryError is a Query validation failure with a machine-readable
	// Code and the offending Field.
	QueryError = core.QueryError
)

// DefaultAlgo is the algorithm an empty Query.Algo runs (AppFast).
const DefaultAlgo = core.DefaultAlgo

// Algorithms returns the algorithm registry in presentation order.
func Algorithms() []*AlgoSpec { return core.Algorithms() }

// LookupAlgo resolves an algorithm name or alias, case-insensitively; the
// empty name resolves to DefaultAlgo.
func LookupAlgo(name string) (*AlgoSpec, bool) { return core.LookupAlgo(name) }

// Float returns a pointer to v — for setting a Query's optional parameter
// fields inline: Query{Algo: "appfast", EpsF: sacsearch.Float(0)}.
func Float(v float64) *float64 { return core.Float(v) }

// ParseStructure resolves a structure-metric name ("kcore", "ktruss",
// "kclique", or the hyphenated display forms).
func ParseStructure(name string) (Structure, error) { return core.ParseStructure(name) }

// ErrNoCommunity reports that the query vertex belongs to no feasible
// community for the requested k.
var ErrNoCommunity = core.ErrNoCommunity

// ErrCanceled reports that a query's context was canceled or its deadline
// expired mid-algorithm: Searcher.Search arms the context it is given and
// every algorithm checks it at its loop boundaries. The underlying context
// error is wrapped, so errors.Is against context.Canceled or
// context.DeadlineExceeded reports the cause.
var ErrCanceled = core.ErrCanceled

// NewSearcher prepares SAC search over g with the minimum-degree metric.
func NewSearcher(g *Graph) *Searcher { return core.NewSearcher(g) }

// NewSearcherWithStructure prepares SAC search with the given structure
// cohesiveness metric (k-core, k-truss or k-clique).
func NewSearcherWithStructure(g *Graph, st Structure) *Searcher {
	return core.NewSearcherWithStructure(g, st)
}

// Batch processing (Section 6 future work: answering many SAC queries at
// once with a shared decomposition and parallel workers).
type (
	// BatchQuery is one (q, k) request in a batch.
	BatchQuery = batch.Query
	// BatchItem is one answered batch query.
	BatchItem = batch.Item
	// BatchOptions configures a batch: the worker count and a Query template
	// naming the algorithm and its parameters.
	BatchOptions = batch.Options
)

// BatchSearch answers every query using cloned searchers on parallel
// workers, deduplicating identical queries; items come back in input order.
// When ctx fires, in-flight queries return ErrCanceled at their next loop
// boundary and undispatched queries fail without running.
func BatchSearch(ctx context.Context, s *Searcher, queries []BatchQuery, opt BatchOptions) []BatchItem {
	return batch.Run(ctx, core.NewPool(s), queries, opt)
}

// BatchWorkload pairs each query vertex with k.
func BatchWorkload(qs []V, k int) []BatchQuery { return batch.Workload(qs, k) }

// Baselines (Section 5.2.2 comparisons).
type (
	// BaselineSearcher runs the Global [29] and Local [7] community-search
	// baselines.
	BaselineSearcher = community.Searcher
	// Partition is a GeoModu [4] community-detection result.
	Partition = community.Partition
)

// NewBaselineSearcher prepares the Global/Local baselines for g.
func NewBaselineSearcher(g *Graph) *BaselineSearcher { return community.NewSearcher(g) }

// RunGeoModu detects communities by geo-weighted (w = 1/d^µ) modularity
// maximization; µ is typically 1 or 2.
func RunGeoModu(g *Graph, mu float64) *Partition { return community.RunGeoModu(g, mu) }

// Datasets and workloads.
type (
	// Dataset is a named spatial graph (a Table 4 stand-in or a file load).
	Dataset = dataset.Dataset
)

// LoadDataset builds the named dataset ("brightkite", "gowalla", "flickr",
// "foursquare", "syn1", "syn2") at the given scale ∈ (0,1].
func LoadDataset(name string, scale float64) (*Dataset, error) { return dataset.Load(name, scale) }

// QueryWorkload returns count random query vertices with core number ≥
// minCore (the paper's workload construction).
func QueryWorkload(g *Graph, minCore, count int, seed int64) []V {
	return dataset.QueryWorkload(g, minCore, count, seed)
}

// Generators.

// GenerateSocialGraph builds a synthetic geo-social graph: power-law degree
// backbone, planted dense groups, and spatially correlated locations
// (Section 5.1 recipe). The result is ready for SAC search.
func GenerateSocialGraph(n, m int, seed int64) *Graph {
	b := gen.SocialGraph(n, m, seed)
	gen.PlaceSpatial(b, gen.DefaultDistMean, gen.DefaultDistSigma, seed+1)
	return b.Build()
}

// Checkin is a timestamped location report (dynamic experiments).
type Checkin = gen.Checkin

// GenerateCheckins produces a time-sorted synthetic check-in stream for
// every vertex of g.
func GenerateCheckins(g *Graph, seed int64) []Checkin {
	return gen.Checkins(g, gen.DefaultCheckinConfig(), seed)
}

// SelectMovers picks up to count users with at least minFriends neighbors,
// ranked by total travel distance — the dynamic experiment's query users.
func SelectMovers(g *Graph, checkins []Checkin, minFriends, count int) []V {
	return gen.SelectMovers(g, checkins, minFriends, count)
}

// Dynamic replay (Section 5.2.3, extended with friendship churn).
type (
	// Snapshot is one tracked community observation during a replay.
	Snapshot = dynamic.Snapshot
	// DecayPoint is one (η, CJS, CAO) measurement of Figure 13.
	DecayPoint = dynamic.DecayPoint
	// SearchFunc runs one SAC query during a replay.
	SearchFunc = dynamic.SearchFunc
	// EdgeEvent is one timestamped friendship insertion or deletion.
	EdgeEvent = gen.EdgeEvent
	// EdgeApplyFunc applies one friendship change during a replay.
	EdgeApplyFunc = dynamic.EdgeApplyFunc
)

// ReplayWithEdges applies a check-in stream to g, interleaved with
// friendship churn on one clock, and snapshots the tracked users'
// communities from splitTime on; each tracked search sees the graph exactly
// as it stood at that instant. edges and apply may be nil for the paper's
// check-in-only replay; otherwise wire apply with ApplyEdgesVia(searcher) so
// the searcher's core decomposition stays current incrementally. When ctx
// fires the replay aborts between events with the context's error.
func ReplayWithEdges(ctx context.Context, g *Graph, checkins []Checkin, edges []EdgeEvent, tracked []V, splitTime float64, k int, search SearchFunc, apply EdgeApplyFunc) (map[V][]Snapshot, error) {
	return dynamic.ReplayWithEdges(ctx, g, checkins, edges, tracked, splitTime, k, search, apply)
}

// ApplyEdgesVia adapts a Searcher's incremental topology updates
// (Searcher.Apply) to an EdgeApplyFunc.
func ApplyEdgesVia(s *Searcher) EdgeApplyFunc { return dynamic.ApplyVia(s) }

// GenerateEdgeChurn produces a time-sorted synthetic friendship-event stream
// for g: triadic-closure insertions and random unfriendings, on the same
// fractional-day clock as GenerateCheckins.
func GenerateEdgeChurn(g *Graph, events int, seed int64) []EdgeEvent {
	cfg := gen.DefaultEdgeChurnConfig()
	cfg.Events = events
	return gen.EdgeChurn(g, cfg, seed)
}

// Decay computes CJS/CAO decay curves over the time gaps etas (days).
func Decay(timelines map[V][]Snapshot, etas []float64) []DecayPoint {
	return dynamic.Decay(timelines, etas)
}

// Quality metrics (Section 5 measures).

// CommunityRadius returns the MCC radius of the members' locations.
func CommunityRadius(g *Graph, members []V) float64 { return quality.Radius(g, members) }

// CommunityDistPr returns the average pairwise distance between members.
func CommunityDistPr(g *Graph, members []V, seed int64) float64 {
	return quality.DistPr(g, members, seed)
}

// CJS is the community Jaccard similarity (Equation 9).
func CJS(a, b []V) float64 { return quality.CJS(a, b) }

// AvgInternalDegree returns the mean degree of members within the subgraph
// they induce.
func AvgInternalDegree(g *Graph, members []V) float64 {
	return community.AvgInternalDegree(g, members)
}

// CommunityDiameter returns the maximum pairwise distance between members —
// the objective of the minimum-diameter SAC variants (Searcher.MinDiam2Approx
// and Searcher.MinDiamLens).
func CommunityDiameter(g *Graph, members []V) float64 {
	return core.DiameterOf(g, members)
}
