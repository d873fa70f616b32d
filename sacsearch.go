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
// paper's Section 6, batch processing (BatchSearch), dynamic topology and
// check-in replay, snapshot-isolated serving (ServingEngine), durable
// serving (OpenStore), WAL-shipping replicas with fencing epochs
// (NewReplicaShipper, FenceLeader), and spatial sharding behind a
// scatter-gather router (PartitionGraph, NewShardRouter).
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
	"net"
	"time"

	"sacsearch/internal/batch"
	"sacsearch/internal/community"
	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/dynamic"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/quality"
	"sacsearch/internal/replica"
	"sacsearch/internal/router"
	"sacsearch/internal/shard"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/store"
)

// Geometry.
type (
	// Point is a 2-D location in the unit square.
	Point = geom.Point
	// Circle is a closed disk; SAC results carry their minimum covering
	// circle as one.
	Circle = geom.Circle
)

// MCC returns the minimum covering circle of the given points (expected
// linear time, deterministic).
func MCC(pts []Point) Circle { return geom.MCC(pts) }

// Graph model.
type (
	// V is the dense vertex id type.
	V = graph.V
	// Graph is a spatial graph in CSR form with a delta overlay: locations
	// mutate via SetLoc (check-ins) and topology via AddEdge/RemoveEdge
	// (friendship churn), each versioned by its own epoch.
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

// Pool is a concurrency-safe pool of Searcher clones — the parallel
// execution layer batch and server traffic run on. Pooled workers keep
// their scratch space and warmed candidate caches across queries.
type Pool = core.Pool

// NewPool creates a worker pool of clones of s.
func NewPool(s *Searcher) *Pool { return core.NewPool(s) }

// Snapshot-isolated serving (the production concurrency model; the HTTP
// server in cmd/sacserver runs on it). A ServingEngine owns the mutable
// graph in a single writer goroutine and publishes immutable
// ServingSnapshot values through an atomic pointer: queries pin a snapshot
// (one atomic load) and run lock-free on pooled workers, writers batch and
// never block readers.
type (
	// ServingEngine is the writer loop plus snapshot publication.
	ServingEngine = snapshot.Engine
	// ServingSnapshot is one immutable published graph view; it is a
	// BatchSource, so whole batches run pinned to one state.
	ServingSnapshot = snapshot.Snap
	// ServingOptions wires an engine's durability, metrics and post-publish
	// hooks; the zero value serves an in-memory engine.
	ServingOptions = snapshot.Options
)

// NewServingEngine takes ownership of g and starts serving snapshots of it.
// Release the writer goroutine with Close.
func NewServingEngine(g *Graph, opt ServingOptions) *ServingEngine {
	return snapshot.New(g, opt)
}

// Durable serving (the production persistence model; `sacserver -data-dir`
// runs on it). A Store wraps a ServingEngine with a write-ahead log and
// background checkpoints: a write that became visible to readers is already
// logged (and, under FsyncAlways, on disk), and OpenStore recovers the last
// served state after a crash or restart.
type (
	// Store is a durable ServingEngine rooted in a data directory.
	Store = store.Store
	// StoreOptions configures durability: initial graph, fsync policy, WAL
	// segment size and checkpoint cadence.
	StoreOptions = store.Options
	// StoreStats is the durability status a Store reports (and /v1/health
	// exposes): WAL size, sequences, checkpoint progress, fsync policy.
	StoreStats = store.Stats
	// FsyncPolicy selects when WAL appends reach stable storage.
	FsyncPolicy = store.FsyncPolicy
)

// Fsync policy choices: FsyncAlways makes every acknowledged write durable
// before it is acknowledged (one fsync per published batch); FsyncInterval
// bounds loss to the WAL's 100 ms flush interval; FsyncNever leaves flushing
// to the OS.
const (
	FsyncAlways   = store.FsyncAlways
	FsyncInterval = store.FsyncInterval
	FsyncNever    = store.FsyncNever
)

// OpenStore recovers (or, with opt.Init on first boot, creates) the durable
// store rooted at dataDir: the newest valid checkpoint is loaded, the WAL
// tail replayed — tolerating a torn final record, failing loudly on real
// corruption — and the serving engine resumed with monotonic sequences.
// Release it with Close (which writes a final checkpoint).
func OpenStore(dataDir string, opt StoreOptions) (*Store, error) {
	return store.Open(dataDir, opt)
}

// Replication & failover (`sacserver -listen-replication` /
// `-replicate-from` run on these). A ReplicaShipper streams a durable
// Store's WAL — snapshot bootstrap plus CRC-verified live tail — to
// followers; a ReplicaFollower applies that stream onto its own serving
// engine and reconnects with jittered backoff, resuming from its last
// applied sequence or re-syncing via snapshot when the leader's history
// moved on. Fencing epochs (Store.Epoch, Store.Fence, Store.BumpEpoch,
// FenceLeader) guarantee a deposed leader's writes are rejected (ErrFenced)
// instead of forking history.
type (
	// ReplicaShipper is the leader side: it serves the replication protocol
	// on a listener, one WAL cursor per follower.
	ReplicaShipper = replica.Shipper
	// ReplicaShipperOptions tunes heartbeat cadence, tail polling and batch
	// size; the zero value serves defaults.
	ReplicaShipperOptions = replica.ShipperOptions
	// ReplicaFollower is the follower side: replicated read-only state plus
	// the replication session management.
	ReplicaFollower = replica.Follower
	// ReplicaFollowerOptions configures a follower; Leader is required.
	ReplicaFollowerOptions = replica.FollowerOptions
	// ReplicaStatus is a follower's point-in-time replication state: sync
	// and connection flags, applied/leader sequences, epochs, lag.
	ReplicaStatus = replica.FollowerStatus
)

// NewReplicaShipper starts shipping st's WAL to followers connecting on ln
// (owned by the shipper from then on). Release with Close.
func NewReplicaShipper(st *Store, ln net.Listener, opt ReplicaShipperOptions) *ReplicaShipper {
	return replica.NewShipper(st, ln, opt)
}

// NewReplicaFollower starts replicating from opt.Leader. The follower
// serves no state until its first sync completes (Engine returns nil before
// then); Close stops replication but leaves the last synced state readable.
func NewReplicaFollower(opt ReplicaFollowerOptions) (*ReplicaFollower, error) {
	return replica.NewFollower(opt)
}

// FenceLeader tells the leader at addr (its replication address) that epoch
// exists, fencing it if that outranks its own epoch — the operator-facing
// half of follower promotion. Returns the leader's reported epoch.
func FenceLeader(addr string, epoch uint64, timeout time.Duration) (uint64, error) {
	return replica.FenceLeader(addr, epoch, timeout)
}

// ErrFenced reports a write rejected because a newer leader epoch fenced
// this store.
var ErrFenced = store.ErrFenced

// Spatial sharding & scatter-gather routing (cmd/sacshard cuts the
// artifacts, `sacserver -shard-id -shard-map` serves one shard, and
// cmd/sacrouter — or an embedded ShardRouter — fronts the topology with
// the unchanged /v1 API). A ShardMap is the deterministic spatial
// partition of a graph's vertices; each shard serves the ShardSubgraph
// induced by its owned vertices plus ghost copies of their cross-shard
// neighbors, on the same engine/WAL/replication stack a single node runs.
type (
	// ShardMap assigns every vertex to exactly one owning shard; the same
	// graph and shard count always produce the identical map, and its
	// Checksum is how router and shards verify they agree.
	ShardMap = shard.Map
	// ShardServing is one node's identity inside a sharded topology: the
	// map plus this node's shard id.
	ShardServing = shard.Serving
	// ShardRouter is the scatter-gather /v1 front: owner-first routing for
	// single-shard answers, exact cross-shard assembly otherwise.
	ShardRouter = router.Router
	// ShardRouterConfig configures a ShardRouter: the map plus one
	// endpoint group (leader first, then read replicas) per shard.
	ShardRouterConfig = router.Config
)

// PartitionGraph cuts g into the given number of spatially coherent shards
// (1 to 65536) by walking a location grid, balancing owned-vertex counts.
// The cut is deterministic: identical input yields an identical map.
func PartitionGraph(g *Graph, shards int) (*ShardMap, error) {
	return shard.Partition(g, shards)
}

// ShardSubgraph extracts the subgraph shard id serves: the full vertex-id
// space with every edge incident to an owned vertex, so owned vertices see
// their true global degree and cross-shard neighbors appear as ghosts.
func ShardSubgraph(g *Graph, m *ShardMap, id int) (*Graph, error) {
	return shard.Subgraph(g, m, id)
}

// NewShardServing validates and packages one node's shard identity.
func NewShardServing(m *ShardMap, id int) (*ShardServing, error) {
	return shard.NewServing(m, id)
}

// WriteShardMap writes m in the versioned, checksummed artifact format
// sacshard produces and `sacserver -shard-map`/sacrouter read.
func WriteShardMap(w io.Writer, m *ShardMap) error { return m.WriteMap(w) }

// ReadShardMap reads a shard-map artifact, verifying its checksum.
func ReadShardMap(r io.Reader) (*ShardMap, error) { return shard.ReadMap(r) }

// NewShardRouter creates the scatter-gather router over an already-running
// sharded topology. It is an http.Handler serving the same /v1 contract as
// a single sacserver; Router.CheckTopology verifies every shard is
// reachable and serving the same map.
func NewShardRouter(cfg ShardRouterConfig) (*ShardRouter, error) {
	return router.New(cfg)
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

// BatchSource supplies searcher workers to a batch: a *Pool, or a published
// ServingSnapshot (which pins the whole batch to one graph state).
type BatchSource = batch.Source

// BatchSearch answers every query using cloned searchers on parallel
// workers, deduplicating identical queries; items come back in input order.
// When ctx fires, in-flight queries return ErrCanceled at their next loop
// boundary and undispatched queries fail without running.
func BatchSearch(ctx context.Context, s *Searcher, queries []BatchQuery, opt BatchOptions) []BatchItem {
	return batch.Run(ctx, s, queries, opt)
}

// BatchSearchOn is BatchSearch over an existing worker source; reusing one
// pool across batches keeps the workers' candidate caches warm.
func BatchSearchOn(ctx context.Context, p BatchSource, queries []BatchQuery, opt BatchOptions) []BatchItem {
	return batch.RunOn(ctx, p, queries, opt)
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
	// Preset describes one Table 4 dataset.
	Preset = dataset.Preset
)

// DatasetPresets lists the Table 4 datasets this package can regenerate.
func DatasetPresets() []Preset { return dataset.Presets }

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

// Replay applies a check-in stream to g and snapshots the tracked users'
// communities from splitTime on. When ctx fires the replay aborts between
// events with the context's error.
func Replay(ctx context.Context, g *Graph, checkins []Checkin, tracked []V, splitTime float64, k int, search SearchFunc) (map[V][]Snapshot, error) {
	return dynamic.Replay(ctx, g, checkins, tracked, splitTime, k, search)
}

// ReplayWithEdges replays friendship churn interleaved with check-ins on one
// clock; each tracked search sees the graph exactly as it stood at that
// instant. Wire apply with ApplyEdgesVia(searcher) so the searcher's core
// decomposition stays current incrementally. Cancellation is as in Replay.
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

// CAO is the community area overlap of two MCCs (Equation 10).
func CAO(a, b Circle) float64 { return quality.CAO(a, b) }

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
