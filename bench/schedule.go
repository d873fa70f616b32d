package main

import (
	"fmt"
	"math"
	"math/rand"

	"sacsearch/internal/dataset"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
)

// The paper's default query parameters (Section 5.1): degree threshold 4,
// query vertices with core number at least 4, registry-default εF / εA.
const queryK = 4

// hotSetSize is how many vertices the skewed workloads concentrate on, and
// zipfS the skew: rank r is drawn with probability ∝ (1+r)^-zipfS.
const (
	hotSetSize = 16
	zipfS      = 1.2
)

// Workload names. They are the vocabulary of BENCHMARK.json and of every
// later performance claim, so they never change meaning.
const (
	wlHot    = "single_hot"
	wlCold   = "single_cold"
	wlChurn  = "single_churn"
	wlRouted = "routed"
)

// workloadNames are the workloads of a full run. BENCHMARK.json lists all of
// them but routed, so the PR driver runs and gates the three single-server
// ones. routed needs two CPUs at once for every assembled query and a process
// hop for every leg, which makes it two to three times as sensitive to the
// shared host's interference as the others, and its query_p50_ms spread past
// the 0.25 bound between runs of the same code (README.md has the figures). A
// full run and a traced run still measure it.
var workloadNames = []string{wlHot, wlCold, wlChurn, wlRouted}

// connsFor is how many connections drive a workload: two, one per CPU of the
// reference sandbox, on the read-only single-server workloads, whose subject
// includes what concurrent requests share (the searcher pool, the snapshot
// pin; the server keeps a warm pooled searcher per busy processor, so a lone
// connection on single_hot would mostly measure cold clones). single_churn
// must be sequential to be checkable, and routed runs three daemons, two of
// them working at once on every assembled query: a second connection there
// would have requests wait for a processor, and the run would time the
// scheduler, not the program.
func connsFor(workload string) int {
	if workload == wlHot || workload == wlCold {
		return 2
	}
	return 1
}

// roundOps is how many consecutive operations of one connection make a
// round, the unit the end-to-end rates and latencies are taken over (see
// report). A round is a whole number of the workload's mix blocks, so every
// round of a workload holds the same work.
var roundOps = map[string]int{wlHot: 200, wlCold: len(coldBlock), wlChurn: 2 * len(churnBlock), wlRouted: 20 * len(routedBlock)}

// sizing fixes the input sizes of a run: the reference sizes every committed
// number uses, or the small ones of -smoke.
type sizing struct {
	SynScale float64 `json:"synScale"` // syn1 preset scale served by the single_* workloads
	Clusters int     `json:"clusters"` // constellation communities (routed)
	ClusterN int     `json:"clusterN"` // vertices per community
}

var (
	fullSizing  = sizing{SynScale: 1, Clusters: 9, ClusterN: 2000}
	smokeSizing = sizing{SynScale: 0.05, Clusters: 5, ClusterN: 200}
)

// constellationDeg is the average degree inside one constellation community.
const constellationDeg = 12

// constellation builds the routed workload's graph: disjoint social
// communities stacked in disjoint y-bands (the internal/exp recipe,
// parameterised). An odd cluster count makes the count-balanced 2-way
// partitioner cut exactly the middle community, so its queries need
// cross-shard assembly and every other community certifies on one shard.
// The dataset presets are useless here: their k-core is one giant component
// that no spatial cut can certify.
func constellation(sz sizing, seed int64) *graph.Graph {
	n := sz.ClusterN
	b := graph.NewBuilder(sz.Clusters * n)
	rnd := rand.New(rand.NewSource(seed))
	band := 1 / float64(sz.Clusters)
	for c := 0; c < sz.Clusters; c++ {
		sub := gen.SocialGraph(n, n*constellationDeg/2, seed+int64(c)+1).Build()
		base := c * n
		cy := band * (float64(c) + 0.5)
		for v := 0; v < n; v++ {
			ang := 2 * math.Pi * rnd.Float64()
			rr := 0.3 * band * math.Sqrt(rnd.Float64())
			b.SetLoc(graph.V(base+v), geom.Point{X: 0.5 + rr*math.Cos(ang), Y: cy + rr*math.Sin(ang)})
			for _, w := range sub.Neighbors(graph.V(v)) {
				if graph.V(v) < w {
					b.AddEdge(graph.V(base+v), graph.V(base)+w)
				}
			}
		}
	}
	return b.Build()
}

// constellationSeed is fixed: the routed topology is the same graph on
// every run, and --seed only drives which vertices are queried. A graph per
// seed would make set-up time and the class sizes part of the noise.
const constellationSeed = 0x5ac

// inputs is what one workload run works on: the graph exactly as the
// program under test holds it at boot, and the vertex sets the schedule
// draws from. Everything here is a pure function of (workload, sizing).
type inputs struct {
	g        *graph.Graph
	cores    []int32
	eligible []graph.V // core number ≥ queryK, ascending
	hot      []graph.V // the hot set, rank order
}

func newInputs(g *graph.Graph) (*inputs, error) {
	in := &inputs{g: g, cores: kcore.Decompose(g)}
	for v := 0; v < g.NumVertices(); v++ {
		if int(in.cores[v]) >= queryK {
			in.eligible = append(in.eligible, graph.V(v))
		}
	}
	if len(in.eligible) < 4*hotSetSize {
		return nil, fmt.Errorf("graph has only %d vertices with core number >= %d", len(in.eligible), queryK)
	}
	// The hot set is spread evenly through the eligible vertices, not drawn
	// from the seed: which sixteen vertices are hot decides how large their
	// communities are, and that would otherwise be the largest source of
	// seed-to-seed spread on the skewed workloads.
	step := len(in.eligible) / hotSetSize
	for i := 0; i < hotSetSize; i++ {
		in.hot = append(in.hot, in.eligible[i*step+step/2])
	}
	return in, nil
}

// routedInputs builds the routed workload's graph.
func routedInputs(sz sizing) (*inputs, error) {
	return newInputs(constellation(sz, constellationSeed))
}

// singleInputs rebuilds, in process, the graph `sacserver -dataset syn1
// -scale <s>` generates for itself.
func singleInputs(sz sizing) (*inputs, error) {
	ds, err := dataset.Load("syn1", sz.SynScale)
	if err != nil {
		return nil, err
	}
	return newInputs(ds.Graph)
}

type opKind uint8

const (
	opQuery opKind = iota
	opCheckin
	opTargeted // a check-in aimed at the standing community; resolved at run time
	opEdge
)

// op is one scheduled operation. A check-in carries a step, not a position:
// the position is the vertex's current location plus the step, which the
// runner tracks, so the schedule itself stays a pure function of the seed.
type op struct {
	Kind   opKind  `json:"kind"`
	V      graph.V `json:"v"` // query vertex, moved vertex, or edge endpoint
	W      graph.V `json:"w,omitempty"`
	Algo   string  `json:"algo,omitempty"`
	DX     float64 `json:"dx,omitempty"`
	DY     float64 `json:"dy,omitempty"`
	Insert bool    `json:"insert,omitempty"`
	Class  string  `json:"class,omitempty"` // routed: "certified" or "assembled"
}

// class names the latency bucket an operation belongs to.
func (o op) class() string {
	switch o.Kind {
	case opQuery:
		return "query"
	case opEdge:
		return "edge"
	default:
		return "checkin"
	}
}

// stream is one connection's endless, deterministic op sequence.
type stream func() op

func connRand(seed int64, conn int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(conn)*7919 + 1))
}

func hotPicker(r *rand.Rand, hot []graph.V) func() graph.V {
	z := rand.NewZipf(r, zipfS, 1, uint64(len(hot)-1))
	return func() graph.V { return hot[z.Uint64()] }
}

// hotStream: read-only, Zipf over the hot set, AppFast.
func hotStream(in *inputs, seed int64, conn int) stream {
	pick := hotPicker(connRand(seed, conn), in.hot)
	return func() op { return op{Kind: opQuery, V: pick(), Algo: "appfast"} }
}

// coldStream: read-only, query vertices uniform without replacement over
// every eligible vertex (one seeded permutation dealt round-robin to the
// connections), algorithm 70 % appfast / 15 % appinc / 15 % appacc.
func coldStream(in *inputs, seed int64, conn, conns int) stream {
	perm := rand.New(rand.NewSource(seed)).Perm(len(in.eligible))
	algo := blocks(connRand(seed, conn), coldBlock)
	i := conn
	return func() op {
		v := in.eligible[perm[i%len(perm)]]
		i += conns
		return op{Kind: opQuery, V: v, Algo: algo()}
	}
}

var coldBlock = repeat(14, "appfast", 3, "appinc", 3, "appacc")

// blocks deals the block's items in a fresh seeded order, block after block.
// A mix drawn this way has its exact shares in every len(block) consecutive
// operations; drawn independently per operation, the count of the rare,
// expensive class in a short window would vary by its square root, and
// that variation would be the larger part of the run-to-run spread. The
// routed workload deals its query vertices the same way, one pass through a
// class querying each of its vertices once, because what a query costs
// depends on its vertex.
func blocks[T any](r *rand.Rand, block []T) func() T {
	cur := append([]T(nil), block...)
	i := len(cur)
	return func() T {
		if i == len(cur) {
			r.Shuffle(len(cur), func(a, b int) { cur[a], cur[b] = cur[b], cur[a] })
			i = 0
		}
		i++
		return cur[i-1]
	}
}

// repeat builds a block from (count, item) pairs.
func repeat(pairs ...any) []string {
	var out []string
	for i := 0; i < len(pairs); i += 2 {
		for n := pairs[i].(int); n > 0; n-- {
			out = append(out, pairs[i+1].(string))
		}
	}
	return out
}

// Churn mix and shape, after the evolving-graph setting of "Adaptive
// Community Search in Dynamic Networks": mostly reads, location updates
// several times more frequent than friendship changes, and a stationary
// edge count. Of every ten operations six are queries, three are check-ins
// (one of them aimed at the standing community) and one is an edge op. The
// order inside the ten is fixed, and every write is followed by a query: what
// a query costs is decided by whether a write came between it and the last
// query of the same vertex, so a shuffled order would make the cost of a
// block a matter of luck. The seed still chooses every vertex, step and edge.
var churnBlock = []string{"checkin", "query", "query", "targeted", "query", "edge", "query", "query", "checkin", "query"}

const (
	churnStepSigma  = 0.01
	churnMaxPending = 8 // inserted edges waiting for their delete
)

// churnStream: one sequential connection mixing hot AppFast queries,
// check-ins and edge ops. Inserted edges join two eligible vertices that
// were not adjacent and are deleted again later, oldest first.
func churnStream(in *inputs, seed int64) stream {
	r := connRand(seed, 0)
	pick := hotPicker(r, in.hot)
	i := -1
	kind := func() string {
		i = (i + 1) % len(churnBlock)
		return churnBlock[i]
	}
	n := in.g.NumVertices()
	var pending [][2]graph.V
	inserted := map[[2]graph.V]bool{}
	return func() op {
		switch kind() {
		case "query":
			return op{Kind: opQuery, V: pick(), Algo: "appfast"}
		case "targeted":
			return op{Kind: opTargeted}
		case "checkin":
			return op{Kind: opCheckin, V: graph.V(r.Intn(n)),
				DX: r.NormFloat64() * churnStepSigma, DY: r.NormFloat64() * churnStepSigma}
		}
		if len(pending) == churnMaxPending || (len(pending) > 0 && r.Intn(2) == 0) {
			e := pending[0]
			pending = pending[1:]
			delete(inserted, e)
			return op{Kind: opEdge, V: e[0], W: e[1], Insert: false}
		}
		for {
			a := in.eligible[r.Intn(len(in.eligible))]
			b := in.eligible[r.Intn(len(in.eligible))]
			if a > b {
				a, b = b, a
			}
			e := [2]graph.V{a, b}
			if a == b || in.g.HasEdge(a, b) || inserted[e] {
				continue
			}
			pending = append(pending, e)
			inserted[e] = true
			return op{Kind: opEdge, V: a, W: b, Insert: true}
		}
	}
}

// Routed mix: of every four queries, three come from vertices the owner
// shard certifies and one from a vertex that needs cross-shard assembly.
var routedBlock = repeat(3, "certified", 1, "assembled")

func routedStream(certified, assembled []graph.V, seed int64, conn int) stream {
	r := connRand(seed, conn)
	class := blocks(r, routedBlock)
	from := map[string]func() graph.V{"certified": blocks(r, certified), "assembled": blocks(r, assembled)}
	return func() op {
		c := class()
		return op{Kind: opQuery, V: from[c](), Algo: "appfast", Class: c}
	}
}

// routedProbeCount is how many eligible vertices set-up classifies through
// /v1/shard/search; minClass is the smallest class the run accepts.
const (
	routedProbeCount = 400
	minClass         = 20
)

// routedProbes picks the vertices whose routing class set-up will look up:
// eligible vertices at even spacing. Like the hot set they do not depend on
// the seed — which vertices straddle the cut decides how dear an assembled
// query is — so the seed only orders the queries.
func routedProbes(in *inputs) []graph.V {
	n := routedProbeCount
	if n > len(in.eligible) {
		n = len(in.eligible)
	}
	out := make([]graph.V, n)
	for i := range out {
		out[i] = in.eligible[i*len(in.eligible)/n]
	}
	return out
}

// take materialises the first n ops of a stream.
func take(s stream, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s()
	}
	return out
}
