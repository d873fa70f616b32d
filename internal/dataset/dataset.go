// Package dataset provides the named datasets of Table 4 as deterministic
// synthetic stand-ins, plus text serialization. The paper's real downloads
// (SNAP Brightkite/Gowalla, Flickr, the UMN Foursquare snapshot) are not
// redistributable here, so each preset regenerates a graph with the
// published vertex count, edge count and average degree using the paper's
// own synthetic recipe (Section 5.1; see package gen). The generator seed is
// fixed per preset, so every run of every experiment sees the same bytes.
//
// Full-size presets match Table 4 exactly; most experiments run on scaled
// copies (Load with scale < 1) that keep the average degree, because the
// exact algorithms the paper benchmarks are deliberately super-linear.
package dataset

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sacsearch/internal/gen"
	"sacsearch/internal/graph"
	"sacsearch/internal/kcore"
)

// Preset describes one named dataset of Table 4.
type Preset struct {
	Name     string
	Vertices int
	Edges    int
	AvgDeg   float64 // d̂ as published
	Seed     int64
	// Synthetic marks the datasets that were synthetic in the paper too
	// (Syn1, Syn2); the others stand in for real downloads.
	Synthetic bool
}

// Presets mirrors Table 4.
var Presets = []Preset{
	{Name: "brightkite", Vertices: 51406, Edges: 197167, AvgDeg: 7.67, Seed: 0xb41},
	{Name: "gowalla", Vertices: 107092, Edges: 456830, AvgDeg: 8.53, Seed: 0x90a},
	{Name: "flickr", Vertices: 214698, Edges: 2096306, AvgDeg: 19.5, Seed: 0xf11c},
	{Name: "foursquare", Vertices: 2127093, Edges: 8640352, AvgDeg: 8.12, Seed: 0x45ec},
	{Name: "syn1", Vertices: 30000, Edges: 300000, AvgDeg: 20, Seed: 0x511, Synthetic: true},
	{Name: "syn2", Vertices: 400000, Edges: 4000000, AvgDeg: 20, Seed: 0x512, Synthetic: true},
}

// PresetByName finds a preset, case-insensitively.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("dataset: unknown preset %q (have %s)", name, Names())
}

// Names lists the preset names.
func Names() string {
	names := make([]string, len(Presets))
	for i, p := range Presets {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// Dataset is a named spatial graph ready for experiments.
type Dataset struct {
	Name  string
	Graph *graph.Graph
	// Scale records the fraction of the published size this instance was
	// generated at (1 = full Table 4 size).
	Scale float64
}

// Load builds the named dataset at the given scale ∈ (0, 1]. Scaling keeps
// the published average degree: n' = n·scale, m' = m·scale.
func Load(name string, scale float64) (*Dataset, error) {
	p, err := PresetByName(name)
	if err != nil {
		return nil, err
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("dataset: scale %v out of (0,1]", scale)
	}
	n := int(float64(p.Vertices) * scale)
	m := int(float64(p.Edges) * scale)
	if n < 16 {
		n = 16
	}
	if m < n {
		m = n
	}
	b := gen.SocialGraph(n, m, p.Seed)
	gen.PlaceSpatial(b, gen.DefaultDistMean, gen.DefaultDistSigma, p.Seed+1)
	return &Dataset{Name: p.Name, Graph: b.Build(), Scale: scale}, nil
}

// SubgraphPercent returns the subgraph induced by a uniform pct% sample of
// the vertices (the scalability protocol of Section 5.1: "randomly extract
// subgraphs of 20%, 40%, ... of vertices"). Vertices are renumbered densely;
// locations carry over.
func SubgraphPercent(d *Dataset, pct int, seed int64) (*Dataset, error) {
	if pct <= 0 || pct > 100 {
		return nil, fmt.Errorf("dataset: pct %d out of (0,100]", pct)
	}
	g := d.Graph
	n := g.NumVertices()
	if pct == 100 {
		return &Dataset{Name: fmt.Sprintf("%s-%d%%", d.Name, pct), Graph: g.Clone(), Scale: d.Scale}, nil
	}
	rnd := rand.New(rand.NewSource(seed))
	keepN := n * pct / 100
	perm := rnd.Perm(n)[:keepN]
	sort.Ints(perm)
	newID := make([]graph.V, n)
	for i := range newID {
		newID[i] = -1
	}
	for i, old := range perm {
		newID[old] = graph.V(i)
	}
	b := graph.NewBuilder(keepN)
	for _, old := range perm {
		v := graph.V(old)
		b.SetLoc(newID[old], g.Loc(v))
		for _, u := range g.Neighbors(v) {
			if v < u && newID[u] >= 0 {
				b.AddEdge(newID[old], newID[u])
			}
		}
	}
	return &Dataset{Name: fmt.Sprintf("%s-%d%%", d.Name, pct), Graph: b.Build(), Scale: d.Scale * float64(pct) / 100}, nil
}

// QueryWorkload returns count query vertices drawn uniformly from the
// vertices with core number ≥ minCore, the paper's workload construction
// (Section 5.1: 200 random vertices with core number 4 or more). The
// selection is deterministic in seed. It returns fewer when the graph lacks
// eligible vertices.
func QueryWorkload(g *graph.Graph, minCore, count int, seed int64) []graph.V {
	cores := kcore.Decompose(g)
	var eligible []graph.V
	for v := 0; v < g.NumVertices(); v++ {
		if int(cores[v]) >= minCore {
			eligible = append(eligible, graph.V(v))
		}
	}
	rnd := rand.New(rand.NewSource(seed))
	rnd.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	if len(eligible) > count {
		eligible = eligible[:count]
	}
	sorted := append([]graph.V(nil), eligible...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

// Save writes the dataset's edges and locations under dir as
// <name>.edges and <name>.locs.
func (d *Dataset) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ef, err := os.Create(filepath.Join(dir, d.Name+".edges"))
	if err != nil {
		return err
	}
	defer ef.Close()
	if err := graph.WriteEdges(ef, d.Graph); err != nil {
		return err
	}
	lf, err := os.Create(filepath.Join(dir, d.Name+".locs"))
	if err != nil {
		return err
	}
	defer lf.Close()
	return graph.WriteLocations(lf, d.Graph)
}

// Open loads a dataset previously written by Save.
func Open(dir, name string, n int) (*Dataset, error) {
	ef, err := os.Open(filepath.Join(dir, name+".edges"))
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	lf, err := os.Open(filepath.Join(dir, name+".locs"))
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	g, err := graph.Read(ef, lf, n)
	if err != nil {
		return nil, err
	}
	return &Dataset{Name: name, Graph: g, Scale: 1}, nil
}

// SaveBinary writes the dataset under dir as <name>.sacg in the checksummed
// binary CSR format — roughly 30× faster to reload than the text pair and
// self-describing (no separate vertex count needed).
func (d *Dataset) SaveBinary(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, d.Name+".sacg"))
	if err != nil {
		return err
	}
	if err := graph.WriteBinary(f, d.Graph); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadOrRead resolves the graph a daemon, a cut or an experiment runs on:
// the binary graph file at path when one is given — what SaveBinary,
// `sacgen -binary` and sacshard write; the dataset is named after the file —
// and the named preset at scale otherwise.
func LoadOrRead(path, name string, scale float64) (*Dataset, error) {
	if path == "" {
		return Load(name, scale)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return &Dataset{Name: base, Graph: g, Scale: 1}, nil
}
