// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5), one testing.B function per artifact, plus the range-query
// ablation DESIGN.md §7 calls out. Quality figures (9, 10, 11, 13, 14b)
// report their headline number through b.ReportMetric in the figure's own
// unit next to the usual ns/op; efficiency figures (12, 14a) are plain
// timing benches.
//
// The workload is the quick configuration (brightkite stand-in at 2% scale,
// 20 queries with core number ≥ 4) so `go test -bench=.` finishes in
// minutes; `cmd/sacbench -paper` runs the full-size protocol.
package sacsearch_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"sacsearch"
	"sacsearch/internal/core"
	"sacsearch/internal/dataset"
	"sacsearch/internal/exp"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/snapshot"
	"sacsearch/internal/spatial"
)

const (
	benchDataset = "brightkite"
	benchScale   = 0.02
	benchQueries = 20
	benchK       = 4
	benchSeed    = 42
	// exactScale sizes the separate, smaller workload used by the cubic
	// Exact algorithm and annulus-off Exact+ benches, mirroring the paper's
	// practice of skipping Exact runs that would take hours.
	exactScale = 0.004
	// exactCandidateCap bounds the candidate k-ĉore size on that workload.
	exactCandidateCap = 150
)

// benchFixture is the shared benchmark workload, built once.
type benchFixture struct {
	ds       *sacsearch.Dataset
	queries  []sacsearch.V
	searcher *sacsearch.Searcher
	baseline *sacsearch.BaselineSearcher
	geoModu1 *sacsearch.Partition
	geoModu2 *sacsearch.Partition
	// optRadius maps each workload query to its Exact+ (optimal) MCC radius,
	// the denominator of every approximation ratio.
	optRadius map[sacsearch.V]float64
}

// exactFixture is the smaller workload for the cubic algorithms.
type exactFixture struct {
	searcher *sacsearch.Searcher
	queries  []sacsearch.V
}

var (
	fixOnce sync.Once
	fix     *benchFixture
	fixErr  error

	exactOnce sync.Once
	exactFix  *exactFixture
	exactErr  error
)

func exactWorkload(b *testing.B) *exactFixture {
	b.Helper()
	exactOnce.Do(func() {
		ds, err := sacsearch.LoadDataset(benchDataset, exactScale)
		if err != nil {
			exactErr = err
			return
		}
		f := &exactFixture{searcher: sacsearch.NewSearcher(ds.Graph)}
		for _, q := range sacsearch.QueryWorkload(ds.Graph, benchK, benchQueries, benchSeed) {
			res, err := f.searcher.AppFast(q, benchK, 0.5)
			if err != nil {
				continue
			}
			if res.Stats.CandidateSize <= exactCandidateCap {
				f.queries = append(f.queries, q)
			}
		}
		if len(f.queries) == 0 {
			exactErr = fmt.Errorf("no queries under the Exact candidate cap at scale %v", exactScale)
			return
		}
		exactFix = f
	})
	if exactErr != nil {
		b.Fatal(exactErr)
	}
	return exactFix
}

func fixture(b *testing.B) *benchFixture {
	b.Helper()
	fixOnce.Do(func() {
		ds, err := sacsearch.LoadDataset(benchDataset, benchScale)
		if err != nil {
			fixErr = err
			return
		}
		f := &benchFixture{
			ds:        ds,
			queries:   sacsearch.QueryWorkload(ds.Graph, benchK, benchQueries, benchSeed),
			searcher:  sacsearch.NewSearcher(ds.Graph),
			baseline:  sacsearch.NewBaselineSearcher(ds.Graph),
			geoModu1:  sacsearch.RunGeoModu(ds.Graph, 1),
			geoModu2:  sacsearch.RunGeoModu(ds.Graph, 2),
			optRadius: make(map[sacsearch.V]float64),
		}
		if len(f.queries) == 0 {
			fixErr = fmt.Errorf("no queries with core ≥ %d in %s at scale %v",
				benchK, benchDataset, benchScale)
			return
		}
		for _, q := range f.queries {
			res, err := f.searcher.ExactPlus(q, benchK, 1e-3)
			if err != nil {
				fixErr = fmt.Errorf("ExactPlus(%d): %w", q, err)
				return
			}
			f.optRadius[q] = res.Radius()
		}
		fix = f
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// query cycles through the workload.
func (f *benchFixture) query(i int) sacsearch.V { return f.queries[i%len(f.queries)] }

// ratioOf returns radius/ropt for one query result, treating a zero optimal
// radius (degenerate single-point MCC) as ratio 1.
func (f *benchFixture) ratioOf(q sacsearch.V, radius float64) float64 {
	opt := f.optRadius[q]
	if opt == 0 {
		return 1
	}
	return radius / opt
}

// --- Table 4: dataset statistics -----------------------------------------

// BenchmarkTable4Datasets builds each Table 4 stand-in at 1% scale and
// reports its vertex and edge counts (the paper's Table 4 columns) as
// metrics.
func BenchmarkTable4Datasets(b *testing.B) {
	for _, p := range dataset.Presets {
		b.Run(p.Name, func(b *testing.B) {
			var vertices, edges, avgDeg float64
			for i := 0; i < b.N; i++ {
				ds, err := sacsearch.LoadDataset(p.Name, 0.01)
				if err != nil {
					b.Fatal(err)
				}
				vertices = float64(ds.Graph.NumVertices())
				edges = float64(ds.Graph.NumEdges())
				avgDeg = ds.Graph.AvgDegree()
			}
			b.ReportMetric(vertices, "vertices")
			b.ReportMetric(edges, "edges")
			b.ReportMetric(avgDeg, "avgdeg")
		})
	}
}

// --- Figure 9: actual vs theoretical approximation ratio ------------------

// BenchmarkFig9AppFastRatio sweeps εF and reports the measured mean
// approximation ratio (paper: ≈2.0 even when the guarantee is 4.0).
func BenchmarkFig9AppFastRatio(b *testing.B) {
	f := fixture(b)
	for _, epsF := range []float64{0.0, 0.5, 1.0, 1.5, 2.0} {
		b.Run(fmt.Sprintf("epsF=%.1f", epsF), func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				q := f.query(i)
				res, err := f.searcher.AppFast(q, benchK, epsF)
				if err != nil {
					b.Fatal(err)
				}
				sum += f.ratioOf(q, res.Radius())
			}
			b.ReportMetric(sum/float64(b.N), "ratio")
			b.ReportMetric(2+epsF, "ratio-bound")
		})
	}
}

// BenchmarkFig9AppAccRatio sweeps εA and reports the measured mean
// approximation ratio (paper: ≤1.1 across the sweep).
func BenchmarkFig9AppAccRatio(b *testing.B) {
	f := fixture(b)
	for _, epsA := range []float64{0.01, 0.05, 0.1, 0.5, 0.9} {
		b.Run(fmt.Sprintf("epsA=%.2f", epsA), func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				q := f.query(i)
				res, err := f.searcher.AppAcc(q, benchK, epsA)
				if err != nil {
					b.Fatal(err)
				}
				sum += f.ratioOf(q, res.Radius())
			}
			b.ReportMetric(sum/float64(b.N), "ratio")
			b.ReportMetric(1+epsA, "ratio-bound")
		})
	}
}

// --- Figure 10: spatial cohesiveness vs Global/Local/GeoModu --------------

// fig10Methods enumerates the community-retrieval methods Figure 10
// compares; each returns the member set for one query.
func fig10Methods(f *benchFixture) []struct {
	name string
	run  func(q sacsearch.V) []sacsearch.V
} {
	return []struct {
		name string
		run  func(q sacsearch.V) []sacsearch.V
	}{
		{"ExactPlus", func(q sacsearch.V) []sacsearch.V {
			res, err := f.searcher.ExactPlus(q, benchK, 1e-3)
			if err != nil {
				return nil
			}
			return res.Members
		}},
		{"AppInc", func(q sacsearch.V) []sacsearch.V {
			res, err := f.searcher.AppInc(q, benchK)
			if err != nil {
				return nil
			}
			return res.Members
		}},
		{"AppFast05", func(q sacsearch.V) []sacsearch.V {
			res, err := f.searcher.AppFast(q, benchK, 0.5)
			if err != nil {
				return nil
			}
			return res.Members
		}},
		{"AppAcc05", func(q sacsearch.V) []sacsearch.V {
			res, err := f.searcher.AppAcc(q, benchK, 0.5)
			if err != nil {
				return nil
			}
			return res.Members
		}},
		{"Global", func(q sacsearch.V) []sacsearch.V { return f.baseline.Global(q, benchK) }},
		{"Local", func(q sacsearch.V) []sacsearch.V { return f.baseline.Local(q, benchK) }},
		{"GeoModu1", func(q sacsearch.V) []sacsearch.V { return f.geoModu1.CommunityOf(q) }},
		{"GeoModu2", func(q sacsearch.V) []sacsearch.V { return f.geoModu2.CommunityOf(q) }},
	}
}

// BenchmarkFig10Radius reports the mean community MCC radius per method
// (paper: Global/Local radii 50×/20× the SAC methods').
func BenchmarkFig10Radius(b *testing.B) {
	f := fixture(b)
	for _, m := range fig10Methods(f) {
		b.Run(m.name, func(b *testing.B) {
			var sum float64
			var cnt int
			for i := 0; i < b.N; i++ {
				members := m.run(f.query(i))
				if len(members) == 0 {
					continue
				}
				sum += sacsearch.CommunityRadius(f.ds.Graph, members)
				cnt++
			}
			if cnt > 0 {
				b.ReportMetric(sum/float64(cnt), "radius")
			}
		})
	}
}

// BenchmarkFig10DistPr reports the mean pairwise member distance per method
// (Figure 10(b)).
func BenchmarkFig10DistPr(b *testing.B) {
	f := fixture(b)
	for _, m := range fig10Methods(f) {
		b.Run(m.name, func(b *testing.B) {
			var sum float64
			var cnt int
			for i := 0; i < b.N; i++ {
				members := m.run(f.query(i))
				if len(members) == 0 {
					continue
				}
				sum += sacsearch.CommunityDistPr(f.ds.Graph, members, benchSeed)
				cnt++
			}
			if cnt > 0 {
				b.ReportMetric(sum/float64(cnt), "distPr")
			}
		})
	}
}

// --- Figure 11: θ-SAC sensitivity -----------------------------------------

// BenchmarkFig11ThetaSAC sweeps θ and reports the fraction of queries with a
// non-empty result and the mean radius blow-up over Exact+ (paper: small θ →
// few results, large θ → radii 5-10× Exact+'s).
func BenchmarkFig11ThetaSAC(b *testing.B) {
	f := fixture(b)
	for _, theta := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
		b.Run(fmt.Sprintf("theta=%.0e", theta), func(b *testing.B) {
			var nonEmpty, ratioSum float64
			var ratioCnt int
			for i := 0; i < b.N; i++ {
				q := f.query(i)
				res, err := f.searcher.ThetaSAC(q, benchK, theta)
				if err != nil {
					continue
				}
				nonEmpty++
				ratioSum += f.ratioOf(q, res.Radius())
				ratioCnt++
			}
			b.ReportMetric(100*nonEmpty/float64(b.N), "pct-nonempty")
			if ratioCnt > 0 {
				b.ReportMetric(ratioSum/float64(ratioCnt), "radius-ratio")
			}
		})
	}
}

// --- Figure 12(a-e): approximation algorithms vs k -------------------------

// BenchmarkFig12Approx times each approximation algorithm across the k sweep
// (paper: AppFast fastest, AppInc grows with k, AppAcc stable).
func BenchmarkFig12Approx(b *testing.B) {
	f := fixture(b)
	algos := []struct {
		name string
		run  func(q sacsearch.V, k int) (*sacsearch.Result, error)
	}{
		{"AppInc", func(q sacsearch.V, k int) (*sacsearch.Result, error) { return f.searcher.AppInc(q, k) }},
		{"AppFast0.0", func(q sacsearch.V, k int) (*sacsearch.Result, error) { return f.searcher.AppFast(q, k, 0) }},
		{"AppFast0.5", func(q sacsearch.V, k int) (*sacsearch.Result, error) { return f.searcher.AppFast(q, k, 0.5) }},
		{"AppAcc0.5", func(q sacsearch.V, k int) (*sacsearch.Result, error) { return f.searcher.AppAcc(q, k, 0.5) }},
	}
	for _, a := range algos {
		for _, k := range []int{4, 7, 10, 13, 16} {
			b.Run(fmt.Sprintf("%s/k=%d", a.name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q := f.query(i)
					if _, err := a.run(q, k); err != nil && err != sacsearch.ErrNoCommunity {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Repeated-query throughput: the candidate cache -------------------------

// BenchmarkRepeatedCommunityQueries measures the dominant server/batch
// pattern — a stream of queries that keep landing in the same few
// communities — with the candidate cache kept warm (default) and emptied
// before every query. The warm cache skips the per-query BFS + distance sort
// once the stream has touched a community; the acceptance bar for the cache
// is ≥2× on this workload.
func BenchmarkRepeatedCommunityQueries(b *testing.B) {
	f := fixture(b)
	for _, mode := range []struct {
		name   string
		cached bool
	}{{"Cached", true}, {"Cold", false}} {
		b.Run(mode.name, func(b *testing.B) {
			s := sacsearch.NewSearcher(f.ds.Graph)
			s.SetCandidateCaching(mode.cached)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.AppFast(f.query(i), benchK, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdView times the uncached-view query: AppFast, AppInc and AppAcc
// over a stream of distinct query vertices on syn1 at full scale (one
// 30 000-vertex 4-core), so every query pays distance + sort + prefix-oracle
// build — the cost of any query that follows a write — and AppAcc its anchor
// refinement on top, whose size feas/op (feasibility checks) and anchors/op
// (anchors binary-searched) report. TwoReaders is AppFast from two
// goroutines at once, each on its own pooled worker of one engine and its
// own query vertex of the same community: the contention arm, which must not
// serialize the two. Mixed is AppFast with one query in four from eight hot
// vertices, each seen twice before the timer starts, and the rest one-shot:
// hotViewHits/op counts the hot queries that found their view standing (at
// most 0.25, one op in four), and views the views the community publishes
// at the end. It is for local iteration on the rebuild, the circle peel and
// view admission; the evidence for a claim is the bench/ run.
func BenchmarkColdView(b *testing.B) {
	ds, err := sacsearch.LoadDataset("syn1", 1)
	if err != nil {
		b.Fatal(err)
	}
	// Far more vertices than a community keeps views for, so cycling
	// through them never finds a view warm.
	queries := sacsearch.QueryWorkload(ds.Graph, benchK, 512, benchSeed)
	for _, algo := range []struct {
		name string
		run  func(s *sacsearch.Searcher, q sacsearch.V) (*sacsearch.Result, error)
	}{
		{"AppFast", func(s *sacsearch.Searcher, q sacsearch.V) (*sacsearch.Result, error) {
			return s.AppFast(q, benchK, 0.5)
		}},
		{"AppInc", func(s *sacsearch.Searcher, q sacsearch.V) (*sacsearch.Result, error) { return s.AppInc(q, benchK) }},
		{"AppAcc", func(s *sacsearch.Searcher, q sacsearch.V) (*sacsearch.Result, error) { return s.AppAcc(q, benchK, 0.5) }},
	} {
		b.Run(algo.name, func(b *testing.B) {
			s := sacsearch.NewSearcher(ds.Graph)
			var feas, anchors int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := algo.run(s, queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				feas += res.Stats.FeasibilityChecks
				anchors += res.Stats.AnchorsProcessed
			}
			b.ReportMetric(float64(feas)/float64(b.N), "feas/op")
			b.ReportMetric(float64(anchors)/float64(b.N), "anchors/op")
		})
	}
	b.Run("TwoReaders", func(b *testing.B) {
		eng := snapshot.New(ds.Graph.Clone(), snapshot.Options{})
		defer eng.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for r := range 2 {
				wg.Add(1)
				go func(q sacsearch.V) {
					defer wg.Done()
					sn := eng.Current()
					w := sn.Get()
					_, err := w.AppFast(q, benchK, 0.5)
					sn.Put(w)
					if err != nil {
						b.Error(err)
					}
				}(queries[(2*i+r)%len(queries)])
			}
			wg.Wait()
		}
	})
	b.Run("Mixed", func(b *testing.B) {
		s := sacsearch.NewSearcher(ds.Graph)
		hot, oneShot := queries[:8], queries[8:]
		for range 2 {
			for _, q := range hot {
				if _, err := s.AppFast(q, benchK, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		}
		rnd := rand.New(rand.NewSource(benchSeed))
		hotHits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := oneShot[(i-i/4)%len(oneShot)]
			if i%4 == 0 {
				q = hot[rnd.Intn(len(hot))]
			}
			res, err := s.AppFast(q, benchK, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			if i%4 == 0 && res.Stats.ViewHits == 1 && res.Stats.ViewRebuilds == 0 {
				hotHits++
			}
		}
		b.StopTimer()
		views, _ := core.PublishedViews(s, hot[0], benchK)
		b.ReportMetric(float64(hotHits)/float64(b.N), "hotViewHits/op")
		b.ReportMetric(float64(views), "views")
	})
}

// BenchmarkChurnQuery times what a hot query costs right after a write, in
// process: syn1 at full scale behind a snapshot.Engine, sixteen hot vertices
// queried round-robin through the engine's pooled worker, one write
// (untimed) before every query. AfterCheckin moves a uniform vertex by a
// Gaussian step, so the view must follow a moved member; AfterEdge inserts a
// random edge and deletes it the next time round, so the cached community
// must survive an edge op. Hit is the same loop with no write, the floor
// both are measured against — allocations included: a repaired view should
// allocate what a hit does. AfterDelete and AfterHubMove query the first hot
// vertex alone, after every write, as a standing query's evaluation does:
// AfterDelete's write inserts an edge between two community members, lets
// the view absorb it, and deletes it again, so the timed query repairs a
// lone delete; AfterHubMove sends the lowest-id member of that vertex's
// community other than itself (under preferential attachment its hub) to
// the corner farthest from it and, the next time, home again, as
// single_churn's targeted check-in does. Each arm also reports, per op, the
// prefix oracles built from nothing (builds/op), those repaired from their
// last build (repairs/op), the prefix lengths the repairs' records dirtied
// (span/op), the repairs that ran windows (windows/op), the vertices the
// replays evaluated or settled (replayed/op), and what a repair touched
// (touched/op: a window's lengths plus the replay's vertices). Each Parallel
// arm is its arm with GOMAXPROCS readers: after every write, one query per
// reader runs at once on its own pooled worker, reader j of op i on query
// vertex i·GOMAXPROCS+j, so every view is queried by whichever worker comes
// next. For local iteration; the evidence for a claim is the bench/ run.
func BenchmarkChurnQuery(b *testing.B) {
	ds, err := sacsearch.LoadDataset("syn1", 1)
	if err != nil {
		b.Fatal(err)
	}
	hot := sacsearch.QueryWorkload(ds.Graph, benchK, 16, benchSeed)
	eligible := sacsearch.QueryWorkload(ds.Graph, benchK, 4096, benchSeed+1)
	ctx := context.Background()
	pair := func(i int) (sacsearch.V, sacsearch.V) {
		return eligible[(i*7)%len(eligible)], eligible[(i*13+1)%len(eligible)]
	}
	// The hub AfterHubMove moves, and the corner it goes to.
	res, err := sacsearch.NewSearcher(ds.Graph).AppFast(hot[0], benchK, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	hub := res.Members[0]
	if hub == hot[0] {
		hub = res.Members[1]
	}
	home, qp := ds.Graph.Loc(hub), ds.Graph.Loc(hot[0])
	corner := geom.Point{X: 0.001, Y: 0.001}
	if qp.X < 0.5 {
		corner.X = 0.999
	}
	if qp.Y < 0.5 {
		corner.Y = 0.999
	}
	arms := []struct {
		name    string
		queries []sacsearch.V
		write   func(eng *snapshot.Engine, rnd *rand.Rand, i int) error
	}{
		{"Hit", hot, func(*snapshot.Engine, *rand.Rand, int) error { return nil }},
		{"AfterCheckin", hot, func(eng *snapshot.Engine, rnd *rand.Rand, _ int) error {
			v := sacsearch.V(rnd.Intn(eng.NumVertices()))
			p := eng.Current().Graph().Loc(v)
			return eng.CheckIn(ctx, v, geom.Point{X: p.X + rnd.NormFloat64()*0.01, Y: p.Y + rnd.NormFloat64()*0.01})
		}},
		{"AfterEdge", hot, func(eng *snapshot.Engine, _ *rand.Rand, i int) error {
			// Round i/2 inserts its edge on the even call and deletes it on
			// the odd one, so |E| stays put.
			u, w := pair(i / 2)
			_, err := eng.UpdateEdge(ctx, u, w, i%2 == 0)
			return err
		}},
		{"AfterDelete", hot[:1], func(eng *snapshot.Engine, _ *rand.Rand, i int) error {
			var u, w sacsearch.V
			for j := i; ; j++ { // the first pair from round i on not adjacent yet
				u, w = pair(j)
				inserted, err := eng.UpdateEdge(ctx, u, w, true)
				if err != nil {
					return err
				}
				if inserted {
					break
				}
			}
			sn := eng.Current()
			wk := sn.Get()
			_, err := wk.AppFast(hot[0], benchK, 0.5)
			sn.Put(wk)
			if err != nil {
				return err
			}
			_, err = eng.UpdateEdge(ctx, u, w, false)
			return err
		}},
		{"AfterHubMove", hot[:1], func(eng *snapshot.Engine, _ *rand.Rand, i int) error {
			p := corner
			if i%2 == 1 {
				p = home
			}
			return eng.CheckIn(ctx, hub, p)
		}},
	}
	for _, readers := range []int{0, runtime.GOMAXPROCS(0)} {
		for _, arm := range arms {
			name := arm.name
			if readers > 0 {
				name = "Parallel" + name
			}
			b.Run(name, func(b *testing.B) { churnQuery(b, ds, arm.queries, arm.write, readers) })
		}
	}
}

// churnQuery is one BenchmarkChurnQuery arm: before every op an untimed
// write, then the op queries the query vertices in turn — once, or with
// readers goroutines at once.
func churnQuery(b *testing.B, ds *sacsearch.Dataset, hot []sacsearch.V, write func(*snapshot.Engine, *rand.Rand, int) error, readers int) {
	eng := snapshot.New(ds.Graph.Clone(), snapshot.Options{})
	defer eng.Close()
	rnd := rand.New(rand.NewSource(benchSeed))
	var (
		mu               sync.Mutex
		st               sacsearch.Stats
		windows, touched int
	)
	one := func(q sacsearch.V) {
		sn := eng.Current()
		w := sn.Get()
		res, err := w.AppFast(q, benchK, 0.5)
		sn.Put(w)
		if err != nil {
			b.Error(err)
			return
		}
		r := res.Stats
		mu.Lock()
		st.OracleBuilds += r.OracleBuilds
		st.OracleRepairs += r.OracleRepairs
		st.OracleRepairSpan += r.OracleRepairSpan
		st.OracleReplayed += r.OracleReplayed
		touched += r.OracleReplayed
		if r.OracleRepairs > r.OracleReplays && r.OracleRepairSpan > 0 {
			// A repair with dirty lengths that no replay settled swept them.
			windows++
			touched += r.OracleRepairSpan
		}
		mu.Unlock()
	}
	query := func(i int) {
		if readers == 0 {
			one(hot[i%len(hot)])
			return
		}
		var wg sync.WaitGroup
		for j := range readers {
			wg.Add(1)
			go func(q sacsearch.V) {
				defer wg.Done()
				one(q)
			}(hot[(i*readers+j)%len(hot)])
		}
		wg.Wait()
	}
	// Each vertex twice, so that its view has earned a protected slot
	// (core's viewFor) before the timed ops.
	for range 2 {
		for i := range hot {
			query(i)
		}
	}
	st, windows, touched = sacsearch.Stats{}, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := write(eng, rnd, i); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		query(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(st.OracleBuilds)/float64(b.N), "builds/op")
	b.ReportMetric(float64(st.OracleRepairs)/float64(b.N), "repairs/op")
	b.ReportMetric(float64(st.OracleRepairSpan)/float64(b.N), "span/op")
	b.ReportMetric(float64(windows)/float64(b.N), "windows/op")
	b.ReportMetric(float64(st.OracleReplayed)/float64(b.N), "replayed/op")
	b.ReportMetric(float64(touched)/float64(b.N), "touched/op")
}

// --- Figure 12(f-j): exact algorithms vs k ---------------------------------

// BenchmarkFig12Exact times Exact against Exact+ on queries whose candidate
// k-ĉore is small enough for the cubic enumeration (paper: Exact+ ≥4 orders
// of magnitude faster; here the gap is visible directly in ns/op).
func BenchmarkFig12Exact(b *testing.B) {
	f := exactWorkload(b)
	b.Run("Exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.queries[i%len(f.queries)]
			if _, err := f.searcher.Exact(q, benchK); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ExactPlus", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.queries[i%len(f.queries)]
			if _, err := f.searcher.ExactPlus(q, benchK, 1e-3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExactPlusParallel times one Exact+ query at GOMAXPROCS 1 and 2,
// which is the scan's worker count on an otherwise idle process: syn1 at
// 10 % scale, q = 599, k = 12, default εA, whose F1 (|F1|/op) is wide enough
// for the scan to fan out. The candidate view is warm after the first run,
// so each op is the AppAcc phase plus the scan. procs=2 over procs=1 is the
// number intra-query parallelism has to earn; on two CPUs it reads ~1.8x.
func BenchmarkExactPlusParallel(b *testing.B) {
	ds, err := sacsearch.LoadDataset("syn1", 0.1)
	if err != nil {
		b.Fatal(err)
	}
	query := sacsearch.Query{Algo: "exact+", Q: 599, K: 12}
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			s := sacsearch.NewSearcher(ds.Graph)
			var f1 int
			for i := 0; i < b.N; i++ {
				res, err := s.Search(context.Background(), query)
				if err != nil {
					b.Fatal(err)
				}
				f1 = res.Stats.F1Size
			}
			b.ReportMetric(float64(f1), "|F1|/op")
		})
	}
}

// --- Figure 12(k-o): scalability vs vertex percentage ----------------------

// BenchmarkFig12Scalability times AppFast(0.5) on random vertex subsets of
// growing size (paper: near-linear scaling for the approximation
// algorithms).
func BenchmarkFig12Scalability(b *testing.B) {
	f := fixture(b)
	for _, pct := range []int{20, 40, 60, 80, 100} {
		b.Run(fmt.Sprintf("pct=%d", pct), func(b *testing.B) {
			sub, err := dataset.SubgraphPercent(f.ds, pct, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			qs := dataset.QueryWorkload(sub.Graph, benchK, benchQueries, benchSeed)
			if len(qs) == 0 {
				b.Skip("subset has no queries with core ≥ 4")
			}
			s := sacsearch.NewSearcher(sub.Graph)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.AppFast(qs[i%len(qs)], benchK, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 13: dynamic spatial graph ---------------------------------------

// BenchmarkFig13Dynamic replays a synthetic check-in stream end to end
// (warm-up split, per-check-in SAC snapshots for the tracked movers, decay
// aggregation) and reports the mean CJS and CAO at η = 1 day.
func BenchmarkFig13Dynamic(b *testing.B) {
	f := fixture(b)
	ccfg := gen.DefaultCheckinConfig()
	ccfg.Days = 30
	checkins := gen.Checkins(f.ds.Graph, ccfg, benchSeed+100)
	movers := gen.SelectMovers(f.ds.Graph, checkins, 4, 5)
	if len(movers) == 0 {
		b.Skip("no movers in the bench stream")
	}
	var cjs, cao float64
	for i := 0; i < b.N; i++ {
		g := f.ds.Graph.Clone()
		s := sacsearch.NewSearcher(g)
		search := func(q sacsearch.V, k int) ([]sacsearch.V, sacsearch.Circle, error) {
			res, err := s.AppFast(q, k, 0.5)
			if err != nil {
				return nil, sacsearch.Circle{}, err
			}
			return res.Members, res.MCC, nil
		}
		timelines, err := sacsearch.ReplayWithEdges(context.Background(), g, checkins, nil, movers, ccfg.Days*0.25, benchK, search, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range sacsearch.Decay(timelines, []float64{1}) {
			cjs, cao = p.CJS, p.CAO
		}
	}
	b.ReportMetric(cjs, "cjs@1d")
	b.ReportMetric(cao, "cao@1d")
}

// --- Figure 14: effect of εA on Exact+ --------------------------------------

// BenchmarkFig14ExactPlusEps sweeps εA and reports the mean |F1| next to the
// timing (paper: |F1| grows with εA, run time has a local minimum). The
// sweep starts at 1e-3: on this workload anchor refinement already
// dominates there (the U-curve's left wall), and 1e-4 would take minutes
// per op.
func BenchmarkFig14ExactPlusEps(b *testing.B) {
	f := fixture(b)
	for _, epsA := range []float64{1e-3, 5e-3, 1e-2, 5e-2, 1e-1} {
		b.Run(fmt.Sprintf("epsA=%.0e", epsA), func(b *testing.B) {
			var f1Sum float64
			for i := 0; i < b.N; i++ {
				res, err := f.searcher.ExactPlus(f.query(i), benchK, epsA)
				if err != nil {
					b.Fatal(err)
				}
				f1Sum += float64(res.Stats.F1Size)
			}
			b.ReportMetric(f1Sum/float64(b.N), "F1-size")
		})
	}
}

// --- Ablation (DESIGN.md §7) ------------------------------------------------

// BenchmarkAblationRangeQuery compares the uniform-grid circle range query
// against a linear scan over all vertex locations.
func BenchmarkAblationRangeQuery(b *testing.B) {
	f := fixture(b)
	g := f.ds.Graph
	all := make([]sacsearch.V, g.NumVertices())
	for v := range all {
		all[v] = sacsearch.V(v)
	}
	var grid spatial.SubGrid
	grid.Build(g, all, 8)
	rng := rand.New(rand.NewSource(benchSeed))
	circles := make([]geom.Circle, 64)
	for i := range circles {
		circles[i] = geom.Circle{
			C: geom.Point{X: rng.Float64(), Y: rng.Float64()},
			R: 0.01 + 0.05*rng.Float64(),
		}
	}
	var dst []sacsearch.V
	b.Run("Grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = grid.InCircle(circles[i%len(circles)], dst[:0])
		}
	})
	b.Run("LinearScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := circles[i%len(circles)]
			dst = dst[:0]
			for v := 0; v < g.NumVertices(); v++ {
				if c.Contains(g.Loc(sacsearch.V(v))) {
					dst = append(dst, sacsearch.V(v))
				}
			}
		}
	})
}

// --- Harness smoke (exp registry) -------------------------------------------

// BenchmarkExpRegistry runs the cheapest registered experiment end to end so
// the harness itself is covered by `go test -bench`.
func BenchmarkExpRegistry(b *testing.B) {
	cfg := exp.DefaultConfig()
	cfg.Datasets = []string{benchDataset}
	cfg.Queries = 5
	for i := 0; i < b.N; i++ {
		if err := exp.Run("table5", cfg, discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
