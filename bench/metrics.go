package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric. The gated end-to-end ones and the per-layer
// ones are exactly the lists in BENCHMARK.json (a test holds the two
// together). The ungated end-to-end ones are printed, written to the result
// file and compared by -compare all the same, but the driver does not gate
// them: it wants every gated metric from every workload, and most of these
// exist on one workload only.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// Every gated bound is the widest the driver allows: the reference sandbox is
// a two-CPU slice of a shared host that runs a fifth slower for a minute or
// two at a time, whatever the program does, and a bound inside that noise
// would reject changes at random. README.md has the measured spreads.
var gatedE2E = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var ungatedE2E = []metricDef{
	// The plain figures of the whole window, beside the gated ones that are
	// taken over its fastest rounds.
	{"window_ops_per_s", "1/s", "higher", 0.25},
	{"window_query_p50_ms", "ms", "lower", 0.25},
	// Demoted from the gated list, not widened: between runs of the same
	// code query_p95_ms spreads up to 0.17 (single_cold) and cpu_ms_per_op up
	// to 0.15 (single_hot, single_cold) — too little margin under the widest
	// bound. The traced run reports both in the per-layer list instead.
	{"query_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"write_p95_ms", "ms", "lower", 0.25},
	{"delta_p50_ms", "ms", "lower", 0.25},
	{"certified_p50_ms", "ms", "lower", 0.25},
	{"assembled_p50_ms", "ms", "lower", 0.25},
	{"fail_share", "ratio", "lower", 0.001}, // absolute, not relative
}

// value is one measured number with its unit and, for timings, the number
// of samples behind it.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type values map[string]value

func (vs values) names() []string {
	out := make([]string, 0, len(vs))
	for n := range vs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (vs values) print(w io.Writer, indent string) {
	for _, n := range vs.names() {
		v := vs[n]
		if v.Samples > 0 {
			fmt.Fprintf(w, "%s%-44s %14.6g %-6s n=%d\n", indent, n, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Fprintf(w, "%s%-44s %14.6g %s\n", indent, n, v.Value, v.Unit)
		}
	}
}

// workloadReport is one workload's end-to-end outcome.
type workloadReport struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checked   int      `json:"checked"` // answers recomputed by the reference searcher
	Metrics   values   `json:"metrics"`
	Info      values   `json:"info"` // counters read beside the run; not compared
	Problems  []string `json:"problems,omitempty"`
}

// The gated rate and latency are taken over rounds. A round is roundOps
// consecutive operations of one connection — a whole number of the mix's
// blocks, so every round of a workload holds the same work — and gives one
// rate (its operations over its duration, times the connections) and one
// median query latency. The run reports the mean of the fastest tenth of its
// rounds. The host's interference only ever slows a round down and comes in
// episodes of seconds to minutes, so the window's plain mean or median says
// mostly how many of its seconds were disturbed (on the same code it spreads
// 0.13–0.25 from run to run, the fastest tenth about half of that); a change
// to the program moves every round, the fastest ones too. What the fastest
// tenth cannot see is a change in how often rounds are slow — more
// collections, more cold pool clones: window_ops_per_s, window_query_p50_ms
// and query_p95_ms are printed beside it for that.
const (
	fastShare = 0.1
	minRounds = 5
)

// rounds returns the rate and the median query latency of every round that
// lies wholly inside the window.
func (rr *runResult) rounds() (rates, p50s []float64) {
	n := roundOps[rr.Workload]
	perConn := map[int][]*opRecord{}
	for i := range rr.records {
		if r := &rr.records[i]; r.conn >= 0 {
			perConn[r.conn] = append(perConn[r.conn], r)
		}
	}
	for _, log := range perConn {
		for ; len(log) >= n; log = log[n:] {
			first, last := log[0], log[n-1]
			if first.start.Before(rr.t0) || !last.end.Before(rr.t1) {
				continue
			}
			var lat []float64
			for _, r := range log[:n] {
				if r.op.Kind == opQuery && r.err == nil {
					lat = append(lat, r.latencyMs())
				}
			}
			rates = append(rates, float64(n*len(perConn))/last.end.Sub(first.start).Seconds())
			p50s = append(p50s, median(lat))
		}
	}
	return rates, p50s
}

// fastest is the mean of the fastest fastShare of xs (at least one): the
// highest when higher is set, else the lowest.
func fastest(xs []float64, higher bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Round(fastShare * float64(len(s))))
	if k < 1 {
		k = 1
	}
	if higher {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	return mean(s)
}

// report derives the end-to-end metrics of a verified run. Everything comes
// from the measured window; a metric whose class has no sample on this
// workload is absent, not zero.
func report(rr *runResult, vd *verdict) *workloadReport {
	lat := map[string][]float64{}
	var coreMicros, queryMs float64
	ops, failed := 0, 0
	for i := range rr.records {
		r := &rr.records[i]
		if r.err != nil {
			failed++
		}
		if !rr.inWindow(r) || r.conn < 0 {
			continue
		}
		ops++
		if r.err != nil {
			continue
		}
		ms := r.latencyMs()
		lat[r.op.class()] = append(lat[r.op.class()], ms)
		switch r.op.Kind {
		case opQuery:
			if r.op.Class != "" {
				lat[r.op.Class] = append(lat[r.op.Class], ms)
			}
			coreMicros += float64(r.coreMicros)
			queryMs += ms
		case opTargeted:
			lat["delta"] = append(lat["delta"], float64(r.deltaAt.Sub(r.start))/1e6)
		}
	}
	lat["write"] = append(append([]float64(nil), lat["checkin"]...), lat["edge"]...)

	rep := &workloadReport{
		Attempted: len(rr.records),
		Failed:    failed + vd.wrong,
		Checked:   vd.checked,
		Metrics:   values{},
		Info:      values{},
		Problems:  vd.complaints,
	}
	for i := range rr.records {
		if err := rr.records[i].err; err != nil && len(rep.Problems) < 10 {
			rep.Problems = append(rep.Problems, err.Error())
		}
	}
	m := rep.Metrics
	rates, p50s := rr.rounds()
	if len(rates) < minRounds {
		rep.Problems = append(rep.Problems, fmt.Sprintf("the window holds %d whole rounds of %d operations, %d needed: ops_per_s and query_p50_ms are missing",
			len(rates), roundOps[rr.Workload], minRounds))
		rep.Failed++
	} else {
		m["ops_per_s"] = value{fastest(rates, true), "1/s", len(rates)}
		m["query_p50_ms"] = value{fastest(p50s, false), "ms", len(p50s)}
	}
	m["window_ops_per_s"] = value{float64(ops) / rr.WindowS, "1/s", ops}
	timing := func(name, class string, p float64) {
		if xs := lat[class]; len(xs) > 0 {
			m[name] = value{percentile(xs, p), "ms", len(xs)}
		}
	}
	timing("window_query_p50_ms", "query", 50)
	timing("query_p95_ms", "query", 95)
	timing("write_p50_ms", "write", 50)
	timing("write_p95_ms", "write", 95)
	timing("delta_p50_ms", "delta", 50)
	timing("certified_p50_ms", "certified", 50)
	timing("assembled_p50_ms", "assembled", 50)
	m["cpu_ms_per_op"] = value{rr.ServerCPUs * 1000 / float64(ops), "ms", 0}
	m["rss_peak_mb"] = value{rr.RSSPeakMB, "MB", 0}
	m["fail_share"] = value{float64(rep.Failed) / float64(rep.Attempted), "ratio", 0}
	m["setup_s"] = value{median(rr.SetupS), "s", len(rr.SetupS)}

	info := rep.Info
	info["core.time_share"] = value{coreMicros / 1000 / queryMs, "ratio", len(lat["query"])}
	info["loadgen.cpu_share"] = value{rr.LoadgenCPUs / rr.WindowS, "cores", 0}
	info["snapshot.pool_clones"] = value{rr.PoolClones, "count", 0}
	if searches := rr.Counters.sum("sac_query_duration_seconds_count", ""); searches > 0 {
		info["core.cache_hit_ratio"] = value{rr.Counters.sum("sac_query_cache_hits_total", "") / searches, "ratio", int(searches)}
	}
	if p := highestSupported(len(lat["query"])); p < 95 {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("only %d query samples: query_p95_ms has fewer than ten samples beyond it", len(lat["query"])))
	}
	if rr.Workload == wlRouted {
		info["routed.certified_vertices"] = value{float64(rr.Certified), "count", 0}
		info["routed.assembled_vertices"] = value{float64(rr.Assembled), "count", 0}
	}
	for n, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s is not a number", n))
			rep.Failed++
			delete(m, n)
		}
	}
	return rep
}
