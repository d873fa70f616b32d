// Package telemetry is the zero-dependency observability kit for the
// serving stack: a metrics registry (counters, gauges, fixed-bucket
// histograms, with labeled variants) rendered in the Prometheus text
// exposition format, and lightweight trace spans carried on
// context.Context (span.go).
//
// Design constraints, in order:
//
//   - Hot-path observations must be a few atomic operations — queries run
//     in microseconds, so a mutex per Observe would show up in profiles.
//   - A nil *Registry must be safe everywhere: every constructor on a nil
//     registry returns a nil instrument, and every method on a nil
//     instrument is a no-op. Packages take an optional registry and
//     instrument unconditionally; the overhead benchmark compares the two.
//   - Registration is get-or-create: asking for the same family twice
//     returns the same instrument, so components that restart (a replica
//     engine re-sync, a test booting two servers in one process) do not
//     collide. GaugeFunc callbacks are last-wins for the same reason.
//
// Metric names follow Prometheus conventions: a sac_ prefix, snake_case,
// base units (seconds, bytes), _total suffix on counters.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds in seconds, spanning
// cached sub-millisecond queries up to multi-second assembled scatter-gather.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Registry holds metric families and renders them as Prometheus text. The
// zero value is not useful; use NewRegistry. A nil *Registry is a valid
// no-op sink.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric family: a fixed type and help string plus one
// child instrument per label-value combination.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string

	mu       sync.RWMutex
	children map[string]renderable // key: label values joined with \xff
	order    []string              // insertion order of child keys, for stable output
}

type renderable interface {
	// render writes the family's sample lines (not HELP/TYPE) for this
	// child, with labelStr already formatted ("" or `{k="v",...}`).
	render(w io.Writer, name, labelStr string)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// getFamily returns the family, creating it if absent. An existing family
// is reused as-is: callers registering the same name twice get the same
// instruments back (re-registration with a conflicting type would be a
// programming error; the first registration wins, matching get-or-create).
func (r *Registry) getFamily(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		children: make(map[string]renderable)}
	r.families[name] = f
	return f
}

// child returns the instrument for the given label values, creating it via
// mk if absent.
func (f *family) child(vals []string, mk func() renderable) renderable {
	key := strings.Join(vals, "\xff")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = mk()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// replaceChild installs the instrument for the given label values,
// overwriting any existing one (GaugeFunc is last-wins so a restarted
// component's closure reads the live object, not a dead one).
func (f *family) replaceChild(vals []string, c renderable) {
	key := strings.Join(vals, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.children[key]; !ok {
		f.order = append(f.order, key)
	}
	f.children[key] = c
}

// --- counters ---------------------------------------------------------------

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored — counters only go up).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) render(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelStr, c.v.Load())
}

// Counter returns the unlabeled counter family's single instrument.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, "counter", nil)
	return f.child(nil, func() renderable { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels; call With to get a child.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per declared
// label, in order).
func (v *CounterVec) With(vals ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(vals, func() renderable { return &Counter{} }).(*Counter)
}

// CounterVec returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.getFamily(name, help, "counter", labels)}
}

// counterFunc renders a callback as a counter sample.
type counterFunc struct{ fn func() uint64 }

func (c counterFunc) render(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labelStr, c.fn())
}

// CounterFunc registers a callback-backed counter: the callback is invoked
// at scrape time, for sources that already maintain their own monotonic
// count (WAL last seq, engine applied events). Last registration wins.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	f := r.getFamily(name, help, "counter", nil)
	f.replaceChild(nil, counterFunc{fn})
}

// --- gauges -----------------------------------------------------------------

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (CAS loop; use for +1/-1 inflight tracking).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) render(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labelStr, formatFloat(g.Value()))
}

// Gauge returns the unlabeled gauge family's single instrument.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, "gauge", nil)
	return f.child(nil, func() renderable { return &Gauge{} }).(*Gauge)
}

// gaugeFunc renders a callback as a gauge sample.
type gaugeFunc struct{ fn func() float64 }

func (g gaugeFunc) render(w io.Writer, name, labelStr string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labelStr, formatFloat(g.fn()))
}

// GaugeFunc registers a callback-backed gauge, invoked at scrape time.
// Last registration wins, so a component that restarts (replica promotion
// swapping engines) re-registers and the scrape reads the live object.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.getFamily(name, help, "gauge", nil)
	f.replaceChild(nil, gaugeFunc{fn})
}

// --- histograms -------------------------------------------------------------

// Histogram counts observations into fixed buckets. Per-bucket counts are
// stored non-cumulatively (each Observe touches exactly one bucket slot)
// and summed cumulatively at render time, so the hot path is one binary
// search plus two atomic adds and one CAS loop for the sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; last slot is +Inf overflow
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; sort.SearchFloat64s finds the
	// insertion point for v, which is exactly that index when bounds are
	// treated as inclusive upper edges (le semantics).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

func (h *Histogram) render(w io.Writer, name, labelStr string) {
	// Rebuild the label string with le appended: `{a="b"}` -> `{a="b",le="x"}`.
	prefix, suffix := "{", "}"
	if labelStr != "" {
		prefix = labelStr[:len(labelStr)-1] + ","
		suffix = "}"
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%sle=\"%s\"%s %d\n", name, prefix, formatFloat(b), suffix, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"%s %d\n", name, prefix, suffix, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelStr, formatFloat(math.Float64frombits(h.sum.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelStr, h.count.Load())
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Histogram returns the unlabeled histogram family's single instrument.
// A nil or empty buckets slice uses DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, "histogram", nil)
	return f.child(nil, func() renderable { return newHistogram(buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(vals, func() renderable { return newHistogram(v.buckets) }).(*Histogram)
}

// HistogramVec returns a labeled histogram family. A nil or empty buckets
// slice uses DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.getFamily(name, help, "histogram", labels), buckets: buckets}
}

// --- rendering --------------------------------------------------------------

// formatFloat renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// escapeHelp escapes a HELP string per the text format: backslash and
// newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelString formats `{k1="v1",k2="v2"}` ("" when no labels).
func labelString(names, vals []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(vals) {
			v = vals[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders every family in the Prometheus text exposition format
// (version 0.0.4), families sorted by name, children in registration order.
func (r *Registry) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	for _, f := range fams {
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		children := make([]renderable, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.RUnlock()
		if len(children) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for i, c := range children {
			var vals []string
			if keys[i] != "" {
				vals = strings.Split(keys[i], "\xff")
			}
			c.render(w, f.name, labelString(f.labels, vals))
		}
	}
}

// Handler returns an http.Handler serving WriteText with the standard
// text-format content type, for mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
