package core

import (
	"fmt"
	"math"
	"strings"
)

// The algorithm registry: the single source of truth for which SAC
// algorithms exist, what parameters each takes, how those parameters are
// validated and defaulted, and which body Search runs for a Query. The
// facade, the batch layer, the HTTP server's /v1/algorithms and request
// decoding, the sacquery CLI flags and the bench harness all derive from
// this table rather than hard-coding their own copies of the algorithm list.

// DefaultAlgo is the algorithm a Query with an empty Algo runs — AppFast,
// the fastest algorithm with a guarantee, matching the HTTP server's
// historical default.
const DefaultAlgo = "appfast"

// ParamSpec describes one named float parameter of an algorithm: its wire
// and CLI name, documentation, whether it is required, its default when
// absent, and the valid range. Min/Max with the *Excl flags describe an
// interval; an infinite Max means unbounded above.
type ParamSpec struct {
	Name     string
	Doc      string
	Required bool
	Default  float64 // meaningful only when !Required
	Min      float64
	Max      float64 // +Inf = unbounded
	MinExcl  bool
	MaxExcl  bool
}

// validate checks a provided value against the spec's range, rejecting
// non-finite values unconditionally.
func (p ParamSpec) validate(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return &QueryError{Code: ErrCodeInvalidParam, Field: p.Name,
			Reason: fmt.Sprintf("%s = %v is not finite", p.Name, v)}
	}
	if v < p.Min || (p.MinExcl && v == p.Min) || v > p.Max || (p.MaxExcl && v == p.Max) {
		lo, hi := "[", "]"
		if p.MinExcl {
			lo = "("
		}
		if p.MaxExcl || math.IsInf(p.Max, 1) {
			hi = ")"
		}
		max := "inf"
		if !math.IsInf(p.Max, 1) {
			max = fmt.Sprintf("%v", p.Max)
		}
		return &QueryError{Code: ErrCodeInvalidParam, Field: p.Name,
			Reason: fmt.Sprintf("%s = %v out of range %s%v, %s%s", p.Name, v, lo, p.Min, max, hi)}
	}
	return nil
}

// resolvedParams is the validated, defaulted parameter set Search hands to
// an algorithm runner. A plain struct (not a map) so the per-query hot path
// allocates nothing for dispatch.
type resolvedParams struct {
	epsF, epsA, theta float64
}

// AlgoSpec describes one registered algorithm. Lookup is by Name or any of
// Aliases, case-insensitively.
type AlgoSpec struct {
	// Name is the canonical wire name ("appfast", "exact+", ...).
	Name string
	// Aliases are accepted alternative spellings.
	Aliases []string
	// Ratio is the approximation ratio as a human-readable expression
	// ("1", "2", "2+epsF", ...); "-" for θ-SAC, which answers a different
	// problem.
	Ratio string
	// Doc is a one-line description.
	Doc string
	// Params are the algorithm-specific parameters (q and k are universal).
	Params []ParamSpec

	// body is what Search's lifecycle runs; circleOnly marks θ-SAC, which
	// gathers from O(q, θ) instead of the candidate set (see Searcher.run).
	body       algoBody
	circleOnly bool
}

// Param returns the spec's parameter named name, if any.
func (a *AlgoSpec) Param(name string) (ParamSpec, bool) {
	for _, p := range a.Params {
		if p.Name == name {
			return p, true
		}
	}
	return ParamSpec{}, false
}

// registry lists the six SAC algorithms in presentation order (fastest
// approximation first, matching /v1/algorithms and the paper's Table 6).
var registry = []*AlgoSpec{
	{
		Name:  "appfast",
		Ratio: "2+epsF",
		Doc:   "binary-search approximation (Algorithm 3); the serving default",
		Params: []ParamSpec{{
			Name: "epsF", Doc: "early-stopping slack; 0 converges to the AppInc answer",
			Default: 0.5, Min: 0, Max: math.Inf(1),
		}},
		body: (*Searcher).appFast,
	},
	{
		Name:  "appinc",
		Ratio: "2",
		Doc:   "parameter-free incremental 2-approximation (Algorithm 2)",
		body:  (*Searcher).appInc,
	},
	{
		Name:  "appacc",
		Ratio: "1+epsA",
		Doc:   "anchor-refining (1+epsA)-approximation (Algorithm 4)",
		Params: []ParamSpec{{
			Name: "epsA", Doc: "approximation slack",
			Default: 0.5, Min: 0, Max: 1, MinExcl: true, MaxExcl: true,
		}},
		body: (*Searcher).appAccBody,
	},
	{
		Name:    "exact+",
		Aliases: []string{"exactplus"},
		Ratio:   "1",
		Doc:     "exact search via AppAcc-pruned circle enumeration (Algorithm 5)",
		// The paper runs Exact+ at εA = 10⁻⁴ in the efficiency experiments
		// (Figure 12); our unit-square datasets are smaller, so 10⁻³ yields
		// the same |F1| regime at lower anchor cost.
		Params: []ParamSpec{{
			Name: "epsA", Doc: "slack of the internal AppAcc phase (smaller = tighter pruning)",
			Default: 1e-3, Min: 0, Max: 1, MinExcl: true, MaxExcl: true,
		}},
		body: (*Searcher).exactPlus,
	},
	{
		Name:  "exact",
		Ratio: "1",
		Doc:   "naive exact enumeration (Algorithm 1); correctness baseline",
		body:  (*Searcher).exact,
	},
	{
		Name:    "theta",
		Aliases: []string{"thetasac", "theta-sac"},
		Ratio:   "-",
		Doc:     "fixed-radius θ-SAC (Section 3): the k-ĉore inside O(q, θ)",
		Params: []ParamSpec{{
			Name: "theta", Doc: "catchment circle radius", Required: true,
			Min: 0, Max: math.Inf(1), MinExcl: true,
		}},
		body:       (*Searcher).thetaSAC,
		circleOnly: true,
	},
}

// algoIndex maps every lowercase name and alias to its spec.
var algoIndex = func() map[string]*AlgoSpec {
	idx := make(map[string]*AlgoSpec)
	for _, spec := range registry {
		idx[strings.ToLower(spec.Name)] = spec
		for _, a := range spec.Aliases {
			idx[strings.ToLower(a)] = spec
		}
	}
	return idx
}()

// Algorithms returns the registered algorithm specs in presentation order.
// The slice is shared; callers must not mutate it.
func Algorithms() []*AlgoSpec { return registry }

// LookupAlgo resolves an algorithm name or alias (case-insensitive). The
// empty name resolves to DefaultAlgo.
func LookupAlgo(name string) (*AlgoSpec, bool) {
	if name == "" {
		name = DefaultAlgo
	}
	spec, ok := algoIndex[strings.ToLower(name)]
	return spec, ok
}
