package core

import (
	"context"
	"fmt"
	"time"

	"sacsearch/internal/graph"
)

// Query is the SAC request: one value expresses everything the six
// algorithms accept, so every layer — facade, batch, HTTP, CLI, bench —
// speaks a single request shape. Zero values mean "default":
// an empty Algo runs DefaultAlgo, nil parameter pointers take the
// registry's per-algorithm defaults, an empty Structure accepts whatever
// metric the searcher was built with, and a zero Timeout applies no
// per-query deadline beyond the caller's context.
//
// The parameter fields are pointers so that presence is expressible:
// AppFast with an explicit εF = 0 (which degenerates to the AppInc answer)
// is a different request from AppFast with εF unset (which defaults to
// 0.5). Build pointers with Float.
type Query struct {
	// Algo names the algorithm (registry name or alias, case-insensitive);
	// empty runs DefaultAlgo.
	Algo string
	// Q is the query vertex.
	Q graph.V
	// K is the degree threshold (≥ 1).
	K int
	// EpsF is AppFast's εF (nil = default 0.5).
	EpsF *float64
	// EpsA is AppAcc's / Exact+'s εA (nil = default 0.5 / 1e-3).
	EpsA *float64
	// Theta is θ-SAC's catchment radius (required when Algo is "theta").
	Theta *float64
	// Structure optionally names the structure-cohesiveness metric the
	// query expects ("kcore", "ktruss", "kclique"); a searcher prepared
	// with a different metric rejects the query rather than silently
	// answering under the wrong one.
	Structure string
	// Timeout, when positive, bounds this query's execution on top of the
	// caller's context.
	Timeout time.Duration
}

// Float returns a pointer to v — the convenient way to set a Query's
// optional parameter fields inline: Query{Algo: "appfast", EpsF: Float(0)}.
func Float(v float64) *float64 { return &v }

// SetParam sets the parameter field named by its wire/CLI name — the
// programmatic counterpart of the typed EpsF/EpsA/Theta fields, for callers
// (like registry-generated CLI flags) that bind parameters by name. The
// name list here is the same one resolveParams binds, and an unknown name
// is an error, so a parameter added to the registry cannot be silently
// dropped by a by-name caller: TestRegistryShape asserts SetParam accepts
// every registered ParamSpec.
func (q *Query) SetParam(name string, v float64) error {
	switch name {
	case "epsF":
		q.EpsF = &v
	case "epsA":
		q.EpsA = &v
	case "theta":
		q.Theta = &v
	default:
		return fmt.Errorf("core: query has no parameter field %q", name)
	}
	return nil
}

// Machine-readable QueryError codes. The HTTP layer forwards them verbatim
// in its error envelope.
const (
	// ErrCodeUnknownAlgorithm: Query.Algo names no registered algorithm.
	ErrCodeUnknownAlgorithm = "unknown_algorithm"
	// ErrCodeInvalidParam: a parameter is non-finite, out of range, or not
	// accepted by the chosen algorithm.
	ErrCodeInvalidParam = "invalid_param"
	// ErrCodeMissingParam: a required parameter (θ-SAC's theta) is absent.
	ErrCodeMissingParam = "missing_param"
	// ErrCodeInvalidQuery: q or k is out of range.
	ErrCodeInvalidQuery = "invalid_query"
	// ErrCodeStructureMismatch: the query names a structure metric the
	// searcher was not built with.
	ErrCodeStructureMismatch = "structure_mismatch"
)

// QueryError reports why a Query failed validation, with a machine-readable
// Code (one of the ErrCode constants) and the offending Field.
type QueryError struct {
	Code   string
	Field  string
	Reason string
}

func (e *QueryError) Error() string { return "core: invalid query: " + e.Reason }

// ParseStructure resolves a structure-metric name. It accepts the compact
// spellings the CLI and wire use ("kcore") and the hyphenated display forms
// ("k-core").
func ParseStructure(name string) (Structure, error) {
	switch name {
	case "kcore", "k-core":
		return StructureKCore, nil
	case "ktruss", "k-truss":
		return StructureKTruss, nil
	case "kclique", "k-clique":
		return StructureKClique, nil
	default:
		return 0, fmt.Errorf("core: unknown structure metric %q (want kcore, ktruss or kclique)", name)
	}
}

// Structure returns the structure-cohesiveness metric the searcher was
// prepared with.
func (s *Searcher) Structure() Structure { return s.structure }

// ValidateQuery reports whether q is a well-formed request over an n-vertex
// graph served under structure metric st — Searcher.ValidateQuery for a
// caller that holds no searcher (the shard router validates against its
// shard map), with the same check order and messages.
func ValidateQuery(q Query, n int, st Structure) error {
	_, _, err := resolveQuery(q, n, st)
	return err
}

// Resolved is a query as the registry resolves it: the canonical algorithm
// name, q, k, every parameter the algorithm takes with its default applied
// (zero for one it does not take) and the metric it runs under. Two queries
// that resolve alike ask one graph state the same question — an alias and
// its canonical name, an omitted parameter and its default, a timeout or
// none — so a Resolved is the key of an answer (it is comparable).
type Resolved struct {
	Algo              string
	Q                 graph.V
	K                 int
	EpsF, EpsA, Theta float64
	Structure         Structure
}

// Resolve validates q over an n-vertex graph served under st, as
// ValidateQuery does, and returns it resolved.
func Resolve(q Query, n int, st Structure) (Resolved, error) {
	_, key, err := resolveQuery(q, n, st)
	return key, err
}

// resolveQuery validates q over an n-vertex graph served under structure and
// returns the algorithm's spec and q resolved.
func resolveQuery(q Query, n int, structure Structure) (*AlgoSpec, Resolved, error) {
	var p Resolved
	spec, ok := LookupAlgo(q.Algo)
	if !ok {
		return nil, p, &QueryError{Code: ErrCodeUnknownAlgorithm, Field: "algo",
			Reason: fmt.Sprintf("unknown algorithm %q", q.Algo)}
	}
	if q.Structure != "" {
		st, err := ParseStructure(q.Structure)
		if err != nil {
			return nil, p, &QueryError{Code: ErrCodeStructureMismatch, Field: "structure",
				Reason: fmt.Sprintf("unknown structure metric %q", q.Structure)}
		}
		if st != structure {
			return nil, p, &QueryError{Code: ErrCodeStructureMismatch, Field: "structure",
				Reason: fmt.Sprintf("searcher serves the %v metric, query wants %v", structure, st)}
		}
	}
	if q.Q < 0 || int(q.Q) >= n {
		return nil, p, &QueryError{Code: ErrCodeInvalidQuery, Field: "q",
			Reason: fmt.Sprintf("query vertex %d out of range [0,%d)", q.Q, n)}
	}
	if q.K < 1 {
		return nil, p, &QueryError{Code: ErrCodeInvalidQuery, Field: "k",
			Reason: fmt.Sprintf("k = %d must be ≥ 1", q.K)}
	}
	if q.Timeout < 0 {
		return nil, p, &QueryError{Code: ErrCodeInvalidQuery, Field: "timeout",
			Reason: fmt.Sprintf("timeout %v must be non-negative", q.Timeout)}
	}
	p, err := resolveParams(spec, q)
	if err != nil {
		return nil, p, err
	}
	p.Structure = structure
	return spec, p, nil
}

// resolveParams binds each provided parameter to the spec's schema,
// applying defaults and range checks, and rejects parameters the algorithm
// does not take so a typo'd request fails loudly instead of running with a
// silently ignored knob. It fills everything of the Resolved but its
// Structure.
func resolveParams(spec *AlgoSpec, q Query) (Resolved, error) {
	// The values are bound by index, not through pointers to the result: a
	// pointer into it would travel with the names into an error and move the
	// result to the heap on every call.
	bindings := [...]struct {
		name string
		ptr  *float64
	}{{"epsF", q.EpsF}, {"epsA", q.EpsA}, {"theta", q.Theta}}
	var vals [len(bindings)]float64
	for i, b := range bindings {
		ps, accepts := spec.Param(b.name)
		if !accepts {
			if b.ptr != nil {
				return Resolved{}, &QueryError{Code: ErrCodeInvalidParam, Field: b.name,
					Reason: fmt.Sprintf("%s is not a parameter of %s", b.name, spec.Name)}
			}
			continue
		}
		if b.ptr == nil {
			if ps.Required {
				return Resolved{}, &QueryError{Code: ErrCodeMissingParam, Field: b.name,
					Reason: fmt.Sprintf("%s requires parameter %s", spec.Name, b.name)}
			}
			vals[i] = ps.Default
			continue
		}
		if err := ps.validate(*b.ptr); err != nil {
			return Resolved{}, err
		}
		vals[i] = *b.ptr
	}
	return Resolved{Algo: spec.Name, Q: q.Q, K: q.K, EpsF: vals[0], EpsA: vals[1], Theta: vals[2]}, nil
}

// ValidateParams checks a query's algorithm name and parameters against the
// registry without a searcher — the graph-independent half of validation
// (vertex range, k and structure are the searcher's half). It returns the
// resolved spec so callers learn the canonical algorithm name. The batch
// and HTTP layers use it to fail a whole request before touching workers.
func ValidateParams(q Query) (*AlgoSpec, error) {
	spec, ok := LookupAlgo(q.Algo)
	if !ok {
		return nil, &QueryError{Code: ErrCodeUnknownAlgorithm, Field: "algo",
			Reason: fmt.Sprintf("unknown algorithm %q", q.Algo)}
	}
	if _, err := resolveParams(spec, q); err != nil {
		return nil, err
	}
	return spec, nil
}

// ValidateQuery reports whether q is a well-formed request for this
// searcher — same checks as Search, without running anything.
func (s *Searcher) ValidateQuery(q Query) error {
	_, _, err := resolveQuery(q, s.g.NumVertices(), s.structure)
	return err
}

// Search is the one entry point every query takes: it validates and
// defaults q through the algorithm registry — the only validation, the only
// set of defaults — and runs the body the registry names through the query
// lifecycle (run). Invalid queries fail with a *QueryError before any work
// happens. A positive q.Timeout bounds the query with its own deadline on
// top of ctx; cancellation surfaces as ErrCanceled. The per-algorithm methods
// (Exact, AppFast, ...) are conveniences that build a Query and call Search
// with a background context. A repeat on an unchanged state is answered
// from the answer the store kept (answers.go), with this search's stats.
func (s *Searcher) Search(ctx context.Context, q Query) (*Result, error) {
	spec, key, err := resolveQuery(q, s.g.NumVertices(), s.structure)
	if err != nil {
		return nil, err
	}
	if q.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.Timeout)
		defer cancel()
	}
	a, err := s.run(ctx, key, spec.body, spec.circleOnly)
	if err != nil {
		return nil, err
	}
	res := a.Result
	res.Stats = s.stats
	return &res, nil
}
