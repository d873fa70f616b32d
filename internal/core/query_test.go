package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"sacsearch/internal/graph"
)

// TestQueryValidation table-drives the unified Query validation: every bad
// request must fail with a *QueryError carrying the right machine code and
// field, before any algorithm work happens.
func TestQueryValidation(t *testing.T) {
	s := NewSearcher(figure3())
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		q     Query
		code  string
		field string
	}{
		{"unknown algo", Query{Algo: "bogus", Q: 1, K: 2}, ErrCodeUnknownAlgorithm, "algo"},
		{"negative q", Query{Q: -1, K: 2}, ErrCodeInvalidQuery, "q"},
		{"q out of range", Query{Q: 10_000, K: 2}, ErrCodeInvalidQuery, "q"},
		{"k zero", Query{Q: 1, K: 0}, ErrCodeInvalidQuery, "k"},
		{"k negative", Query{Q: 1, K: -3}, ErrCodeInvalidQuery, "k"},
		{"NaN epsF", Query{Algo: "appfast", Q: 1, K: 2, EpsF: &nan}, ErrCodeInvalidParam, "epsF"},
		{"Inf epsF", Query{Algo: "appfast", Q: 1, K: 2, EpsF: &inf}, ErrCodeInvalidParam, "epsF"},
		{"negative epsF", Query{Algo: "appfast", Q: 1, K: 2, EpsF: Float(-0.1)}, ErrCodeInvalidParam, "epsF"},
		{"NaN epsA", Query{Algo: "appacc", Q: 1, K: 2, EpsA: &nan}, ErrCodeInvalidParam, "epsA"},
		{"epsA zero", Query{Algo: "appacc", Q: 1, K: 2, EpsA: Float(0)}, ErrCodeInvalidParam, "epsA"},
		{"epsA one", Query{Algo: "exact+", Q: 1, K: 2, EpsA: Float(1)}, ErrCodeInvalidParam, "epsA"},
		{"missing theta", Query{Algo: "theta", Q: 1, K: 2}, ErrCodeMissingParam, "theta"},
		{"theta zero", Query{Algo: "theta", Q: 1, K: 2, Theta: Float(0)}, ErrCodeInvalidParam, "theta"},
		{"Inf theta", Query{Algo: "theta", Q: 1, K: 2, Theta: &inf}, ErrCodeInvalidParam, "theta"},
		{"epsF on appinc", Query{Algo: "appinc", Q: 1, K: 2, EpsF: Float(0.5)}, ErrCodeInvalidParam, "epsF"},
		{"theta on appfast", Query{Algo: "appfast", Q: 1, K: 2, Theta: Float(0.1)}, ErrCodeInvalidParam, "theta"},
		{"bad structure", Query{Q: 1, K: 2, Structure: "kplex"}, ErrCodeStructureMismatch, "structure"},
		{"structure mismatch", Query{Q: 1, K: 2, Structure: "ktruss"}, ErrCodeStructureMismatch, "structure"},
		{"negative timeout", Query{Q: 1, K: 2, Timeout: -time.Second}, ErrCodeInvalidQuery, "timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Search(context.Background(), tc.q)
			var qe *QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("err = %v, want *QueryError", err)
			}
			if qe.Code != tc.code || qe.Field != tc.field {
				t.Fatalf("QueryError{Code: %q, Field: %q}, want {%q, %q} (reason: %s)",
					qe.Code, qe.Field, tc.code, tc.field, qe.Reason)
			}
			if err := s.ValidateQuery(tc.q); !errors.As(err, &qe) {
				t.Fatalf("ValidateQuery = %v, want *QueryError", err)
			}
		})
	}
}

// TestQueryDefaults pins the defaulting contract: empty algo runs AppFast,
// nil parameters take the registry defaults, and aliases resolve.
func TestQueryDefaults(t *testing.T) {
	s := NewSearcher(figure3())
	ctx := context.Background()

	def, err := s.Search(ctx, Query{Q: 1, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.AppFast(1, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !membersEqual(def.Members, want.Members...) || def.Delta != want.Delta {
		t.Fatalf("default Search = %v (δ %v), want AppFast(0.5) %v (δ %v)",
			def.Members, def.Delta, want.Members, want.Delta)
	}

	// Explicit zero is distinct from absent: AppFast(0) is the AppInc answer.
	zero, err := s.Search(ctx, Query{Algo: "appfast", Q: 1, K: 2, EpsF: Float(0)})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := s.AppInc(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Delta != inc.Delta {
		t.Fatalf("AppFast(0) δ = %v, want AppInc δ = %v", zero.Delta, inc.Delta)
	}

	// Aliases and case-insensitivity resolve to the same spec.
	for _, name := range []string{"exact+", "exactplus", "EXACT+", "ExactPlus"} {
		spec, ok := LookupAlgo(name)
		if !ok || spec.Name != "exact+" {
			t.Fatalf("LookupAlgo(%q) = %v, %v", name, spec, ok)
		}
	}
	if _, ok := LookupAlgo(""); !ok {
		t.Fatal("empty algo must resolve to the default")
	}

	// The accepted structure name matching the searcher's metric passes.
	if err := s.ValidateQuery(Query{Q: 1, K: 2, Structure: "kcore"}); err != nil {
		t.Fatalf("matching structure rejected: %v", err)
	}
}

// TestConveniencesAreSearch pins that the per-algorithm methods carry no
// validation and no defaults of their own: k = 0, θ = 0 and a NaN ε — all of
// which the methods used to let through or reject by different rules — fail
// through each of them with exactly the *QueryError Search returns, and an
// exact+ query with no epsA runs with the registry's default, the only place
// that default is written.
func TestConveniencesAreSearch(t *testing.T) {
	s := NewSearcher(figure3())
	ctx := context.Background()
	nan := math.NaN()
	cases := []struct {
		name string
		q    Query
		conv func() (*Result, error)
	}{
		{"exact k=0", Query{Algo: "exact", Q: vQ}, func() (*Result, error) { return s.Exact(vQ, 0) }},
		{"exact+ k=0", Query{Algo: "exact+", Q: vQ, EpsA: Float(0.5)}, func() (*Result, error) { return s.ExactPlus(vQ, 0, 0.5) }},
		{"appinc k=0", Query{Algo: "appinc", Q: vQ}, func() (*Result, error) { return s.AppInc(vQ, 0) }},
		{"appfast k=0", Query{Algo: "appfast", Q: vQ, EpsF: Float(0.5)}, func() (*Result, error) { return s.AppFast(vQ, 0, 0.5) }},
		{"appacc k=0", Query{Algo: "appacc", Q: vQ, EpsA: Float(0.5)}, func() (*Result, error) { return s.AppAcc(vQ, 0, 0.5) }},
		{"theta k=0", Query{Algo: "theta", Q: vQ, Theta: Float(1)}, func() (*Result, error) { return s.ThetaSAC(vQ, 0, 1) }},
		{"theta θ=0", Query{Algo: "theta", Q: vQ, K: 2, Theta: Float(0)}, func() (*Result, error) { return s.ThetaSAC(vQ, 2, 0) }},
		{"theta θ=NaN", Query{Algo: "theta", Q: vQ, K: 2, Theta: &nan}, func() (*Result, error) { return s.ThetaSAC(vQ, 2, nan) }},
		{"appfast εF=NaN", Query{Algo: "appfast", Q: vQ, K: 2, EpsF: &nan}, func() (*Result, error) { return s.AppFast(vQ, 2, nan) }},
		{"appacc εA=NaN", Query{Algo: "appacc", Q: vQ, K: 2, EpsA: &nan}, func() (*Result, error) { return s.AppAcc(vQ, 2, nan) }},
		{"exact+ εA=NaN", Query{Algo: "exact+", Q: vQ, K: 2, EpsA: &nan}, func() (*Result, error) { return s.ExactPlus(vQ, 2, nan) }},
	}
	for _, tc := range cases {
		var viaSearch, viaConv *QueryError
		if _, err := s.Search(ctx, tc.q); !errors.As(err, &viaSearch) {
			t.Fatalf("%s: Search err = %v, want *QueryError", tc.name, err)
		}
		if res, err := tc.conv(); res != nil || !errors.As(err, &viaConv) {
			t.Fatalf("%s: convenience returned (%v, %v), want *QueryError", tc.name, res, err)
		}
		if *viaSearch != *viaConv {
			t.Fatalf("%s: Search failed with %+v, the convenience with %+v", tc.name, *viaSearch, *viaConv)
		}
	}

	p, _ := mustLookup(t, "exact+").Param("epsA")
	// A fresh searcher each, so the cache counters agree too.
	absent, err := NewSearcher(figure3()).Search(ctx, Query{Algo: "exact+", Q: vQ, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := NewSearcher(figure3()).Search(ctx, Query{Algo: "exact+", Q: vQ, K: 2, EpsA: Float(p.Default)})
	if err != nil {
		t.Fatal(err)
	}
	absent.Stats.Elapsed, explicit.Stats.Elapsed = 0, 0
	// The work counters (anchors, |F1|, circles) depend on εA, so equal stats
	// say the same εA ran, not only that the same optimum was found.
	if !slices.Equal(absent.Members, explicit.Members) || absent.MCC != explicit.MCC ||
		absent.Delta != explicit.Delta || absent.Stats != explicit.Stats {
		t.Fatalf("exact+ without epsA = %+v, with the registry default %+v", absent, explicit)
	}
}

// TestQueryTimeout verifies a per-query timeout surfaces as ErrCanceled
// wrapping context.DeadlineExceeded.
func TestQueryTimeout(t *testing.T) {
	g := clusteredGraph(5, 6, 8, 30)
	s := NewSearcher(g)
	var canceledSeen bool
	for q := 0; q < g.NumVertices() && !canceledSeen; q++ {
		_, err := s.Search(context.Background(),
			Query{Algo: "exact", Q: graph.V(q), K: 3, Timeout: time.Nanosecond})
		switch {
		case err == nil, errors.Is(err, ErrNoCommunity):
			// Too fast to cancel — try the next vertex.
		case errors.Is(err, ErrCanceled):
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("ErrCanceled should wrap DeadlineExceeded, got %v", err)
			}
			canceledSeen = true
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if !canceledSeen {
		t.Skip("every exact query completed within 1ns; nothing to assert")
	}
}

// TestRegistryShape pins the registry as the single source of truth: six
// algorithms, canonical names, and schema fields the API layers rely on.
func TestRegistryShape(t *testing.T) {
	specs := Algorithms()
	if len(specs) != 6 {
		t.Fatalf("registry has %d algorithms, want 6", len(specs))
	}
	wantNames := []string{"appfast", "appinc", "appacc", "exact+", "exact", "theta"}
	for i, w := range wantNames {
		if specs[i].Name != w {
			t.Fatalf("registry[%d] = %q, want %q", i, specs[i].Name, w)
		}
		if specs[i].Doc == "" || specs[i].Ratio == "" {
			t.Fatalf("%s: empty doc or ratio", specs[i].Name)
		}
	}
	// Parameter schemas carry the defaults the server historically applied.
	if p, ok := mustLookup(t, "appfast").Param("epsF"); !ok || p.Default != 0.5 || p.Required {
		t.Fatalf("appfast epsF spec = %+v", p)
	}
	if p, ok := mustLookup(t, "appacc").Param("epsA"); !ok || p.Default != 0.5 {
		t.Fatalf("appacc epsA spec = %+v", p)
	}
	if p, ok := mustLookup(t, "exact+").Param("epsA"); !ok || p.Default != 1e-3 {
		t.Fatalf("exact+ epsA spec = %+v", p)
	}
	if p, ok := mustLookup(t, "theta").Param("theta"); !ok || !p.Required {
		t.Fatalf("theta param spec = %+v", p)
	}
	// Every registered parameter must be settable by name: a registry
	// addition that is not wired into Query.SetParam (and so would be
	// silently dropped by by-name binders like the sacquery flags) fails
	// here.
	for _, spec := range specs {
		for _, p := range spec.Params {
			var q Query
			if err := q.SetParam(p.Name, 0.5); err != nil {
				t.Fatalf("SetParam(%q) for %s: %v", p.Name, spec.Name, err)
			}
		}
	}
	if err := new(Query).SetParam("gamma", 1); err == nil {
		t.Fatal("SetParam accepted an unknown parameter name")
	}

	// Unknown-param errors mention the algorithm so API messages are useful.
	s := NewSearcher(figure3())
	err := s.ValidateQuery(Query{Algo: "exact", Q: 1, K: 2, EpsA: Float(0.5)})
	if err == nil || !strings.Contains(err.Error(), "exact") {
		t.Fatalf("unknown-param error = %v", err)
	}
}

func mustLookup(t *testing.T, name string) *AlgoSpec {
	t.Helper()
	spec, ok := LookupAlgo(name)
	if !ok {
		t.Fatalf("LookupAlgo(%q) missing", name)
	}
	return spec
}
