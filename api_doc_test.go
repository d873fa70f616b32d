package sacsearch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeMatchesRegistry keeps the README's "API v1" reference honest
// against the algorithm registry: every registered algorithm name, every
// parameter name, every /v1 route and every error code the server can emit
// must appear in the documentation. The reference is written by hand but
// checked against the registry, so the two cannot drift apart silently.
func TestReadmeMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	idx := strings.Index(readme, "## API v1")
	if idx < 0 {
		t.Fatal("README has no \"API v1\" section")
	}
	section := readme[idx:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}

	for _, spec := range Algorithms() {
		if !strings.Contains(section, "`"+spec.Name+"`") {
			t.Errorf("API v1 section does not document algorithm %q", spec.Name)
		}
		for _, p := range spec.Params {
			if !strings.Contains(section, "`"+p.Name+"`") {
				t.Errorf("API v1 section does not document parameter %q of %s", p.Name, spec.Name)
			}
		}
	}

	for _, route := range []string{
		"/v1/health", "/v1/ready", "/v1/algorithms", "/v1/vertex/{id}",
		"/v1/query", "/v1/batch", "/v1/checkin", "/v1/edge",
		"/v1/shard/info", "/v1/shard/search", "/v1/shard/expand",
		"/v1/subscribe", "/v1/shard/watch",
		"/metrics",
	} {
		if !strings.Contains(section, route) {
			t.Errorf("API v1 section does not document route %s", route)
		}
	}

	// Every machine-readable error code, registry-side and server-side.
	codes := []string{
		"unknown_algorithm", "invalid_param", "missing_param",
		"invalid_query", "structure_mismatch", // core.QueryError codes
		"invalid_json", "body_too_large", "invalid_argument",
		"unknown_vertex", "no_community", "deadline_exceeded",
		"unavailable", "query_failed", // server codes
		"read_only", "stale_read", "not_ready", "internal", // replication + recovery codes
		"wrong_shard", "shard_unavailable", // sharded-topology codes
		"unknown_subscription", "subscription_limit", // standing-query codes
		"unknown_route", // no route takes the path or method
	}
	for _, code := range codes {
		if !strings.Contains(section, code) {
			t.Errorf("API v1 section does not document error code %q", code)
		}
	}

	for _, needle := range []string{
		"X-Request-Id", "sacsearch/client",
		"X-Trace-Span", "uptimeSeconds", "build",
	} {
		if !strings.Contains(section, needle) {
			t.Errorf("API v1 section missing %q", needle)
		}
	}
}

// TestFacadeRegistryExports sanity-checks the facade view of the registry.
func TestFacadeRegistryExports(t *testing.T) {
	if len(Algorithms()) != 6 {
		t.Fatalf("Algorithms() = %d entries, want 6", len(Algorithms()))
	}
	spec, ok := LookupAlgo("ExactPlus")
	if !ok || spec.Name != "exact+" {
		t.Fatalf("LookupAlgo alias = %v, %v", spec, ok)
	}
	if _, ok := LookupAlgo(DefaultAlgo); !ok {
		t.Fatal("DefaultAlgo not registered")
	}
	if v := Float(0.25); v == nil || *v != 0.25 {
		t.Fatalf("Float = %v", v)
	}
	if st, err := ParseStructure("ktruss"); err != nil || st != StructureKTruss {
		t.Fatalf("ParseStructure = %v, %v", st, err)
	}
}

// TestFacadeSurface keeps the facade the library a caller drives: every
// exported func and var declared in sacsearch.go must be named outside its
// own declaration — as sacsearch.N in a .go file under examples/ or cmd/,
// as `N`, `N( or sacsearch.N in README.md, or in this file. Type aliases
// and constants are exempt: they are reached through the funcs that return
// or take them. A re-export nothing drives is a second surface that only
// costs review and links its package into every binary that imports this
// one.
func TestFacadeSurface(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	used := map[string]bool{}
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			ast.Inspect(parse(path), func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sacsearch" {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ast.Inspect(parse("api_doc_test.go"), func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	})
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	inReadme := func(name string) bool {
		return regexp.MustCompile("`" + name + "[`(]|sacsearch\\." + name + `\b`).Match(raw)
	}

	exported := 0
	for _, decl := range parse("sacsearch.go").Decls {
		var names []*ast.Ident
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name)
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				names = append(names, spec.(*ast.ValueSpec).Names...)
			}
		}
		for _, id := range names {
			if !id.IsExported() {
				continue
			}
			exported++
			if !used[id.Name] && !inReadme(id.Name) {
				t.Errorf("sacsearch.%s is named by no example, command, README line or api_doc_test.go", id.Name)
			}
		}
	}
	if exported == 0 {
		t.Fatal("found no exported func or var in sacsearch.go")
	}
}
