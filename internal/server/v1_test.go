package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/graph"
	"sacsearch/internal/wire"
)

// TestV1AliasesAPI pins that /v1 is the only HTTP surface: every read route
// answers under /v1 without a Deprecation header, and the same route under
// the unversioned prefix that once aliased it is a 404 like any unknown path.
func TestV1AliasesAPI(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, route := range []string{"/v1/health", "/v1/algorithms", "/v1/vertex/1"} {
		resp := getJSON(t, ts.URL+route, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", route, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Fatalf("%s response carries a Deprecation header", route)
		}
		legacy := strings.Replace(route, "/v1", "/api", 1)
		if resp := getJSON(t, ts.URL+legacy, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %d, want 404", legacy, resp.StatusCode)
		}
	}
}

// TestErrorEnvelope drives every non-2xx path of the API and asserts the
// structured envelope: a human message, a machine code, and the request id
// matching the X-Request-Id response header.
func TestErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t)
	post := func(route, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(route string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name   string
		do     func() *http.Response
		status int
		code   string
	}{
		{"malformed JSON", func() *http.Response { return post("/v1/query", "{nope") },
			http.StatusBadRequest, wire.CodeInvalidJSON},
		{"unknown algo", func() *http.Response { return post("/v1/query", `{"q":1,"k":4,"algo":"bogus"}`) },
			http.StatusBadRequest, core.ErrCodeUnknownAlgorithm},
		{"k below 1", func() *http.Response { return post("/v1/query", `{"q":1,"k":0}`) },
			http.StatusBadRequest, core.ErrCodeInvalidQuery},
		{"param not accepted", func() *http.Response { return post("/v1/query", `{"q":1,"k":4,"algo":"appinc","epsF":0.5}`) },
			http.StatusBadRequest, core.ErrCodeInvalidParam},
		{"missing theta", func() *http.Response { return post("/v1/query", `{"q":1,"k":4,"algo":"theta"}`) },
			http.StatusBadRequest, core.ErrCodeMissingParam},
		{"structure mismatch", func() *http.Response { return post("/v1/query", `{"q":1,"k":4,"structure":"ktruss"}`) },
			http.StatusBadRequest, core.ErrCodeStructureMismatch},
		{"no community", func() *http.Response { return post("/v1/query", `{"q":1,"k":40}`) },
			http.StatusNotFound, wire.CodeNoCommunity},
		{"empty batch", func() *http.Response { return post("/v1/batch", `{"queries":[]}`) },
			http.StatusBadRequest, core.ErrCodeInvalidQuery},
		{"batch bad epsA", func() *http.Response {
			return post("/v1/batch", `{"queries":[{"q":1,"k":4}],"algo":"appacc","epsA":7}`)
		},
			http.StatusBadRequest, core.ErrCodeInvalidParam},
		{"batch structure mismatch", func() *http.Response {
			return post("/v1/batch", `{"queries":[{"q":1,"k":4}],"structure":"ktruss"}`)
		},
			http.StatusBadRequest, core.ErrCodeStructureMismatch},
		{"batch unknown structure", func() *http.Response {
			return post("/v1/batch", `{"queries":[{"q":1,"k":4}],"structure":"bogus"}`)
		},
			http.StatusBadRequest, core.ErrCodeStructureMismatch},
		{"checkin unknown vertex", func() *http.Response { return post("/v1/checkin", `{"v":9999,"x":0.5,"y":0.5}`) },
			http.StatusNotFound, wire.CodeUnknownVertex},
		{"edge bad op", func() *http.Response { return post("/v1/edge", `{"u":0,"v":1,"op":"sever"}`) },
			http.StatusBadRequest, wire.CodeInvalidArgument},
		{"malformed vertex id", func() *http.Response { return get("/v1/vertex/abc") },
			http.StatusBadRequest, wire.CodeInvalidArgument},
		{"unknown vertex id", func() *http.Response { return get("/v1/vertex/9999") },
			http.StatusNotFound, wire.CodeUnknownVertex},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			var env wire.Error
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("non-2xx body is not an error envelope: %v", err)
			}
			if env.Code != tc.code {
				t.Fatalf("code = %q, want %q (error: %s)", env.Code, tc.code, env.Error)
			}
			if env.Error == "" {
				t.Fatal("empty error message")
			}
			if env.RequestID == "" || env.RequestID != resp.Header.Get("X-Request-Id") {
				t.Fatalf("requestId %q vs header %q", env.RequestID, resp.Header.Get("X-Request-Id"))
			}
		})
	}
}

// TestRequestIDPropagation: a well-formed caller-supplied X-Request-Id is
// echoed; a hostile one is replaced.
func TestRequestIDPropagation(t *testing.T) {
	ts, _ := newTestServer(t)
	req, _ := http.NewRequest("GET", ts.URL+"/v1/health", nil)
	req.Header.Set("X-Request-Id", "trace-42_a.b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "trace-42_a.b" {
		t.Fatalf("echoed id = %q", got)
	}
	req, _ = http.NewRequest("GET", ts.URL+"/v1/health", nil)
	req.Header.Set("X-Request-Id", "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got == "bad id with spaces" || got == "" {
		t.Fatalf("hostile id not replaced: %q", got)
	}
}

// TestAlgorithmsFromRegistry asserts /v1/algorithms is the registry,
// verbatim: same names, same order, same parameter schemas.
func TestAlgorithmsFromRegistry(t *testing.T) {
	ts, _ := newTestServer(t)
	var out []struct {
		Name   string `json:"name"`
		Ratio  string `json:"ratio"`
		Params []struct {
			Name     string   `json:"name"`
			Type     string   `json:"type"`
			Required bool     `json:"required"`
			Default  *float64 `json:"default"`
		} `json:"params"`
	}
	if resp := getJSON(t, ts.URL+"/v1/algorithms", &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	specs := core.Algorithms()
	if len(out) != len(specs) {
		t.Fatalf("%d algorithms served, registry has %d", len(out), len(specs))
	}
	for i, spec := range specs {
		if out[i].Name != spec.Name || out[i].Ratio != spec.Ratio {
			t.Fatalf("entry %d = %+v, want %s (%s)", i, out[i], spec.Name, spec.Ratio)
		}
		if len(out[i].Params) != len(spec.Params) {
			t.Fatalf("%s: %d params served, registry has %d", spec.Name, len(out[i].Params), len(spec.Params))
		}
		for j, p := range spec.Params {
			served := out[i].Params[j]
			if served.Name != p.Name || served.Type != "float" || served.Required != p.Required {
				t.Fatalf("%s param %d = %+v, want %+v", spec.Name, j, served, p)
			}
			if !p.Required && (served.Default == nil || *served.Default != p.Default) {
				t.Fatalf("%s param %s default = %v, want %v", spec.Name, p.Name, served.Default, p.Default)
			}
		}
	}
}

// TestV1BatchTheta runs a θ-SAC batch — an algorithm the legacy batch
// endpoint could not express before the registry-driven request shape.
func TestV1BatchTheta(t *testing.T) {
	ts, g := newTestServer(t)
	req := wire.BatchRequest{Algo: "theta", Theta: core.Float(0.2), Workers: 2}
	for _, q := range []int64{1, 7} {
		req.Queries = append(req.Queries, wire.BatchQuery{Q: q, K: 4})
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body %s", resp.StatusCode, body)
	}
	var out wire.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	s := core.NewSearcher(g)
	for i, q := range []graph.V{1, 7} {
		want, err := s.ThetaSAC(q, 4, 0.2)
		if err != nil {
			if out.Items[i].Error == "" {
				t.Fatalf("item %d: expected error, got %+v", i, out.Items[i])
			}
			continue
		}
		if len(out.Items[i].Members) != len(want.Members) {
			t.Fatalf("item %d: members %v, want %v", i, out.Items[i].Members, want.Members)
		}
	}
}
