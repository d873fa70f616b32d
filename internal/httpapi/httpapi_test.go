package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sacsearch/internal/core"
	"sacsearch/internal/wire"
)

func subscribeRequest(rawQuery string) *http.Request {
	return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/subscribe", RawQuery: rawQuery}}
}

// TestParseSubscribeQuery: the URL-shaped twin of a POST /v1/query body
// refuses what the JSON decoder would refuse — above all integers that do
// not fit the field they land in — with the envelope naming the field and
// the value as sent.
func TestParseSubscribeQuery(t *testing.T) {
	bad := []struct {
		name, rawQuery, code, field, mention string
	}{
		{"q wraps into vertex 3", "q=4294967299&k=3", core.ErrCodeInvalidQuery, "q", "4294967299"},
		{"q wraps into vertex 1215752191", "q=99999999999&k=3", core.ErrCodeInvalidQuery, "q", "99999999999"},
		{"q below int32", "q=-2147483649&k=3", core.ErrCodeInvalidQuery, "q", "-2147483649"},
		{"k beyond int", "q=1&k=99999999999999999999", core.ErrCodeInvalidQuery, "k", "99999999999999999999"},
		{"missing q", "k=3", core.ErrCodeInvalidQuery, "q", "missing"},
		{"missing k", "q=1", core.ErrCodeInvalidQuery, "k", "missing"},
		{"malformed q", "q=seven&k=3", core.ErrCodeInvalidQuery, "q", "seven"},
		{"malformed k", "q=1&k=3.5", core.ErrCodeInvalidQuery, "k", "3.5"},
		{"non-numeric epsF", "q=1&k=3&epsF=tight", core.ErrCodeInvalidParam, "epsF", "tight"},
	}
	for _, tc := range bad {
		_, err := parseSubscribeQuery(subscribeRequest(tc.rawQuery))
		var qe *core.QueryError
		if !errors.As(err, &qe) {
			t.Errorf("%s: err = %v, want a *core.QueryError", tc.name, err)
			continue
		}
		if qe.Code != tc.code || qe.Field != tc.field || !strings.Contains(qe.Reason, tc.mention) {
			t.Errorf("%s: %s/%s %q, want %s/%s mentioning %q", tc.name, qe.Code, qe.Field, qe.Reason, tc.code, tc.field, tc.mention)
		}
	}

	cq, err := parseSubscribeQuery(subscribeRequest("q=7&k=4&algo=AppAcc&epsA=0.25&structure=kcore"))
	if err != nil {
		t.Fatal(err)
	}
	if cq.Q != 7 || cq.K != 4 || cq.Algo != "AppAcc" || cq.Structure != "kcore" ||
		cq.EpsA == nil || *cq.EpsA != 0.25 || cq.EpsF != nil || cq.Theta != nil {
		t.Fatalf("parsed %+v", cq)
	}
	// An explicit zero is a value, not an absence: AppFast(0) is a
	// legitimate request the registry default (0.5) must not replace.
	cq, err = parseSubscribeQuery(subscribeRequest("q=2147483647&k=1&epsF=0"))
	if err != nil {
		t.Fatal(err)
	}
	if cq.Q != 2147483647 || cq.EpsF == nil || *cq.EpsF != 0 {
		t.Fatalf("explicit epsF=0 parsed as %+v", cq)
	}
}

// FuzzParseSubscribeQuery: whatever the URL holds, the parser returns an
// error or a query whose Q and K are the integers in the URL — never a
// panic, never a wrapped value.
func FuzzParseSubscribeQuery(f *testing.F) {
	for _, seed := range []string{
		"q=3&k=4", "q=4294967299&k=3", "q=99999999999&k=3", "q=-1&k=0", "q=+7&k=007",
		"q=1&k=9223372036854775808", "q=1&k=3&epsF=0&epsA=NaN&theta=1e999", "q=%31&k=%33",
		"q=1;k=2", "k=3", "", "q=0x10&k=1_0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		r := subscribeRequest(rawQuery)
		cq, err := parseSubscribeQuery(r)
		if err != nil {
			return
		}
		vals := r.URL.Query()
		for name, got := range map[string]int64{"q": int64(cq.Q), "k": int64(cq.K)} {
			want, perr := strconv.ParseInt(vals.Get(name), 10, 64)
			if perr != nil || want != got {
				t.Fatalf("%q: accepted %s = %d for %q (%v)", rawQuery, name, got, vals.Get(name), perr)
			}
		}
		// The client's encoder against the server's decoder: what ParseQuery
		// accepted, Values must encode so that ParseQuery reads the same query
		// back (floats compared by bits: NaN is a value here like any other).
		wq, _ := wire.ParseQuery(vals)
		again, bad := wire.ParseQuery(wq.Values())
		same := bad == nil && again.Q == wq.Q && again.K == wq.K && again.Algo == wq.Algo && again.Structure == wq.Structure
		for _, p := range [][2]*float64{{wq.EpsF, again.EpsF}, {wq.EpsA, again.EpsA}, {wq.Theta, again.Theta}} {
			same = same && (p[0] == nil) == (p[1] == nil) && (p[0] == nil || math.Float64bits(*p[0]) == math.Float64bits(*p[1]))
		}
		if !same {
			t.Fatalf("%q: ParseQuery(Values()) = %+v (%v), want %+v", rawQuery, again, bad, wq)
		}
	})
}

// jsonInt reads body's top-level (or, with item >= 0, queries[item]'s) integer
// member name the way a reader with no schema would: ok is false when the
// member is absent, is not an integer literal, or is spelled twice (the
// struct decoder matches keys case-insensitively and lets the last one win,
// which a map cannot reproduce).
func jsonInt(body []byte, item int, name string) (n int64, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var obj map[string]any
	if dec.Decode(&obj) != nil {
		return 0, false
	}
	if item >= 0 {
		for key, v := range obj {
			if strings.EqualFold(key, "queries") {
				items, _ := v.([]any)
				if item < len(items) {
					obj, _ = items[item].(map[string]any)
				}
			}
		}
	}
	seen := 0
	for key, v := range obj {
		if strings.EqualFold(key, name) {
			seen++
			num, _ := v.(json.Number)
			n, ok = int64(0), false
			if i, err := num.Int64(); err == nil {
				n, ok = i, true
			}
		}
	}
	return n, ok && seen == 1
}

// FuzzQueryJSON: whatever a POST /v1/query or /v1/batch body holds, the
// decoders answer with an error envelope or hand the engine a query whose q,
// k and timeout are the integers in the body — never a panic, never a wrapped
// value.
func FuzzQueryJSON(f *testing.F) {
	for _, seed := range []string{
		`{"q":3,"k":4}`, `{"q":4294967299,"k":3}`, `{"q":-4294967293,"k":3}`, `{"q":3,"k":3,"timeoutMillis":9223372036854775807}`,
		`{"q":3,"k":3,"timeoutMillis":-9223372036854775808}`, `{"q":1e2,"k":3}`, `{"q":3.0,"k":3}`, `{"Q":7,"k":2}`, `{"q":1,"q":2,"k":3}`,
		`{"q":99999999999999999999,"k":3}`, `{"q":"7","k":3}`, `{"q":null,"k":null}`, `{"queries":[{"q":4294967299,"k":3},{"q":1,"k":2}]}`,
		`{"queries":[{"q":1,"k":99999999999999999999}]}`, `{"queries":{"q":1}}`, `[]`, `{`, ``, `{"q":3,"k":4}{"q":5}`,
	} {
		f.Add([]byte(seed))
	}
	c := &Core{}
	post := func(path string, body []byte) *http.Request {
		return httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	}
	refused := func(t *testing.T, rec *httptest.ResponseRecorder) {
		if env := decodeEnvelope(t, rec); rec.Code < 400 || env.Code == "" || env.Error == "" {
			t.Fatalf("refusal is status %d envelope %+v", rec.Code, env)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// POST /v1/query, as both front-ends decode it.
		rec, r := httptest.NewRecorder(), post("/v1/query", body)
		var wq wire.Query
		if !c.DecodeJSON(rec, r, &wq) {
			refused(t, rec)
		} else if cq, err := CoreQuery(wq); err != nil {
			WriteQueryError(rec, r, err)
			refused(t, rec)
		} else {
			for name, got := range map[string]int64{"q": int64(cq.Q), "k": int64(cq.K), "timeoutMillis": cq.Timeout.Milliseconds()} {
				if want, ok := jsonInt(body, -1, name); ok && want != got {
					t.Fatalf("%s: the engine got %s = %d", body, name, got)
				}
			}
		}
		// POST /v1/batch: every item is narrowed on its own.
		rec, r = httptest.NewRecorder(), post("/v1/batch", body)
		var br wire.BatchRequest
		if !c.DecodeJSON(rec, r, &br) {
			refused(t, rec)
			return
		}
		for i, it := range br.Queries {
			v, err := QueryVertex(it.Q)
			if want, ok := jsonInt(body, i, "q"); err == nil && ok && want != int64(v) {
				t.Fatalf("%s: item %d runs on vertex %d", body, i, v)
			}
			if err == nil && int64(v) != it.Q {
				t.Fatalf("%s: item %d q = %d narrowed to %d", body, i, it.Q, v)
			}
		}
	})
}

// TestCoreQuery: the wire → engine conversion refuses what no graph.V or
// Duration can hold, naming the field and the value as sent, and its inverse
// restores what it accepted.
func TestCoreQuery(t *testing.T) {
	for _, tc := range []struct {
		q              wire.Query
		field, mention string
	}{
		{wire.Query{Q: 4294967299, K: 3}, "q", "4294967299"},
		{wire.Query{Q: -4294967293, K: 3}, "q", "-4294967293"},
		{wire.Query{Q: 1 << 31, K: 3}, "q", "2147483648"},
		{wire.Query{Q: 1, K: 3, TimeoutMillis: maxTimeoutMillis + 1}, "timeoutMillis", "9223372036855"},
		{wire.Query{Q: 1, K: 3, TimeoutMillis: math.MinInt64}, "timeoutMillis", "-9223372036854775808"},
	} {
		_, err := CoreQuery(tc.q)
		var qe *core.QueryError
		if !errors.As(err, &qe) || qe.Code != core.ErrCodeInvalidQuery || qe.Field != tc.field || !strings.Contains(qe.Reason, tc.mention) {
			t.Errorf("%+v: err = %v, want invalid_query on %s mentioning %s", tc.q, err, tc.field, tc.mention)
		}
	}
	in := wire.Query{Q: math.MaxInt32, K: 4, Algo: "appacc", EpsA: core.Float(0.25), Structure: "kcore", TimeoutMillis: maxTimeoutMillis}
	cq, err := CoreQuery(in)
	if err != nil || cq.Q != math.MaxInt32 || cq.Timeout != time.Duration(maxTimeoutMillis)*time.Millisecond {
		t.Fatalf("CoreQuery(%+v) = %+v, %v", in, cq, err)
	}
	if out := WireQuery(cq); !reflect.DeepEqual(out, in) {
		t.Fatalf("WireQuery(CoreQuery(q)) = %+v, want %+v", out, in)
	}
	// ParseQuery raises two of the engine's validation codes under wire's
	// spelling of them.
	if wire.CodeInvalidQuery != core.ErrCodeInvalidQuery || wire.CodeInvalidParam != core.ErrCodeInvalidParam {
		t.Fatal("wire's validation codes drifted from core's")
	}
}

// TestBatchFanOut pins the bound on the client-supplied fan-out: "workers"
// far above GOMAXPROCS must not size the worker set — every worker holds a
// searcher with its own scratch — and an absent field means GOMAXPROCS.
func TestBatchFanOut(t *testing.T) {
	limit := runtime.GOMAXPROCS(0)
	if got := batchFanOut(&wire.BatchRequest{Workers: 100000}); got != limit {
		t.Fatalf("FanOut() = %d for workers 100000, want GOMAXPROCS = %d", got, limit)
	}
	if got := batchFanOut(&wire.BatchRequest{}); got != limit {
		t.Fatalf("FanOut() = %d for absent workers, want GOMAXPROCS = %d", got, limit)
	}
	if got := batchFanOut(&wire.BatchRequest{Workers: 1}); got != 1 {
		t.Fatalf("FanOut() = %d for workers 1, want 1", got)
	}
}

// serveBatch runs ServeBatch over body with a validator that accepts q < 100
// and the given answer.
func serveBatch(t *testing.T, body string, answer func(context.Context, core.Query) (*wire.Result, error)) (*httptest.ResponseRecorder, wire.BatchResponse) {
	t.Helper()
	var req wire.BatchRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	validate := func(q core.Query) error { return core.ValidateQuery(q, 100, core.StructureKCore) }
	rec := httptest.NewRecorder()
	ServeBatch(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", nil), &req, validate, answer)
	var resp wire.BatchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return rec, resp
}

// TestServeBatch pins the /v1/batch body both front-ends serve: an item that
// names no vertex or fails validation is answered in place and never reaches
// answer; each distinct (q, k) reaches it once, its answer shared by every
// duplicate; any other failure is that item's error string in a 200.
func TestServeBatch(t *testing.T) {
	var mu sync.Mutex
	calls := map[[2]int64]int{}
	answer := func(_ context.Context, q core.Query) (*wire.Result, error) {
		mu.Lock()
		calls[[2]int64{int64(q.Q), int64(q.K)}]++
		mu.Unlock()
		if q.Q == 9 {
			return nil, core.ErrNoCommunity
		}
		return &wire.Result{Members: []int64{int64(q.Q), int64(q.K)}, MCC: wire.Circle{R: float64(q.Q)}}, nil
	}
	rec, resp := serveBatch(t, `{"queries":[{"q":1,"k":2},{"q":4294967299,"k":2},{"q":1,"k":2},{"q":500,"k":2},{"q":9,"k":2},{"q":1,"k":3}],"workers":3}`, answer)
	if rec.Code != http.StatusOK || len(resp.Items) != 6 {
		t.Fatalf("status %d, %d items: %s", rec.Code, len(resp.Items), rec.Body)
	}
	want := map[[2]int64]int{{1, 2}: 1, {9, 2}: 1, {1, 3}: 1}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("answer calls %v, want %v", calls, want)
	}
	for _, i := range []int{0, 2} {
		if it := resp.Items[i]; it.Q != 1 || it.K != 2 || it.Error != "" || !reflect.DeepEqual(it.Members, []int64{1, 2}) || it.MCC.R != 1 {
			t.Errorf("item %d = %+v", i, it)
		}
	}
	for i, mention := range map[int]string{1: "4294967299", 3: "out of range", 4: "no feasible community"} {
		if it := resp.Items[i]; !strings.Contains(it.Error, mention) || it.Members != nil {
			t.Errorf("item %d = %+v, want an error mentioning %q", i, it, mention)
		}
	}
}

// TestServeBatchDeadline pins the one deadline rule: an item cut short by a
// deadline — core.ErrCanceled, or context.DeadlineExceeded anywhere in its
// chain — fails the whole batch with 503 deadline_exceeded quoting the first
// such item in input order.
func TestServeBatchDeadline(t *testing.T) {
	for _, late := range []error{
		fmt.Errorf("%w: %w", core.ErrCanceled, context.DeadlineExceeded),
		fmt.Errorf("shard 1 unavailable: %w", context.DeadlineExceeded),
	} {
		answer := func(_ context.Context, q core.Query) (*wire.Result, error) {
			switch q.Q {
			case 1:
				return nil, errors.New("not late")
			case 2:
				return nil, fmt.Errorf("item 2: %w", late)
			case 3:
				return nil, fmt.Errorf("item 3: %w", late)
			}
			return &wire.Result{}, nil
		}
		rec, _ := serveBatch(t, `{"queries":[{"q":0,"k":2},{"q":1,"k":2},{"q":3,"k":2},{"q":2,"k":2}]}`, answer)
		env := decodeEnvelope(t, rec)
		if rec.Code != http.StatusServiceUnavailable || env.Code != wire.CodeDeadlineExceeded ||
			env.Error != "batch deadline exceeded: item 3: "+late.Error() {
			t.Errorf("%v: status %d envelope %+v", late, rec.Code, env)
		}
	}
}

func TestSanitizeRequestID(t *testing.T) {
	for in, want := range map[string]string{
		"trace-42_a.b":          "trace-42_a.b",
		"":                      "",
		"has space":             "",
		"new\nline":             "",
		"quote\"":               "",
		"ünicode":               "",
		strings.Repeat("a", 64): strings.Repeat("a", 64),
		strings.Repeat("a", 65): "",
	} {
		if got := sanitizeRequestID(in); got != want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", in, got, want)
		}
	}
}

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) wire.Error {
	t.Helper()
	var env wire.Error
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatalf("body is not an error envelope: %v", err)
	}
	return env
}

// TestDecodeJSON: a body over the cap is a 413 before any of it is decoded,
// malformed JSON a 400, and a body within the cap decodes.
func TestDecodeJSON(t *testing.T) {
	c := &Core{MaxBodyBytes: 64}
	decode := func(body string) (*httptest.ResponseRecorder, bool, map[string]any) {
		var into map[string]any
		rec := httptest.NewRecorder()
		ok := c.DecodeJSON(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)), &into)
		return rec, ok, into
	}
	if _, ok, into := decode(`{"q":1,"k":4}`); !ok || into["k"] != float64(4) {
		t.Fatalf("small body: ok=%v decoded %v", ok, into)
	}
	rec, ok, _ := decode(`{"pad":"` + strings.Repeat("x", 200) + `"}`)
	if env := decodeEnvelope(t, rec); ok || rec.Code != http.StatusRequestEntityTooLarge || env.Code != wire.CodeBodyTooLarge {
		t.Fatalf("oversized body: ok=%v status %d code %q", ok, rec.Code, env.Code)
	}
	rec, ok, _ = decode(`{nope`)
	if env := decodeEnvelope(t, rec); ok || rec.Code != http.StatusBadRequest || env.Code != wire.CodeInvalidJSON {
		t.Fatalf("malformed body: ok=%v status %d code %q", ok, rec.Code, env.Code)
	}
}

// TestWriteQueryError pins the one error → (status, code) map both
// front-ends answer with.
func TestWriteQueryError(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		code   string
		field  string
	}{
		{&core.QueryError{Code: core.ErrCodeInvalidParam, Field: "epsF", Reason: "out of range"},
			http.StatusBadRequest, core.ErrCodeInvalidParam, "epsF"},
		{fmt.Errorf("leg 2: %w", &core.QueryError{Code: core.ErrCodeUnknownAlgorithm, Field: "algo", Reason: "nope"}),
			http.StatusBadRequest, core.ErrCodeUnknownAlgorithm, "algo"},
		{core.ErrNoCommunity, http.StatusNotFound, wire.CodeNoCommunity, ""},
		{fmt.Errorf("%w: deadline", core.ErrCanceled), http.StatusServiceUnavailable, wire.CodeDeadlineExceeded, ""},
		{errors.New("anything else"), http.StatusUnprocessableEntity, wire.CodeQueryFailed, ""},
	} {
		rec := httptest.NewRecorder()
		WriteQueryError(rec, httptest.NewRequest(http.MethodPost, "/v1/query", nil), tc.err)
		env := decodeEnvelope(t, rec)
		if rec.Code != tc.status || env.Code != tc.code || env.Field != tc.field || env.Error == "" {
			t.Errorf("%v: status %d envelope %+v, want %d %s field %q", tc.err, rec.Code, env, tc.status, tc.code, tc.field)
		}
	}
}

// TestWriteResult: a /v1/query answer goes out with the body WriteJSON would
// have written, a Content-Length, and — for a result encoding/json refuses —
// the 500 envelope instead of a 200 with an empty body.
func TestWriteResult(t *testing.T) {
	res := &wire.Result{Q: 3, K: 2, Members: []int64{1, 3, 8}, MCC: wire.Circle{X: 0.5, Y: 1e-9, R: 0.25},
		Delta: 0.3, Stats: wire.Stats{CandidateSize: 9, Algorithm: "exact+"}}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", nil)
	want := httptest.NewRecorder()
	WriteJSON(want, http.StatusOK, res)
	for i := 0; i < 3; i++ { // the pooled buffer is reused
		got := httptest.NewRecorder()
		WriteResult(got, req, res)
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() ||
			got.Header().Get("Content-Type") != "application/json" || got.Header().Get("Content-Length") != strconv.Itoa(want.Body.Len()) {
			t.Fatalf("WriteResult: %d %v %q, WriteJSON: %q", got.Code, got.Header(), got.Body, want.Body)
		}
	}
	res.Delta = math.NaN()
	got := httptest.NewRecorder()
	WriteResult(got, req, res)
	var env wire.Error
	if err := json.Unmarshal(got.Body.Bytes(), &env); err != nil || got.Code != http.StatusInternalServerError || env.Code != wire.CodeInternal {
		t.Fatalf("a NaN δ: %d %q (%v)", got.Code, got.Body, err)
	}
}

// TestServeUnknownRoute: a request no route takes gets the envelope, code
// unknown_route, with net/http's status (404 for a path nothing serves, 405
// and its Allow header for a method the path's routes do not take), and a
// matched route is still served with its path values. A redirect to the
// cleaned path is net/http's, untouched.
func TestServeUnknownRoute(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, "query") })
	mux.HandleFunc("GET /v1/vertex/{id}", func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, r.PathValue("id")) })
	c := &Core{IDPrefix: "req-"}
	serve := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		c.Serve(rec, httptest.NewRequest(method, path, nil), mux)
		return rec
	}
	for _, tc := range []struct {
		method, path string
		status       int
		allow        string
	}{
		{http.MethodGet, "/v1/nope", http.StatusNotFound, ""},
		{http.MethodGet, "/", http.StatusNotFound, ""},
		{http.MethodPost, "/v1/shard/range", http.StatusNotFound, ""},
		{http.MethodDelete, "/v1/query", http.StatusMethodNotAllowed, "POST"},
		{http.MethodGet, "/v1/query", http.StatusMethodNotAllowed, "POST"},
		{http.MethodPost, "/v1/vertex/7", http.StatusMethodNotAllowed, "GET, HEAD"},
	} {
		rec := serve(tc.method, tc.path)
		env := decodeEnvelope(t, rec)
		if rec.Code != tc.status || env.Code != wire.CodeUnknownRoute || env.Error == "" ||
			rec.Header().Get("Content-Type") != "application/json" || rec.Header().Get("Allow") != tc.allow {
			t.Errorf("%s %s: %d %v %+v, want %d unknown_route, Allow %q", tc.method, tc.path, rec.Code, rec.Header(), env, tc.status, tc.allow)
		}
		if env.RequestID == "" || env.RequestID != rec.Header().Get("X-Request-Id") {
			t.Errorf("%s %s: requestId %q, header %q", tc.method, tc.path, env.RequestID, rec.Header().Get("X-Request-Id"))
		}
	}
	if rec := serve(http.MethodGet, "/v1/vertex/7"); rec.Code != http.StatusOK || rec.Body.String() != "\"7\"\n" {
		t.Errorf("GET /v1/vertex/7: %d %q", rec.Code, rec.Body)
	}
	if rec := serve(http.MethodGet, "/v1/../v1/nope"); rec.Code != http.StatusMovedPermanently || rec.Header().Get("Location") != "/v1/nope" {
		t.Errorf("GET /v1/../v1/nope: %d %v", rec.Code, rec.Header())
	}
}
