package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"sacsearch/internal/core"
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
	})
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

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) ErrorJSON {
	t.Helper()
	var env ErrorJSON
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
	if env := decodeEnvelope(t, rec); ok || rec.Code != http.StatusRequestEntityTooLarge || env.Code != CodeBodyTooLarge {
		t.Fatalf("oversized body: ok=%v status %d code %q", ok, rec.Code, env.Code)
	}
	rec, ok, _ = decode(`{nope`)
	if env := decodeEnvelope(t, rec); ok || rec.Code != http.StatusBadRequest || env.Code != CodeInvalidJSON {
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
		{core.ErrNoCommunity, http.StatusNotFound, CodeNoCommunity, ""},
		{fmt.Errorf("%w: deadline", core.ErrCanceled), http.StatusServiceUnavailable, CodeDeadlineExceeded, ""},
		{errors.New("anything else"), http.StatusUnprocessableEntity, CodeQueryFailed, ""},
	} {
		rec := httptest.NewRecorder()
		WriteQueryError(rec, httptest.NewRequest(http.MethodPost, "/v1/query", nil), tc.err)
		env := decodeEnvelope(t, rec)
		if rec.Code != tc.status || env.Code != tc.code || env.Field != tc.field || env.Error == "" {
			t.Errorf("%v: status %d envelope %+v, want %d %s field %q", tc.err, rec.Code, env, tc.status, tc.code, tc.field)
		}
	}
}
