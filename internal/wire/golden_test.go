package wire_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sacsearch/client"
	"sacsearch/internal/gen"
	"sacsearch/internal/geom"
	"sacsearch/internal/graph"
	"sacsearch/internal/router"
	"sacsearch/internal/server"
	"sacsearch/internal/shard"
	"sacsearch/internal/store"
)

// The golden wire fixtures: the response body of every /v1 route — both
// front-ends, the shard routes, one error envelope per code these routes can
// be made to emit deterministically, and the SSE frames of /v1/subscribe and
// /v1/shard/watch — on one fixed generated graph. testdata/*.golden was
// recorded at 98c1ce3, the commit before internal/wire existed, by running
// this file there with -update; TestGoldenWire asserts the tree still emits
// those bytes, so moving the schema into one package cannot have changed a
// field name, a field order or an omitempty. Volatile fields are masked (see
// mask). The rows in changedOnPurpose were re-recorded at the change that
// fixed them.

// -update=all records every row (how the files were made, at 98c1ce3);
// -update=changed rewrites only the rows changedOnPurpose names and keeps the
// recorded bytes of every other row, so a re-record cannot bless a drift.
var update = flag.String("update", "", "re-record testdata/*.golden: all, or changed (only the rows in changedOnPurpose)")

// changedOnPurpose lists the rows whose bytes differ from the 98c1ce3
// recording, with what that commit answered. All but the last two pairs are
// the two bugfixes: an id wider than 32 bits gets the envelope its route gives
// any id naming no vertex, and the router's health keeps what the shards said.
var changedOnPurpose = map[string]string{
	"server/query wide q":      `400 invalid_json, no field ("cannot unmarshal number 4294967299 into Go struct field QueryRequest.q of type int32")`,
	"server/batch wide item":   `400 invalid_json for the whole batch`,
	"server/checkin wide v":    `400 invalid_json`,
	"server/edge wide u":       `400 invalid_json`,
	"router/query wide q":      `400 invalid_json, no field`,
	"router/batch wide item":   `400 invalid_json for the whole batch`,
	"router/checkin wide v":    `400 invalid_json`,
	"router/edge wide u":       `400 invalid_json`,
	"shard/search wide q":      `400 invalid_json, no field`,
	"shard/expand wide seed":   `400 invalid_json`,
	"router/health":            `shardHealth[i].health held only status, dataset, vertices, edges, durable, role, epoch`,
	"router/health dead shard": `as router/health`,
	// encoding/json's type-mismatch message names the Go type it was decoding
	// into, and that type moved and widened.
	"server/invalid_json wrong type": `"... into Go struct field QueryRequest.q of type int32"`,
	"router/invalid_json wrong type": `"... into Go struct field QueryRequest.q of type int32"`,
}

var masks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"requestId":"[^"]*"`), `"requestId":"-"`},
	{regexp.MustCompile(`"elapsedMicros":\d+`), `"elapsedMicros":0`},
	{regexp.MustCompile(`"uptimeSeconds":\d+`), `"uptimeSeconds":0`},
	{regexp.MustCompile(`"build":\{[^}]*\}`), `"build":{}`},
	// How many pooled searchers an engine has cloned depends on which
	// requests happened to overlap (a standing query's evaluation against
	// the next call), so it differs under -race.
	{regexp.MustCompile(`"poolClones":\d+`), `"poolClones":0`},
	// A dead shard's leg error quotes the URL the router dialled.
	{regexp.MustCompile(`127\.0\.0\.1:\d+`), `127.0.0.1:0`},
}

// mask blanks the fields that differ run to run: request ids, timings, the
// build stamp, the pool's clone count, and the ephemeral port in a dead
// shard's dial error.
func mask(body []byte) string {
	s := strings.TrimRight(string(body), "\n")
	for _, m := range masks {
		s = m.re.ReplaceAllString(s, m.with)
	}
	return s
}

// row is one recorded exchange.
type row struct {
	name     string // "<file>/<what>"
	request  string
	response string // "<status> <masked body>", or one SSE frame "<id> <event> <data>"
	sse      bool
}

type recorder struct {
	t       *testing.T
	rows    []row
	streams []pending // open standing queries whose bye is still to come
}

func (rec *recorder) add(name, request, response string) {
	rec.rows = append(rec.rows, row{name: name, request: request, response: response})
}

// frame records the next frame of an open stream.
func (rec *recorder) frame(name, request string, st *stream) {
	rec.rows = append(rec.rows, row{name: name, request: request, response: st.frame(), sse: true})
}

// call records one plain exchange against base.
func (rec *recorder) call(name, base, method, path, body string) {
	rec.t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		rec.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		rec.t.Fatalf("%s: %v", name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		rec.t.Fatalf("%s: %v", name, err)
	}
	shown := body
	if len(shown) > 200 {
		shown = fmt.Sprintf("%s… (%d bytes)", shown[:60], len(body))
	}
	rec.add(name, strings.TrimSpace(method+" "+path+" "+shown), fmt.Sprintf("%d %s", resp.StatusCode, mask(raw)))
}

// stream is one open SSE response.
type stream struct {
	t      *testing.T
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
}

func openStream(t *testing.T, url string) *stream {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	st := &stream{t: t, resp: resp, br: bufio.NewReader(resp.Body), cancel: cancel}
	t.Cleanup(st.close)
	return st
}

func (st *stream) close() {
	st.cancel()
	st.resp.Body.Close()
}

// frame reads the next non-heartbeat frame as "<id> <event> <data>".
func (st *stream) frame() string {
	st.t.Helper()
	type result struct {
		s   string
		err error
	}
	done := make(chan result, 1)
	go func() {
		var id, event, data string
		for {
			line, err := st.br.ReadString('\n')
			if err != nil {
				done <- result{err: err}
				return
			}
			line = strings.TrimRight(line, "\r\n")
			switch {
			case line == "" && event != "":
				done <- result{s: id + " " + event + " " + mask([]byte(data))}
				return
			case strings.HasPrefix(line, "id: "):
				id = line[4:]
			case strings.HasPrefix(line, "event: "):
				event = line[7:]
			case strings.HasPrefix(line, "data: "):
				data = line[6:]
			}
		}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			st.t.Fatalf("reading SSE frame: %v", r.err)
		}
		return r.s
	case <-time.After(15 * time.Second):
		st.t.Fatal("timed out waiting for an SSE frame")
		return ""
	}
}

// goldenGraph is the fixed graph every fixture is recorded on: two planted
// 20-vertex groups in opposite corners (ids 0-39), each wholly on one shard
// of the two-way cut and linked to nothing else, so its communities certify;
// and a 160-vertex spatially placed social graph (ids 40-199) whose
// communities straddle the cut.
func goldenGraph() *graph.Graph {
	sb := gen.SocialGraph(160, 700, 17)
	gen.PlaceSpatial(sb, 0.03, 0.08, 18)
	social := sb.Build()
	b := graph.NewBuilder(200)
	rnd := rand.New(rand.NewSource(19))
	for c := 0; c < 2; c++ {
		corner := 0.02 + 0.9*float64(c)
		for i := 0; i < 20; i++ {
			v := graph.V(c*20 + i)
			b.SetLoc(v, geom.Point{X: corner + 0.06*rnd.Float64(), Y: corner + 0.06*rnd.Float64()})
			for j := 0; j < i; j++ {
				if rnd.Intn(3) > 0 {
					b.AddEdge(v, graph.V(c*20+j))
				}
			}
		}
	}
	for v := 0; v < social.NumVertices(); v++ {
		b.SetLoc(graph.V(40+v), social.Loc(graph.V(v)))
		for _, u := range social.Neighbors(graph.V(v)) {
			if int(u) > v {
				b.AddEdge(graph.V(40+v), 40+u)
			}
		}
	}
	return b.Build()
}

const (
	wide   = "4294967299" // 2^32 + 3: wraps to vertex 3 if narrowed unchecked
	absent = "999999"     // fits 32 bits, names no vertex
)

// frontEnd records the rows a single server and the router both serve. qCert
// and qCross are query vertices whose communities certify on one shard and
// cross the cut respectively (on a single server they are just two queries).
func (rec *recorder) frontEnd(file, base string, qCert, qCross int) {
	p := file + "/"
	q := func(name, body string) { rec.call(p+name, base, "POST", "/v1/query", body) }
	rec.call(p+"health", base, "GET", "/v1/health", "")
	rec.call(p+"ready", base, "GET", "/v1/ready", "")
	rec.call(p+"algorithms", base, "GET", "/v1/algorithms", "")
	rec.call(p+"vertex", base, "GET", fmt.Sprintf("/v1/vertex/%d", qCert), "")
	q("query default", fmt.Sprintf(`{"q":%d,"k":3}`, qCert))
	q("query cross-shard", fmt.Sprintf(`{"q":%d,"k":3,"algo":"appfast"}`, qCross))
	q("query appinc", fmt.Sprintf(`{"q":%d,"k":3,"algo":"appinc"}`, qCert))
	q("query appacc", fmt.Sprintf(`{"q":%d,"k":3,"algo":"appacc","epsA":0.25}`, qCert))
	q("query exact+ cross-shard", fmt.Sprintf(`{"q":%d,"k":3,"algo":"exact+","timeoutMillis":10000}`, qCross))
	q("query exact", fmt.Sprintf(`{"q":%d,"k":4,"algo":"exact","structure":"kcore"}`, qCert))
	q("query epsF zero", fmt.Sprintf(`{"q":%d,"k":3,"epsF":0}`, qCert))
	q("query theta", fmt.Sprintf(`{"q":%d,"k":2,"algo":"theta","theta":0.1}`, qCert))
	rec.call(p+"batch", base, "POST", "/v1/batch", fmt.Sprintf(
		`{"queries":[{"q":%d,"k":3},{"q":%d,"k":3},{"q":%s,"k":3},{"q":%d,"k":0},{"q":%d,"k":200}],"algo":"appinc","workers":2}`,
		qCert, qCross, absent, qCert, qCert))

	// One envelope per code.
	q("invalid_json", `{"q":`)
	q("invalid_json wrong type", `{"q":"seven","k":3}`)
	rec.call(p+"body_too_large", base, "POST", "/v1/query", `{"algo":"`+strings.Repeat("a", 9000)+`"}`)
	rec.call(p+"invalid_argument vertex", base, "GET", "/v1/vertex/seven", "")
	rec.call(p+"invalid_argument op", base, "POST", "/v1/edge", `{"u":1,"v":2,"op":"flip"}`)
	rec.call(p+"invalid_argument self-loop", base, "POST", "/v1/edge", `{"u":2,"v":2,"op":"insert"}`)
	rec.call(p+"invalid_argument subscription id", base, "GET", "/v1/subscribe?q=1&k=3&id=no%20spaces", "")
	rec.call(p+"unknown_vertex vertex", base, "GET", "/v1/vertex/"+absent, "")
	rec.call(p+"unknown_vertex checkin", base, "POST", "/v1/checkin", `{"v":`+absent+`,"x":0.5,"y":0.5}`)
	rec.call(p+"unknown_vertex edge", base, "POST", "/v1/edge", `{"u":1,"v":`+absent+`,"op":"insert"}`)
	q("no_community", fmt.Sprintf(`{"q":%d,"k":200}`, qCert))
	q("unknown_algorithm", `{"q":1,"k":3,"algo":"louvain"}`)
	q("invalid_param", `{"q":1,"k":3,"epsF":-1}`)
	q("missing_param", `{"q":1,"k":3,"algo":"theta"}`)
	q("invalid_query k", `{"q":1,"k":0}`)
	q("invalid_query q", `{"q":`+absent+`,"k":3}`)
	q("invalid_query timeoutMillis", `{"q":1,"k":3,"timeoutMillis":9223372036854775807}`)
	q("structure_mismatch", `{"q":1,"k":3,"structure":"ktruss"}`)
	rec.call(p+"batch empty", base, "POST", "/v1/batch", `{"queries":[]}`)
	rec.call(p+"batch bad template", base, "POST", "/v1/batch", `{"queries":[{"q":1,"k":3}],"algo":"theta"}`)
	rec.call(p+"subscribe missing k", base, "GET", "/v1/subscribe?q=1", "")
	rec.call(p+"subscribe malformed epsF", base, "GET", "/v1/subscribe?q=1&k=3&epsF=lots", "")
	{
		req, _ := http.NewRequest("GET", base+"/v1/subscribe?q=1&k=3&id=gone", nil)
		req.Header.Set("Last-Event-ID", "7")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			rec.t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.add(p+"unknown_subscription", "GET /v1/subscribe?q=1&k=3&id=gone  Last-Event-ID: 7",
			fmt.Sprintf("%d %s", resp.StatusCode, mask(raw)))
	}

	// Ids wider than 32 bits, one row per id-carrying field.
	q("query wide q", `{"q":`+wide+`,"k":3}`)
	rec.call(p+"batch wide item", base, "POST", "/v1/batch",
		fmt.Sprintf(`{"queries":[{"q":%s,"k":3},{"q":%d,"k":3}],"algo":"appinc"}`, wide, qCert))
	rec.call(p+"checkin wide v", base, "POST", "/v1/checkin", `{"v":`+wide+`,"x":0.5,"y":0.5}`)
	rec.call(p+"edge wide u", base, "POST", "/v1/edge", `{"u":`+wide+`,"v":1,"op":"insert"}`)
	rec.call(p+"vertex wide id", base, "GET", "/v1/vertex/"+wide, "")
	rec.call(p+"subscribe wide q", base, "GET", "/v1/subscribe?q="+wide+"&k=3", "")

	// Writes, after every read above so those see the generated graph.
	rec.call(p+"edge insert", base, "POST", "/v1/edge", fmt.Sprintf(`{"u":%d,"v":%d,"op":"insert"}`, qCert, qCross))
	rec.call(p+"edge insert again", base, "POST", "/v1/edge", fmt.Sprintf(`{"u":%d,"v":%d,"op":"insert"}`, qCert, qCross))
	rec.call(p+"edge delete", base, "POST", "/v1/edge", fmt.Sprintf(`{"u":%d,"v":%d,"op":"delete"}`, qCert, qCross))
	rec.call(p+"checkin", base, "POST", "/v1/checkin", fmt.Sprintf(`{"v":%d,"x":0.25,"y":0.75}`, qCross))
	rec.call(p+"vertex after checkin", base, "GET", fmt.Sprintf("/v1/vertex/%d", qCross), "")

	// A standing query: init, a delta pushed by moving q itself, and the
	// second registration the one-subscription limit refuses.
	st := openStream(rec.t, fmt.Sprintf("%s/v1/subscribe?q=%d&k=3&algo=appinc&id=golden", base, qCert))
	rec.frame(p+"subscribe init", fmt.Sprintf("GET /v1/subscribe?q=%d&k=3&algo=appinc&id=golden", qCert), st)
	rec.call(p+"subscription_limit", base, "GET", "/v1/subscribe?q=2&k=3&id=second", "")
	rec.call(p+"subscribe id bound elsewhere", base, "GET", fmt.Sprintf("/v1/subscribe?q=%d&k=4&id=golden", qCert), "")
	rec.call(p+"checkin q", base, "POST", "/v1/checkin", fmt.Sprintf(`{"v":%d,"x":0.9,"y":0.9}`, qCert))
	rec.frame(p+"subscribe delta", "(pushed)", st)
	rec.streams = append(rec.streams, pending{p + "subscribe bye", st})
}

// pending is a stream whose terminal bye is recorded once its daemon drains.
type pending struct {
	name string
	st   *stream
}

func (rec *recorder) byes() {
	for _, p := range rec.streams {
		rec.frame(p.name, "(drain)", p.st)
	}
	rec.streams = nil
}

// record boots the fixed graph as a single server and as a two-shard
// topology (shard 0 durable) behind a router, and drives every row.
func record(t *testing.T) []row {
	g := goldenGraph()
	m, err := shard.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	scfg := server.Config{MaxBodyBytes: 8192, MaxSubscriptions: 1}

	single := server.NewWithConfig("golden", g.Clone(), scfg)
	t.Cleanup(single.Close)
	singleTS := httptest.NewServer(single)
	t.Cleanup(singleTS.Close)

	var shardSrv []*server.Server
	var shardURL []string
	for id := 0; id < 2; id++ {
		sub, err := shard.Subgraph(g, m, id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := scfg
		cfg.MaxSubscriptions = 0
		if cfg.Shard, err = shard.NewServing(m, id); err != nil {
			t.Fatal(err)
		}
		var srv *server.Server
		if id == 0 {
			st, err := store.Open(t.TempDir(), store.Options{Init: sub})
			if err != nil {
				t.Fatal(err)
			}
			srv = server.NewWithStore("shard-0", st, cfg)
		} else {
			srv = server.NewWithConfig("shard-1", sub, cfg)
		}
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		shardSrv, shardURL = append(shardSrv, srv), append(shardURL, ts.URL)
	}
	newRouter := func(urls [][]string) (*router.Router, string) {
		rt, err := router.New(router.Config{
			Map: m, Shards: urls, MaxBodyBytes: 8192, MaxSubscriptions: 1,
			ClientOptions: []client.Option{client.WithRetries(0)},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.DrainSubscriptions)
		ts := httptest.NewServer(rt)
		t.Cleanup(ts.Close)
		return rt, ts.URL
	}
	rt, routerURL := newRouter([][]string{{shardURL[0]}, {shardURL[1]}})

	// Pick the two query vertices from what shard 0 certifies: the lowest
	// owned id whose k=3 community it proves local, and the lowest it cannot.
	qCert, qCross := -1, -1
	for v := 0; v < g.NumVertices() && (qCert < 0 || qCross < 0); v++ {
		if m.OwnerOf(graph.V(v)) != 0 {
			continue
		}
		resp, err := http.Post(shardURL[0]+"/v1/shard/search", "application/json",
			strings.NewReader(fmt.Sprintf(`{"q":%d,"k":3}`, v)))
		if err != nil {
			t.Fatal(err)
		}
		var verdict struct {
			Contained   bool            `json:"contained"`
			NoCommunity bool            `json:"noCommunity"`
			Result      json.RawMessage `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&verdict)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case verdict.Contained && !verdict.NoCommunity && qCert < 0:
			qCert = v
		case !verdict.Contained && qCross < 0:
			qCross = v
		}
	}
	if qCert < 0 || qCross < 0 {
		t.Fatalf("the golden graph has no certified (%d) or no cross-shard (%d) query on shard 0", qCert, qCross)
	}
	var foreign int // lowest id shard 1 owns
	for m.OwnerOf(graph.V(foreign)) == 0 {
		foreign++
	}

	rec := &recorder{t: t}

	// The shard protocol, against shard 0, before anything is written.
	s := func(name, method, path, body string) { rec.call("shard/"+name, shardURL[0], method, path, body) }
	s("health", "GET", "/v1/health", "")
	s("info", "GET", "/v1/shard/info", "")
	s("search contained", "POST", "/v1/shard/search", fmt.Sprintf(`{"q":%d,"k":3}`, qCert))
	s("search not contained", "POST", "/v1/shard/search", fmt.Sprintf(`{"q":%d,"k":3}`, qCross))
	s("search no community", "POST", "/v1/shard/search", fmt.Sprintf(`{"q":%d,"k":200}`, qCert))
	s("search theta", "POST", "/v1/shard/search", fmt.Sprintf(`{"q":%d,"k":2,"algo":"theta","theta":0.1}`, qCert))
	s("expand", "POST", "/v1/shard/expand", fmt.Sprintf(`{"k":3,"seeds":[%d]}`, qCert))
	s("expand dead seed", "POST", "/v1/shard/expand", fmt.Sprintf(`{"k":200,"seeds":[%d]}`, qCert))
	s("range", "POST", "/v1/shard/range", `{"x":0.05,"y":0.05,"r":0.02}`)
	s("range empty", "POST", "/v1/shard/range", `{"x":5,"y":5,"r":0.01}`)
	s("wrong_shard search", "POST", "/v1/shard/search", fmt.Sprintf(`{"q":%d,"k":3}`, foreign))
	s("wrong_shard expand", "POST", "/v1/shard/expand", fmt.Sprintf(`{"k":3,"seeds":[%d]}`, foreign))
	s("wrong_shard checkin", "POST", "/v1/checkin", fmt.Sprintf(`{"v":%d,"x":0.5,"y":0.5}`, foreign))
	s("invalid_argument expand k", "POST", "/v1/shard/expand", fmt.Sprintf(`{"k":0,"seeds":[%d]}`, qCert))
	s("invalid_argument range", "POST", "/v1/shard/range", `{"x":0.5,"y":0.5,"r":-1}`)
	s("unknown_vertex expand", "POST", "/v1/shard/expand", `{"k":3,"seeds":[`+absent+`]}`)
	s("invalid_query search", "POST", "/v1/shard/search", `{"q":`+absent+`,"k":3}`)
	s("search wide q", "POST", "/v1/shard/search", `{"q":`+wide+`,"k":3}`)
	s("expand wide seed", "POST", "/v1/shard/expand", `{"k":3,"seeds":[`+wide+`]}`)

	rec.frontEnd("server", singleTS.URL, qCert, qCross)
	single.DrainSubscriptions()
	rec.byes()

	rec.frontEnd("router", routerURL, qCert, qCross)
	rt.DrainSubscriptions()
	rec.byes()

	// The publication feed a router tails: the synthesized resync a fresh
	// watcher opens on, one publication, and the bye of a draining shard.
	st := openStream(t, shardURL[0]+"/v1/shard/watch")
	rec.frame("shard/watch resync", "GET /v1/shard/watch", st)
	s("checkin", "POST", "/v1/checkin", fmt.Sprintf(`{"v":%d,"x":0.3,"y":0.3}`, qCert))
	rec.frame("shard/watch pub checkin", "(pushed)", st)
	s("edge insert", "POST", "/v1/edge", fmt.Sprintf(`{"u":%d,"v":%d,"op":"insert"}`, qCert, foreign))
	rec.frame("shard/watch pub edge", "(pushed)", st)
	s("health after writes", "GET", "/v1/health", "")
	shardSrv[0].DrainSubscriptions()
	rec.frame("shard/watch bye", "(drain)", st)

	// A router whose second shard is gone.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	_, lameURL := newRouter([][]string{{shardURL[0]}, {deadURL}})
	rec.call("router/shard_unavailable", lameURL, "GET", fmt.Sprintf("/v1/vertex/%d", foreign), "")
	rec.call("router/not_ready", lameURL, "GET", "/v1/ready", "")
	rec.call("router/health dead shard", lameURL, "GET", "/v1/health", "")
	return rec.rows
}

// goldenFile renders one file's rows.
func goldenFile(rows []row) []byte {
	var b bytes.Buffer
	for _, r := range rows {
		fmt.Fprintf(&b, "== %s\n> %s\n< %s\n\n", r.name, r.request, r.response)
	}
	return b.Bytes()
}

// parseGolden reads a golden file back into name → response.
func parseGolden(t *testing.T, path string) map[string]string {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with: go test ./internal/wire -run TestGoldenWire -update=all)", err)
	}
	out := map[string]string{}
	var name string
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			name = line[3:]
		case strings.HasPrefix(line, "< "):
			out[name] = line[2:]
		}
	}
	return out
}

func TestGoldenWire(t *testing.T) {
	rows := record(t)
	byFile := map[string][]row{}
	var files []string
	for _, r := range rows {
		file, _, _ := strings.Cut(r.name, "/")
		if byFile[file] == nil {
			files = append(files, file)
		}
		byFile[file] = append(byFile[file], r)
	}
	if *update != "" {
		for _, file := range files {
			path := filepath.Join("testdata", file+".golden")
			out := byFile[file]
			if *update == "changed" {
				recorded := parseGolden(t, path)
				for i, r := range out {
					if was, ok := changedOnPurpose[r.name]; ok {
						t.Logf("re-recording %s (98c1ce3 answered: %s)", r.name, was)
					} else {
						out[i].response = recorded[r.name]
					}
				}
			}
			if err := os.WriteFile(path, goldenFile(out), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	seen := map[string]bool{}
	for _, file := range files {
		want := parseGolden(t, filepath.Join("testdata", file+".golden"))
		for _, r := range byFile[file] {
			seen[r.name] = true
			w, ok := want[r.name]
			if !ok {
				t.Errorf("%s: not in the recording", r.name)
				continue
			}
			if r.response != w {
				t.Errorf("%s: bytes changed\n got: %s\nwant: %s", r.name, r.response, w)
			}
			checkRoundTrip(t, r)
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("%s: recorded but no longer driven", name)
			}
		}
	}
	for name := range changedOnPurpose {
		if !seen[name] {
			t.Errorf("changedOnPurpose names %q, which is not a row", name)
		}
	}
}
