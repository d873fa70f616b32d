// Package wire declares the /v1 JSON schema — every request body, response
// body, SSE payload and the error envelope — exactly once. The typed client
// aliases these types, the two front-ends (internal/server, internal/router)
// and internal/subscribe encode and decode them, and internal/httpapi
// converts between them and the engine's own types. The package imports the
// standard library only, which is what lets the client depend on it.
//
// Vertex ids are int64 on the wire; the engine's 32-bit graph.V exists only
// behind the one checked narrowing in internal/httpapi. Field order and omitempty
// are what the servers have always emitted (testdata/*.golden pins the
// bytes), so a decoder must tolerate an absent members, error, mcc or result.
//
// /v1/health is deliberately not a closed struct: a server assembles it as an
// open map from whatever subsystems it runs (their sub-objects are declared
// with them, in internal/version, internal/store and internal/replica), and
// Health types only the prefix every node reports, keeping the rest in Extra.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"strconv"
)

// Query is one SAC request: the query vertex, the degree threshold, the
// algorithm (a /v1/algorithms name or alias; empty = the server default,
// AppFast) and its parameters. Parameter fields are pointers so the wire
// distinguishes "absent → registry default" from an explicit zero: AppFast(0)
// is a legitimate request a plain float64 could never express.
type Query struct {
	Q     int64    `json:"q"`
	K     int      `json:"k"`
	Algo  string   `json:"algo,omitempty"`
	EpsF  *float64 `json:"epsF,omitempty"`  // AppFast (default 0.5)
	EpsA  *float64 `json:"epsA,omitempty"`  // AppAcc / Exact+ (defaults 0.5 / 1e-3)
	Theta *float64 `json:"theta,omitempty"` // θ-SAC's radius (required when algo = "theta")
	// Structure optionally asserts the structure metric the query expects
	// ("kcore", "ktruss", "kclique"); a server built with a different metric
	// rejects the query instead of silently answering.
	Structure string `json:"structure,omitempty"`
	// TimeoutMillis, when positive, bounds this query with its own deadline;
	// the server's per-request deadline still caps it.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
}

// floatParam is one optional float parameter of a Query, by wire name.
type floatParam struct {
	name string
	p    **float64
}

func (q *Query) params() [3]floatParam {
	return [3]floatParam{{"epsF", &q.EpsF}, {"epsA", &q.EpsA}, {"theta", &q.Theta}}
}

// Values is the GET encoding of the query, as /v1/subscribe takes it
// (timeoutMillis has no GET form: a standing query has no deadline).
func (q Query) Values() url.Values {
	vals := url.Values{}
	vals.Set("q", strconv.FormatInt(q.Q, 10))
	vals.Set("k", strconv.Itoa(q.K))
	if q.Algo != "" {
		vals.Set("algo", q.Algo)
	}
	if q.Structure != "" {
		vals.Set("structure", q.Structure)
	}
	for _, f := range q.params() {
		if *f.p != nil {
			vals.Set(f.name, strconv.FormatFloat(**f.p, 'g', -1, 64))
		}
	}
	return vals
}

// FieldError is a request field ParseQuery could not read, as the envelope
// reports it: code, field and message.
type FieldError struct {
	Code, Field, Reason string
}

// ParseQuery decodes what Values encodes. q and k arrive as text from
// outside, so each is parsed at the width of the field it lands in and a
// value that does not fit is refused, quoting the text as sent.
func ParseQuery(vals url.Values) (Query, *FieldError) {
	var q Query
	intField := func(name string, bits int) (int64, *FieldError) {
		raw := vals.Get(name)
		if raw == "" {
			return 0, &FieldError{CodeInvalidQuery, name, fmt.Sprintf("missing required parameter %q", name)}
		}
		n, err := strconv.ParseInt(raw, 10, bits)
		if errors.Is(err, strconv.ErrRange) {
			return 0, &FieldError{CodeInvalidQuery, name, fmt.Sprintf("%s %q out of range (%d-bit integer)", name, raw, bits)}
		}
		if err != nil {
			return 0, &FieldError{CodeInvalidQuery, name, fmt.Sprintf("malformed %s %q", name, raw)}
		}
		return n, nil
	}
	var bad *FieldError
	if q.Q, bad = intField("q", 64); bad != nil {
		return q, bad
	}
	k, bad := intField("k", strconv.IntSize)
	if bad != nil {
		return q, bad
	}
	q.K = int(k)
	q.Algo, q.Structure = vals.Get("algo"), vals.Get("structure")
	for _, f := range q.params() {
		raw := vals.Get(f.name)
		if raw == "" {
			continue // absent: the registry default applies
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return q, &FieldError{CodeInvalidParam, f.name, fmt.Sprintf("malformed %s %q", f.name, raw)}
		}
		*f.p = &v
	}
	return q, nil
}

// Circle is a covering circle.
type Circle struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	R float64 `json:"r"`
}

// Stats are the per-query work counters a server reports; Algorithm is the
// canonical registry name of what ran.
type Stats struct {
	CandidateSize     int    `json:"candidateSize"`
	FeasibilityChecks int    `json:"feasibilityChecks"`
	BinaryIters       int    `json:"binaryIters"`
	ElapsedMicros     int64  `json:"elapsedMicros"`
	Algorithm         string `json:"algorithm"`
}

// Result is one SAC answer; Members ascend.
type Result struct {
	Q       int64   `json:"q"`
	K       int     `json:"k"`
	Members []int64 `json:"members"`
	MCC     Circle  `json:"mcc"`
	Delta   float64 `json:"delta"`
	Stats   Stats   `json:"stats"`
}

// BatchQuery is one (q, k) item of a batch.
type BatchQuery struct {
	Q int64 `json:"q"`
	K int   `json:"k"`
}

// BatchRequest is a set of queries answered together under shared algorithm
// parameters (same presence semantics as Query). Workers can only lower the
// server's fan-out.
type BatchRequest struct {
	Queries   []BatchQuery `json:"queries"`
	Algo      string       `json:"algo,omitempty"`
	EpsF      *float64     `json:"epsF,omitempty"`
	EpsA      *float64     `json:"epsA,omitempty"`
	Theta     *float64     `json:"theta,omitempty"`
	Structure string       `json:"structure,omitempty"`
	Workers   int          `json:"workers,omitempty"`
}

// BatchItem is one answered batch query; Error is the per-item failure
// message (absent on success, when Members and MCC hold the answer).
type BatchItem struct {
	Q       int64   `json:"q"`
	K       int     `json:"k"`
	Members []int64 `json:"members,omitempty"`
	MCC     Circle  `json:"mcc"`
	Error   string  `json:"error,omitempty"`
}

// BatchResponse carries the items in input order.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// CheckinRequest moves one vertex.
type CheckinRequest struct {
	V int64   `json:"v"`
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// EdgeRequest inserts or deletes one undirected friendship edge.
type EdgeRequest struct {
	U  int64  `json:"u"`
	V  int64  `json:"v"`
	Op string `json:"op"` // insert | delete
}

// EdgeResult reports an edge mutation: whether the graph changed (false for
// an idempotent repeat) and the undirected edge count afterwards.
type EdgeResult struct {
	OK      bool `json:"ok"`
	Changed bool `json:"changed"`
	Edges   int  `json:"edges"`
}

// Vertex is one vertex's public view. The fields are in the order the
// servers have always written this object — from a map, so alphabetical.
type Vertex struct {
	Core   int     `json:"core"`
	Degree int     `json:"degree"`
	ID     int64   `json:"id"`
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
}

// AlgoParam is one entry of an algorithm's parameter schema. Default is
// absent for a required parameter, Max for one unbounded above.
type AlgoParam struct {
	Name     string   `json:"name"`
	Type     string   `json:"type"`
	Doc      string   `json:"doc,omitempty"`
	Required bool     `json:"required,omitempty"`
	Default  *float64 `json:"default,omitempty"`
	Min      float64  `json:"min"`
	Max      *float64 `json:"max,omitempty"`
	MinExcl  bool     `json:"minExclusive,omitempty"`
	MaxExcl  bool     `json:"maxExclusive,omitempty"`
}

// AlgoInfo is one registered algorithm as served by /v1/algorithms.
type AlgoInfo struct {
	Name    string      `json:"name"`
	Aliases []string    `json:"aliases,omitempty"`
	Ratio   string      `json:"ratio"`
	Doc     string      `json:"doc"`
	Params  []AlgoParam `json:"params"`
}

// Health is the typed prefix of /v1/health plus everything else the node
// said (see the package comment): Extra holds the whole object as received,
// typed keys included, and a decoded Health marshals back to exactly that —
// so a front tier re-serving a node's health drops nothing.
type Health struct {
	// Status is "ok", "readonly" (reads work, writes are refused) or
	// "degraded" (something needs an operator).
	Status   string `json:"status"`
	Dataset  string `json:"dataset"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Durable  bool   `json:"durable"`
	// Role is "standalone", "leader", "replica" or "router".
	Role string `json:"role"`
	// Epoch is the fencing epoch (0 on non-durable standalone servers).
	Epoch uint64 `json:"epoch"`

	Extra map[string]json.RawMessage `json:"-"`
}

// UnmarshalJSON keeps the typed fields and the raw object.
func (h *Health) UnmarshalJSON(data []byte) error {
	type plain Health
	if err := json.Unmarshal(data, (*plain)(h)); err != nil {
		return err
	}
	return json.Unmarshal(data, &h.Extra)
}

// MarshalJSON writes the object UnmarshalJSON read; a Health built by hand
// has none, and marshals as its typed fields.
func (h Health) MarshalJSON() ([]byte, error) {
	if h.Extra != nil {
		return json.Marshal(h.Extra)
	}
	type plain Health
	return json.Marshal(plain(h))
}

// ShardHealth is one entry of the router's /v1/health shardHealth list.
type ShardHealth struct {
	Shard  int     `json:"shard"`
	Status string  `json:"status"` // the shard's own status, or "unreachable"
	Error  string  `json:"error,omitempty"`
	Health *Health `json:"health,omitempty"`
}

// ShardInfo describes one shard node's place in the topology, as
// /v1/shard/info serves it (the /v1/shard/* routes are the router-facing
// shard protocol).
type ShardInfo struct {
	ShardID int `json:"shardId"`
	Shards  int `json:"shards"`
	// MapChecksum identifies the shard-map artifact the node was loaded
	// from; a router refuses to mix shards from different maps.
	MapChecksum uint32 `json:"mapChecksum"`
	Vertices    int    `json:"vertices"` // global id space
	Owned       int    `json:"owned"`
	Ghosts      int    `json:"ghosts"`
	Edges       int    `json:"edges"` // edges materialized on this shard
	Role        string `json:"role"`
}

// ShardSearchResult is a shard's verdict on one query. Contained means the
// verdict is certified equal to a whole-graph answer — NoCommunity, or
// Result; otherwise the community may cross shard boundaries and the caller
// must scatter-gather.
type ShardSearchResult struct {
	Contained   bool    `json:"contained"`
	NoCommunity bool    `json:"noCommunity,omitempty"`
	Result      *Result `json:"result,omitempty"`
}

// ShardExpandRequest asks for the optimistic k-core closure around seeds the
// shard owns.
type ShardExpandRequest struct {
	K     int     `json:"k"`
	Seeds []int64 `json:"seeds"`
}

// ShardVertex is one shard-owned vertex with its authoritative location and
// full adjacency — the unit of the router's subgraph assembly.
type ShardVertex struct {
	V   int64   `json:"v"`
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
	Adj []int64 `json:"adj"`
}

// ShardExpansion is the owned part of a k-core closure plus the frontier
// vertices other shards own.
type ShardExpansion struct {
	Members  []ShardVertex `json:"members"`
	Frontier []int64       `json:"frontier"`
}

// ShardRangeRequest asks for every owned vertex inside the closed disk.
type ShardRangeRequest struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	R float64 `json:"r"`
}

// ShardRangeResponse lists the owned vertices inside the disk.
type ShardRangeResponse struct {
	Members []ShardVertex `json:"members"`
}

// SubEvent is one /v1/subscribe event. Kind is the SSE event name — "init"
// (Members carries the full community), "delta" (Joined/Left relative to the
// previous event) or "bye" (terminal) — and is not part of the JSON payload.
// MCC is present whenever a community exists; Hash fingerprints the full
// state after the event (FNV-1a, hex), so replaying deltas over the init must
// reproduce it.
type SubEvent struct {
	Kind        string  `json:"-"`
	Sub         string  `json:"sub"`
	Seq         uint64  `json:"seq"`
	Q           int64   `json:"q"`
	K           int     `json:"k"`
	Algo        string  `json:"algo"`
	NoCommunity bool    `json:"noCommunity"`
	Members     []int64 `json:"members,omitempty"`
	Joined      []int64 `json:"joined,omitempty"`
	Left        []int64 `json:"left,omitempty"`
	MCC         *Circle `json:"mcc,omitempty"`
	Delta       float64 `json:"delta,omitempty"`
	Hash        string  `json:"hash"`
}

// Bye is the payload of the terminal bye event of either stream.
type Bye struct {
	Sub    string `json:"sub"`
	Reason string `json:"reason"`
}

// WatchEvent is one frame of a shard's publication firehose
// (/v1/shard/watch): the vertices checked in and edges changed by one
// published snapshot. Resync means the change history is unknown and every
// derived answer must be recomputed. Bye (the SSE event name, not a JSON
// field) means the shard is draining.
type WatchEvent struct {
	Seq      uint64     `json:"seq"`
	SnapSeq  uint64     `json:"snapSeq,omitempty"`
	Resync   bool       `json:"resync,omitempty"`
	Bye      bool       `json:"-"`
	Checkins []int64    `json:"checkins,omitempty"`
	Edges    [][2]int64 `json:"edges,omitempty"`
}

// Error is the envelope every non-2xx response carries: a human-readable
// message, a machine-readable code, the offending field when known, and the
// request id for correlation with server logs.
type Error struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	Field     string `json:"field,omitempty"`
	RequestID string `json:"requestId,omitempty"`
}

// The envelope's codes.
const (
	CodeInvalidJSON      = "invalid_json"
	CodeBodyTooLarge     = "body_too_large"
	CodeInvalidArgument  = "invalid_argument"
	CodeUnknownVertex    = "unknown_vertex"
	CodeNoCommunity      = "no_community"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeUnavailable      = "unavailable"
	CodeQueryFailed      = "query_failed"
	CodeReadOnly         = "read_only"
	CodeStaleRead        = "stale_read"
	CodeNotReady         = "not_ready"
	CodeInternal         = "internal"
	CodeWrongShard       = "wrong_shard"
	CodeShardUnavailable = "shard_unavailable"
	// CodeUnknownSubscription: a Last-Event-ID resume names a subscription
	// id this node no longer holds (expired, or a different node); the
	// client should drop its resume state and subscribe fresh.
	CodeUnknownSubscription = "unknown_subscription"
	// CodeSubscriptionLimit: the standing-query table is full.
	CodeSubscriptionLimit = "subscription_limit"

	// Query validation's codes originate in the engine (core.ErrCode*) and
	// pass through verbatim; the two ParseQuery raises are spelled here, and
	// httpapi's tests pin them to the engine's.
	CodeInvalidQuery = "invalid_query"
	CodeInvalidParam = "invalid_param"
)
