package client

import (
	"context"
	"net/http"
)

// The /v1/shard/* methods speak the router-facing shard protocol. They are
// what sacrouter uses against each shard's endpoint group; ordinary
// applications talk to the router's /v1 surface and never need these.

// ShardInfo describes one shard node's place in a sharded topology, as
// served by /v1/shard/info.
type ShardInfo struct {
	ShardID int `json:"shardId"`
	Shards  int `json:"shards"`
	// MapChecksum identifies the shard-map artifact the node was loaded
	// from; a router refuses to mix shards from different maps.
	MapChecksum uint32 `json:"mapChecksum"`
	Vertices    int    `json:"vertices"`
	Owned       int    `json:"owned"`
	Ghosts      int    `json:"ghosts"`
	Edges       int    `json:"edges"`
	Role        string `json:"role"`
}

// ShardSearchResult is a shard's verdict on one query. Contained=true means
// the verdict is certified equal to a whole-graph answer: either
// NoCommunity, or Result. Contained=false means the community may cross
// shard boundaries and the caller must scatter-gather.
type ShardSearchResult struct {
	Contained   bool    `json:"contained"`
	NoCommunity bool    `json:"noCommunity"`
	Result      *Result `json:"result"`
}

// ShardVertex is one shard-owned vertex with its authoritative location and
// full adjacency.
type ShardVertex struct {
	V   int64   `json:"v"`
	X   float64 `json:"x"`
	Y   float64 `json:"y"`
	Adj []int64 `json:"adj"`
}

// ShardExpansion is the owned part of a k-core closure plus the frontier
// vertices owned by other shards.
type ShardExpansion struct {
	Members  []ShardVertex `json:"members"`
	Frontier []int64       `json:"frontier"`
}

// ShardInfo fetches /v1/shard/info.
func (c *Client) ShardInfo(ctx context.Context) (*ShardInfo, error) {
	var out ShardInfo
	if err := c.do(ctx, http.MethodGet, "/v1/shard/info", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShardSearch asks one shard for its certified verdict on q.
func (c *Client) ShardSearch(ctx context.Context, q Query) (*ShardSearchResult, error) {
	var out ShardSearchResult
	if err := c.do(ctx, http.MethodPost, "/v1/shard/search", q, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShardExpand fetches the shard-local optimistic k-core closure around the
// given seeds (which this shard must own).
func (c *Client) ShardExpand(ctx context.Context, k int, seeds []int64) (*ShardExpansion, error) {
	req := struct {
		K     int     `json:"k"`
		Seeds []int64 `json:"seeds"`
	}{k, seeds}
	var out ShardExpansion
	if err := c.do(ctx, http.MethodPost, "/v1/shard/expand", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShardRange fetches every vertex the shard owns inside the closed disk of
// radius r around (x, y).
func (c *Client) ShardRange(ctx context.Context, x, y, r float64) ([]ShardVertex, error) {
	req := struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
		R float64 `json:"r"`
	}{x, y, r}
	var out struct {
		Members []ShardVertex `json:"members"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/shard/range", req, &out); err != nil {
		return nil, err
	}
	return out.Members, nil
}

// ShardInfo fetches shard info from any endpoint of the set.
func (s *Set) ShardInfo(ctx context.Context) (*ShardInfo, error) {
	return forward(s.read, func(c *Client) (*ShardInfo, error) { return c.ShardInfo(ctx) })
}

// ShardSearch asks any endpoint of the set for its certified verdict on q.
func (s *Set) ShardSearch(ctx context.Context, q Query) (*ShardSearchResult, error) {
	return forward(s.read, func(c *Client) (*ShardSearchResult, error) { return c.ShardSearch(ctx, q) })
}

// ShardExpand fetches the shard-local closure from any endpoint of the set.
func (s *Set) ShardExpand(ctx context.Context, k int, seeds []int64) (*ShardExpansion, error) {
	return forward(s.read, func(c *Client) (*ShardExpansion, error) { return c.ShardExpand(ctx, k, seeds) })
}

// ShardRange fetches the in-disk owned vertices from any endpoint of the
// set.
func (s *Set) ShardRange(ctx context.Context, x, y, r float64) ([]ShardVertex, error) {
	return forward(s.read, func(c *Client) ([]ShardVertex, error) { return c.ShardRange(ctx, x, y, r) })
}

// Health fetches /v1/health from any endpoint of the set.
func (s *Set) Health(ctx context.Context) (*Health, error) {
	return forward(s.read, func(c *Client) (*Health, error) { return c.Health(ctx) })
}
