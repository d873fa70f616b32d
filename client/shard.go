package client

import (
	"context"
	"net/http"

	"sacsearch/internal/wire"
)

// The /v1/shard/* methods speak the router-facing shard protocol. They are
// what sacrouter uses against each shard's endpoint group; ordinary
// applications talk to the router's /v1 surface and never need these.

// The shard protocol's shapes, declared and documented in internal/wire.
type (
	ShardInfo         = wire.ShardInfo
	ShardSearchResult = wire.ShardSearchResult
	ShardVertex       = wire.ShardVertex
	ShardExpansion    = wire.ShardExpansion
)

// ShardInfo fetches /v1/shard/info.
func (c *Client) ShardInfo(ctx context.Context) (*ShardInfo, error) {
	return call[ShardInfo](ctx, c, http.MethodGet, "/v1/shard/info", nil)
}

// ShardSearch asks one shard for its certified verdict on q.
func (c *Client) ShardSearch(ctx context.Context, q Query) (*ShardSearchResult, error) {
	return call[ShardSearchResult](ctx, c, http.MethodPost, "/v1/shard/search", q)
}

// ShardExpand fetches the shard-local optimistic k-core closure around the
// given seeds (which this shard must own).
func (c *Client) ShardExpand(ctx context.Context, k int, seeds []int64) (*ShardExpansion, error) {
	return call[ShardExpansion](ctx, c, http.MethodPost, "/v1/shard/expand", wire.ShardExpandRequest{K: k, Seeds: seeds})
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

// Health fetches /v1/health from any endpoint of the set.
func (s *Set) Health(ctx context.Context) (*Health, error) {
	return forward(s.read, func(c *Client) (*Health, error) { return c.Health(ctx) })
}
