package server

import (
	"net/http"

	"sacsearch/internal/core"
	"sacsearch/internal/httpapi"
	"sacsearch/internal/subscribe"
	"sacsearch/internal/wire"
)

// handleSubscribe serves GET /v1/subscribe through the shared handler; the
// server's part is the read gate and validation against its own snapshot.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	eng, ok := s.readEngine(w, r)
	if !ok {
		return
	}
	s.api.ServeSubscribe(w, r, s.subs, func(cq core.Query) error {
		sn := eng.Current()
		worker := sn.Get()
		defer sn.Put(worker)
		return worker.ValidateQuery(cq)
	})
}

// handleShardWatch serves GET /v1/shard/watch: the shard's publication
// firehose, consumed by routers to drive their own standing-query gates.
func (s *Server) handleShardWatch(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.readEngine(w, r); !ok {
		return
	}
	lastID, hasLast := subscribe.ParseLastEventID(r)
	st, replay, err := s.feed.Attach(lastID, hasLast)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		httpapi.WriteError(w, r, http.StatusServiceUnavailable, wire.CodeNotReady, "", "server draining")
		return
	}
	defer s.feed.Detach(st)
	subscribe.ServeSSE(w, r, st, replay)
}
