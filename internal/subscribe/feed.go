package subscribe

import (
	"encoding/json"

	"sacsearch/internal/snapshot"
	"sacsearch/internal/wire"
)

// Feed event kinds on the /v1/shard/watch wire.
const (
	KindPub    = "pub"    // one publication's change summary
	KindResync = "resync" // the watcher's view is stale: re-evaluate everything
)

// Feed is a shard's publication firehose: every published snapshot becomes
// one compact change-summary event fanned to attached watchers (routers)
// over SSE, with the same ring/resume/shed machinery as subscription
// streams. It is the raw signal a router's own invalidation gates run on.
type Feed struct {
	eventLog
}

// NewFeed builds a publication feed; opt supplies the stream buffer size
// (metrics feed only the shed counter — evaluation metrics belong to the
// router consuming the feed).
func NewFeed(opt Options) *Feed {
	return &Feed{eventLog: eventLog{
		streamBuf: opt.streamBuf(),
		sheds: opt.Metrics.Counter("sac_shard_watch_sheds_total",
			"Shard-watch streams dropped for falling more than one buffer behind."),
		streams: make(map[*Stream]struct{}),
	}}
}

// Notify is the engine's post-publish hook: it summarizes one publication
// (check-ins deduplicated, edges verbatim) into a feed event. A nil events
// slice — an engine swap after a replica resync — becomes a resync frame.
func (f *Feed) Notify(snap *snapshot.Snap, events []snapshot.AppliedEvent) {
	var payload wire.WatchEvent
	if snap != nil {
		payload.SnapSeq = snap.Seq()
	}
	if events == nil {
		payload.Resync = true
	} else {
		seen := make(map[int64]struct{}, len(events))
		for i := range events {
			ev := &events[i]
			if ev.Checkin {
				v := int64(ev.V)
				if _, dup := seen[v]; !dup {
					seen[v] = struct{}{}
					payload.Checkins = append(payload.Checkins, v)
				}
			} else {
				payload.Edges = append(payload.Edges, [2]int64{int64(ev.U), int64(ev.W)})
			}
		}
	}
	kind := KindPub
	if payload.Resync {
		kind = KindResync
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.append(kind, func(seq uint64) any {
		payload.Seq = seq
		return payload
	})
}

// Attach adds a watcher. The replay is either the ring tail after a
// resumable Last-Event-ID, or a single synthesized resync frame telling the
// watcher its view (if any) is stale.
func (f *Feed) Attach(lastEventID uint64, hasLast bool) (*Stream, []Event, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, nil, ErrClosed
	}
	st, replay := f.attach(lastEventID, hasLast, func(latest uint64) Event {
		data, _ := json.Marshal(wire.WatchEvent{Seq: latest, Resync: true})
		return Event{Seq: latest, Kind: KindResync, Data: data}
	})
	return st, replay, nil
}

// Detach removes a watcher stream.
func (f *Feed) Detach(st *Stream) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.streams, st)
}

// Close drains the feed: every watcher gets a terminal bye and its stream
// is closed; later Notify calls are dropped.
func (f *Feed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bye(wire.Bye{Reason: "server draining"})
}
