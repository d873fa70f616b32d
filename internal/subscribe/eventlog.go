package subscribe

import (
	"encoding/json"
	"slices"
	"sync"

	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

// eventLog is the delivery machinery a subscription (Sub) and a shard's
// publication feed (Feed) share: a sequence of events, the ring of the last
// ringLen of them for Last-Event-ID resume, and the attached streams with
// slow-consumer shedding. Both embed it; mu guards everything below it and
// whatever else its owner keeps under the same lock.
type eventLog struct {
	streamBuf int                // each attached stream's buffer; set at construction
	sheds     *telemetry.Counter // counts shed streams; set at construction

	mu      sync.Mutex
	ring    []Event // contiguous seqs, at most ringLen
	nextSeq uint64  // seq the next event will take (first event = 1)
	streams map[*Stream]struct{}
	closed  bool
}

// Stream is one attached consumer. Read events from C; when Shed is closed
// the consumer fell a full buffer behind and the server dropped it — close
// the transport and let the client resume with Last-Event-ID.
type Stream struct {
	C    chan Event
	Shed chan struct{}
	shed bool // guarded by the owning log's mu
}

// append seals the payload built for the next sequence number into the ring
// and delivers it to every live stream without ever blocking: a stream whose
// buffer is full is shed instead. Caller holds mu.
func (l *eventLog) append(kind string, payload func(seq uint64) any) {
	if l.nextSeq == 0 {
		l.nextSeq = 1
	}
	data, err := json.Marshal(payload(l.nextSeq))
	if err != nil { // payloads are plain numbers and strings; cannot happen
		return
	}
	ev := Event{Seq: l.nextSeq, Kind: kind, Data: data}
	l.nextSeq++
	l.ring = append(l.ring, ev)
	if len(l.ring) > ringLen {
		copy(l.ring, l.ring[len(l.ring)-ringLen:])
		l.ring = l.ring[:ringLen]
	}
	for st := range l.streams {
		if st.shed {
			continue
		}
		select {
		case st.C <- ev:
		default:
			st.shed = true
			close(st.Shed)
			l.sheds.Inc()
		}
	}
}

// attach adds a consumer stream and returns what it must see before reading
// live events from it: nothing when lastEventID is the latest event, the ring
// events after a lastEventID the ring still reaches, and otherwise — a fresh
// attach, or a resume that outran the ring — the one frame synth builds for
// the state after the latest event (a full init for a subscription, a resync
// for a feed). A nil synth means there is no state to synthesize from yet.
// Caller holds mu.
func (l *eventLog) attach(lastEventID uint64, hasLast bool, synth func(latest uint64) Event) (*Stream, []Event) {
	st := &Stream{C: make(chan Event, l.streamBuf), Shed: make(chan struct{})}
	l.streams[st] = struct{}{}
	var latest uint64
	if l.nextSeq > 0 {
		latest = l.nextSeq - 1
	}
	if synth == nil || (hasLast && lastEventID == latest) {
		return st, nil
	}
	if hasLast && lastEventID < latest && len(l.ring) > 0 && l.ring[0].Seq <= lastEventID+1 {
		return st, slices.Clone(l.ring[lastEventID+1-l.ring[0].Seq:])
	}
	return st, []Event{synth(latest)}
}

// bye closes the log: the terminal event goes to every stream that can still
// take it (a full buffer outranks the goodbye), after whatever it already
// buffered, and every stream is closed. A second bye is a no-op. Caller
// holds mu.
func (l *eventLog) bye(payload wire.Bye) {
	if l.closed {
		return
	}
	l.closed = true
	if l.nextSeq == 0 {
		l.nextSeq = 1
	}
	data, _ := json.Marshal(payload)
	ev := Event{Seq: l.nextSeq, Kind: KindBye, Data: data}
	l.nextSeq++
	for st := range l.streams {
		if !st.shed {
			select {
			case st.C <- ev:
			default:
			}
		}
		close(st.C)
	}
	l.streams = make(map[*Stream]struct{})
}
