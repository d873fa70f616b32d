package subscribe

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// ParseLastEventID reads the SSE resume header. ok is false when absent or
// malformed (a malformed header is treated as a fresh attach, per the SSE
// convention of ignoring unparsable ids).
func ParseLastEventID(r *http.Request) (id uint64, ok bool) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// heartbeat is the interval between the comment lines that keep
// intermediaries from closing an idle stream.
const heartbeat = 15 * time.Second

// ServeSSE pumps one attached stream over a text/event-stream response:
// replay first, then live events, with a comment line every heartbeat
// interval so intermediaries keep the connection alive. It returns when the
// client disconnects, the stream is shed (slow consumer) or closed (drain —
// the terminal bye event has then already been written), or a write fails.
// The caller owns Attach/Detach.
func ServeSSE(w http.ResponseWriter, r *http.Request, st *Stream, replay []Event) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	rc := http.NewResponseController(w)
	// Streams outlive the server's per-response write timeout by design;
	// slow consumers are handled by shedding, dead peers by the client
	// disconnect firing r.Context().
	_ = rc.SetWriteDeadline(time.Time{})
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()
	for _, ev := range replay {
		if writeEvent(w, ev) != nil {
			return
		}
	}
	_ = rc.Flush()
	hb := time.NewTicker(heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-st.Shed:
			return
		case ev, ok := <-st.C:
			if !ok {
				return
			}
			if writeEvent(w, ev) != nil {
				return
			}
			bye := ev.Kind == KindBye
			// Drain whatever else is buffered before flushing once.
			for more := true; more && !bye; {
				select {
				case ev, ok := <-st.C:
					if !ok {
						more = false
					} else if writeEvent(w, ev) != nil {
						return
					} else {
						bye = ev.Kind == KindBye
					}
				default:
					more = false
				}
			}
			_ = rc.Flush()
			if bye {
				return
			}
		case <-hb.C:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			_ = rc.Flush()
		}
	}
}

func writeEvent(w http.ResponseWriter, ev Event) error {
	_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, ev.Data)
	return err
}
