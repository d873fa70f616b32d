// Trace spans: a per-request tree of timed operations carried on
// context.Context. Spans are process-local and cheap (an atomic id, a
// timestamp, a slice append under a small mutex); cross-process
// correlation rides on two headers — X-Request-Id names the request,
// X-Trace-Span carries the calling span's id so the callee can record
// which parent it served. The rendered tree is what the slow-query log
// prints.
package telemetry

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header carrying the caller's span id on
// outbound requests; servers echo their own root span id in the same
// header on responses.
const TraceHeader = "X-Trace-Span"

// spanIDs hands out process-unique span ids. Ids are small decimal
// strings, unique within a process lifetime — combined with the request
// id they identify a span globally enough for log correlation.
var spanIDs atomic.Uint64

// Span is one timed operation. Create with StartSpan, finish with End.
// All methods are nil-safe so un-traced code paths cost nothing.
type Span struct {
	Name string
	// ID is this span's process-local id.
	ID string
	// Remote is the calling span's id from the X-Trace-Span request
	// header, linking this tree to the caller's tree across processes.
	Remote string

	mu       sync.Mutex
	start    time.Time
	end      time.Time
	parent   *Span
	children []*Span
	attrs    []string // "k=v" pairs, render-ready
}

type spanKey struct{}

// StartSpan begins a span named name. If ctx already carries a span the
// new one becomes its child; otherwise it is a root. Returns the derived
// context (carrying the new span) and the span itself. Always call End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{Name: name, ID: strconv.FormatUint(spanIDs.Add(1), 10), start: time.Now()}
	if parent, _ := ctx.Value(spanKey{}).(*Span); parent != nil {
		s.parent = parent
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// End marks the span finished. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr attaches a key=value annotation rendered in the tree dump.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, fmt.Sprintf("%s=%v", key, value))
	s.mu.Unlock()
}

// Duration returns the span's elapsed time — end minus start when ended,
// time since start otherwise. Zero on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Root walks up to the tree's root span (itself if parentless).
func (s *Span) Root() *Span {
	if s == nil {
		return nil
	}
	for s.parent != nil {
		s = s.parent
	}
	return s
}

// Children returns a snapshot of the span's direct children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Tree renders the span and its descendants as an indented multi-line
// dump — one line per span with id, duration and attributes — the format
// the slow-query log emits.
//
//	query span=12 1.2ms algo=exact
//	  shard-leg span=13 0.8ms shard=0
func (s *Span) Tree() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.writeTree(&b, 0)
	return strings.TrimRight(b.String(), "\n")
}

func (s *Span) writeTree(b *strings.Builder, depth int) {
	s.mu.Lock()
	name, id, remote := s.Name, s.ID, s.Remote
	attrs := append([]string(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	var dur time.Duration
	if s.end.IsZero() {
		dur = time.Since(s.start)
	} else {
		dur = s.end.Sub(s.start)
	}
	s.mu.Unlock()

	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s span=%s %s", name, id, dur.Round(time.Microsecond))
	if remote != "" {
		fmt.Fprintf(b, " remote=%s", remote)
	}
	for _, a := range attrs {
		b.WriteByte(' ')
		b.WriteString(a)
	}
	b.WriteByte('\n')
	for _, c := range children {
		c.writeTree(b, depth+1)
	}
}
