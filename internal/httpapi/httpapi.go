// Package httpapi is the HTTP half of the serving core shared by the two
// front-ends, internal/server (one engine) and internal/router (a sharded
// topology). Everything a client can observe that is not a route's own
// payload is decided here, once, so a router stays indistinguishable from one
// big server:
//
//   - Core.Serve, the request middleware: request id (a plain caller-supplied
//     X-Request-Id is honoured, anything else replaced), the request's root
//     trace span echoed in X-Trace-Span and linked to the caller's, the
//     sac_http_* instruments, panic → 500 envelope, the slow-request log and
//     the TraceHook.
//   - The error envelope (wire.Error and its codes): WriteJSON, WriteError,
//     WriteQueryError, and the size-capped Core.DecodeJSON; and WriteResult,
//     the one writer of a /v1/query answer (wire.AppendResult's layout).
//   - The boundary between the /v1 schema, declared once in internal/wire,
//     and the engine's types (convert.go): CoreQuery / WireQuery / WireResult,
//     the one checked narrowing of a wire vertex id to graph.V, and the
//     request validators both front-ends run.
//   - ServeBatch, the POST /v1/batch body (batch.go): template check, per-item
//     narrowing and validation, the fan-out, the one deadline rule; each item
//     is answered by the function that answers the front-end's /v1/query.
//   - Core.ServeSubscribe, the GET /v1/subscribe register / resume / attach /
//     SSE handler (subscribe.go).
//
// A front-end keeps only what genuinely differs: its routes, the prefix of
// the request ids it mints, how it answers one query, and its own error
// mappings (the server's write errors, the router's shard-leg errors). The
// standing-query half of the core — when a subscription is
// re-evaluated, and the argument for why skipping is sound — is
// internal/subscribe's Dispatcher.
package httpapi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"sacsearch/internal/telemetry"
	"sacsearch/internal/wire"
)

// Core carries one front-end's settings for the shared HTTP layer. The
// front-end fills the exported fields once at construction, from its own
// Config, and must not copy the Core afterwards.
type Core struct {
	// IDPrefix starts every request id minted here: "req-" on a server,
	// "rtr-" on a router, so a log line names the tier that assigned it.
	IDPrefix string
	// Logger receives recovered panics and slow requests, keyed by request
	// and span id. Nil means slog.Default().
	Logger *slog.Logger
	// Metrics are the sac_http_* instruments (the zero value no-ops).
	Metrics telemetry.HTTPMetrics
	// SlowRequest, when positive, logs any non-streaming request slower than
	// this at Warn level with its full span tree.
	SlowRequest time.Duration
	// TraceHook, when set, receives every request's finished root span.
	TraceHook func(*telemetry.Span)
	// MaxBodyBytes caps every body DecodeJSON reads. Non-positive means 1 MiB.
	MaxBodyBytes int64

	nextID atomic.Uint64 // request-id fallback counter
}

func (c *Core) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.Default()
}

// Serve runs one request through mux with the shared request discipline: it
// assigns the request id, starts the request's root trace span (linking it to
// the caller's span when the X-Trace-Span header names one), and on the way
// out observes the sac_http_* metrics, logs slow requests with their full
// span tree, and hands the finished span to TraceHook. A handler panic is
// recovered here: the stack is logged with the request and span ids, and — if
// the handler had not started its response — the client gets a 500 envelope
// instead of a severed connection. A request no route of mux takes gets the
// envelope too: 404 or 405 (with Allow), code unknown_route.
func (c *Core) Serve(w http.ResponseWriter, r *http.Request, mux *http.ServeMux) {
	id := sanitizeRequestID(r.Header.Get("X-Request-Id"))
	if id == "" {
		id = c.newRequestID()
	}
	w.Header().Set("X-Request-Id", id)
	route, method := telemetry.RouteLabel(r.URL.Path), telemetry.MethodLabel(r.Method)
	ctx := context.WithValue(r.Context(), requestIDKey{}, id)
	ctx, span := telemetry.StartSpan(ctx, method+" "+route)
	span.Remote = sanitizeRequestID(r.Header.Get(telemetry.TraceHeader))
	w.Header().Set(telemetry.TraceHeader, span.ID)
	r = r.WithContext(ctx)
	rw := &trackingWriter{ResponseWriter: w}
	start := time.Now()
	c.Metrics.Inflight.Add(1)
	defer func() {
		p := recover()
		if p != nil && p != http.ErrAbortHandler {
			c.logger().Error("panic serving request",
				"method", r.Method, "path", r.URL.Path, "requestId", id,
				"spanId", span.ID, "panic", p, "stack", string(debug.Stack()))
			if !rw.wrote {
				WriteError(rw, r, http.StatusInternalServerError, wire.CodeInternal, "",
					"internal server error (request "+id+")")
			}
		}
		span.End()
		elapsed := time.Since(start)
		c.Metrics.Inflight.Add(-1)
		c.Metrics.Requests.With(route, method, strconv.Itoa(rw.status())).Inc()
		c.Metrics.Duration.With(route).Observe(elapsed.Seconds())
		// A stream's lifetime is its consumer's choice, not a latency: SSE
		// responses never count as slow.
		if t := c.SlowRequest; t > 0 && elapsed >= t && !rw.streaming() {
			c.logger().Warn("slow request",
				"method", r.Method, "route", route, "requestId", id, "spanId", span.ID,
				"elapsed", elapsed, "status", rw.status(), "trace", "\n"+span.Tree())
		}
		if c.TraceHook != nil {
			c.TraceHook(span)
		}
	}()
	if _, pattern := mux.Handler(r); pattern == "" {
		mux.ServeHTTP(unrouted{rw, r}, r)
		return
	}
	mux.ServeHTTP(rw, r)
}

// unrouted carries net/http's answer to a request no route takes — 404, 405
// with Allow, or a redirect to the cleaned path — without its plain-text
// body, and a 404 or 405 as the envelope.
type unrouted struct {
	http.ResponseWriter
	r *http.Request
}

func (u unrouted) WriteHeader(code int) {
	if code == http.StatusNotFound || code == http.StatusMethodNotAllowed {
		WriteError(u.ResponseWriter, u.r, code, wire.CodeUnknownRoute, "", "no route takes "+u.r.Method+" "+u.r.URL.Path)
		return
	}
	u.ResponseWriter.WriteHeader(code)
}

func (unrouted) Write(b []byte) (int, error) { return len(b), nil }

// trackingWriter records whether the response has started (so the panic
// recovery knows if a 500 envelope can still be sent) and the status code
// (for the request metrics).
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
	code  int
}

func (w *trackingWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
	}
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's Flush
// and SetWriteDeadline — the SSE handlers need both.
func (w *trackingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// status is the response code sent to the client (200 when the handler
// never called WriteHeader explicitly).
func (w *trackingWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// streaming reports whether the handler answered with a Server-Sent Events
// stream (subscribe.ServeSSE sets the content type before its first write).
func (w *trackingWriter) streaming() bool {
	return w.Header().Get("Content-Type") == "text/event-stream"
}

type requestIDKey struct{}

// RequestID returns the id Serve assigned to this request.
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// sanitizeRequestID accepts a caller-supplied request id (or span id, or
// subscription id) only if it is short and plain (letters, digits, dot,
// dash, underscore) — anything else is discarded and replaced server-side.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return ""
		}
	}
	return id
}

// newRequestID generates a fresh request id.
func (c *Core) newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%s%012d", c.IDPrefix, c.nextID.Add(1))
	}
	return c.IDPrefix + hex.EncodeToString(b[:])
}
