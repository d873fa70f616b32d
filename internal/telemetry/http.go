// HTTP serving instruments shared by the server and the router: both
// daemons expose the same sac_http_* families so one dashboard reads the
// whole topology.
package telemetry

import "strings"

// HTTPMetrics bundles the per-request instruments the serving middleware
// observes. The zero value (all nil instruments, from a nil registry) is a
// valid no-op.
type HTTPMetrics struct {
	// Requests counts finished requests by route, method and status code.
	Requests *CounterVec
	// Duration is request wall time by route.
	Duration *HistogramVec
	// Inflight is the number of requests being served right now.
	Inflight *Gauge
}

// NewHTTPMetrics registers (get-or-create) the sac_http_* families on reg.
// A nil reg yields the no-op zero value.
func NewHTTPMetrics(reg *Registry) HTTPMetrics {
	return HTTPMetrics{
		Requests: reg.CounterVec("sac_http_requests_total",
			"HTTP requests served, by route, method and status code.",
			"route", "method", "code"),
		Duration: reg.HistogramVec("sac_http_request_duration_seconds",
			"HTTP request wall time by route.", nil, "route"),
		Inflight: reg.Gauge("sac_http_inflight", "HTTP requests currently being served."),
	}
}

// RouteLabel maps a request path onto a bounded label set: known routes
// keep their path (vertex ids collapse to {id}), everything else becomes
// "other" so an URL-scanning crawler cannot mint unbounded label values.
func RouteLabel(path string) string {
	if path == "/metrics" {
		return "/metrics"
	}
	rest, ok := strings.CutPrefix(path, "/v1/")
	if !ok {
		return "other"
	}
	seg, tail, _ := strings.Cut(rest, "/")
	switch seg {
	case "health", "ready", "algorithms", "query", "batch", "checkin", "edge", "subscribe":
		return "/v1/" + seg
	case "vertex":
		return "/v1/vertex/{id}"
	case "shard":
		verb, _, _ := strings.Cut(tail, "/")
		switch verb {
		case "info", "search", "expand", "watch":
			return "/v1/shard/" + verb
		}
	}
	return "other"
}

// MethodLabel maps a request method onto a bounded label set: the nine
// standard methods keep their name and everything else becomes "other" —
// net/http accepts any token as a method, so a client could otherwise mint
// one series per method it makes up.
func MethodLabel(method string) string {
	switch method {
	case "GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "CONNECT", "OPTIONS", "TRACE":
		return method
	}
	return "other"
}
