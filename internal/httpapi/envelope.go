package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"sacsearch/internal/core"
	"sacsearch/internal/wire"
)

// WriteJSON writes v with the given status; encoding errors are reported to
// the client only through a truncated body (the status line is already out).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// resultBufs holds the buffers WriteResult encodes into.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteResult writes a 200 /v1/query answer, for the server and the router
// alike: res in wire.AppendResult's layout — the bytes WriteJSON would write —
// appended into a pooled buffer and sent with its length. A result
// encoding/json would refuse (a non-finite float) gets the 500 envelope.
func WriteResult(w http.ResponseWriter, r *http.Request, res *wire.Result) {
	bp := resultBufs.Get().(*[]byte)
	defer resultBufs.Put(bp)
	body, err := wire.AppendResult((*bp)[:0], res)
	if err != nil {
		WriteError(w, r, http.StatusInternalServerError, wire.CodeInternal, "", "encoding the result: "+err.Error())
		return
	}
	*bp = body
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write is the client gone; there is no one to tell
}

// WriteError emits the structured envelope on every non-2xx path.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, field, msg string) {
	WriteJSON(w, status, wire.Error{Error: msg, Code: code, Field: field, RequestID: RequestID(r)})
}

// WriteQueryError maps a query error onto a status code and envelope — one
// mapping, so a router-local assembly run and a single server produce the
// same response for the same failure.
func WriteQueryError(w http.ResponseWriter, r *http.Request, err error) {
	var qe *core.QueryError
	switch {
	case errors.As(err, &qe):
		WriteError(w, r, http.StatusBadRequest, qe.Code, qe.Field, err.Error())
	case errors.Is(err, core.ErrNoCommunity):
		WriteError(w, r, http.StatusNotFound, wire.CodeNoCommunity, "", err.Error())
	case errors.Is(err, core.ErrCanceled):
		// The deadline fired (a vanished client never reads the response, so
		// in practice this status reports server-side timeouts).
		WriteError(w, r, http.StatusServiceUnavailable, wire.CodeDeadlineExceeded, "", err.Error())
	default:
		WriteError(w, r, http.StatusUnprocessableEntity, wire.CodeQueryFailed, "", err.Error())
	}
}

// DecodeJSON decodes a request body under the size cap, translating an
// exceeded cap into 413 and malformed JSON into 400. It reports whether
// decoding succeeded; on failure the response has been written.
func (c *Core) DecodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	limit := c.MaxBodyBytes
	if limit <= 0 {
		limit = 1 << 20
	}
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, r, http.StatusRequestEntityTooLarge, wire.CodeBodyTooLarge, "",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		WriteError(w, r, http.StatusBadRequest, wire.CodeInvalidJSON, "", "invalid JSON: "+err.Error())
		return false
	}
	return true
}
