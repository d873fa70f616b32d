package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The byte layout of a /v1/query answer, declared once for both ends: the
// servers write it with AppendResult and the typed client reads it with
// DecodeResult. The layout is exactly what json.NewEncoder(w).Encode(r)
// writes for a Result — the golden rows pin it — so the codec is not a second
// schema: it is encoding/json's output for this one struct, spelled without
// reflection, which on a hot answer of a few thousand ids cost more than
// finding the answer did.

// AppendResult appends r to dst as json.NewEncoder(w).Encode(r) writes it,
// byte for byte: the trailing newline, encoding/json's float format (the
// shortest 'f' form, 'e' below 1e-6 and from 1e21 on, e-07 written e-7),
// null for nil Members and HTML-escaped strings. Like encoding/json it
// refuses a NaN or infinite float, returning dst unchanged and the error
// json.Marshal would give.
func AppendResult(dst []byte, r *Result) ([]byte, error) {
	out := append(dst, `{"q":`...)
	out = strconv.AppendInt(out, r.Q, 10)
	out = append(out, `,"k":`...)
	out = strconv.AppendInt(out, int64(r.K), 10)
	out = append(out, `,"members":`...)
	if r.Members == nil {
		out = append(out, "null"...)
	} else {
		out = appendIDs(out, r.Members)
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"mcc":{"x":`, r.MCC.X}, {`,"y":`, r.MCC.Y}, {`,"r":`, r.MCC.R}, {`},"delta":`, r.Delta}} {
		if math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f.v, 'g', -1, 64)}
		}
		out = appendFloat(append(out, f.key...), f.v)
	}
	st := &r.Stats
	out = append(out, `,"stats":{"candidateSize":`...)
	out = strconv.AppendInt(out, int64(st.CandidateSize), 10)
	out = append(out, `,"feasibilityChecks":`...)
	out = strconv.AppendInt(out, int64(st.FeasibilityChecks), 10)
	out = append(out, `,"binaryIters":`...)
	out = strconv.AppendInt(out, int64(st.BinaryIters), 10)
	out = append(out, elapsedKey...)
	out = strconv.AppendInt(out, st.ElapsedMicros, 10)
	out = append(out, algorithmKey...)
	out = appendString(out, st.Algorithm)
	return append(out, "}}\n"...), nil
}

// The keys around stats.elapsedMicros, the one value AppendElapsed changes.
const elapsedKey, algorithmKey = `,"elapsedMicros":`, `,"algorithm":`

// AppendElapsed appends body, a Result in AppendResult's layout, with its
// stats.elapsedMicros replaced by micros: an answer stored once and served
// again reports the time of the call that served it. The key is found from
// the end, where it is the last but one, so no member id or float is read.
func AppendElapsed(dst, body []byte, micros int64) []byte {
	at := bytes.LastIndex(body, []byte(elapsedKey)) + len(elapsedKey)
	end := at + bytes.Index(body[at:], []byte(algorithmKey))
	dst = append(dst, body[:at]...)
	dst = strconv.AppendInt(dst, micros, 10)
	return append(dst, body[end:]...)
}

// appendIDs formats ids as a JSON array of integers.
func appendIDs(dst []byte, ids []int64) []byte {
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, id, 10)
	}
	return append(dst, ']')
}

// appendFloat is encoding/json's float64 encoding (ES6 number-to-string).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json writes it.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString quotes s as encoding/json does. A name of printable ASCII
// that needs no escape — every registry name — is copied; anything else is
// left to encoding/json, escaping rules and all.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// DecodeResult decodes raw into r: the value json.Unmarshal(raw, r) gives,
// and the error it gives. Input in AppendResult's layout — no whitespace but
// a trailing run, the keys in order, strings of printable ASCII with no
// escape, integers that fit their field — is read in one pass; anything else,
// valid (other whitespace or key order, an unknown key, a string escape) or
// not, goes to json.Unmarshal itself.
func DecodeResult(raw []byte, r *Result) error {
	if decodeFast(raw, r) {
		return nil
	}
	return json.Unmarshal(raw, r)
}

// decodeFast is DecodeResult's single pass. It reports false, with r
// untouched, at the first byte outside the layout.
func decodeFast(raw []byte, r *Result) bool {
	d := reader{b: raw}
	var out Result
	ok := d.lit(`{"q":`) && d.int64(&out.Q) &&
		d.lit(`,"k":`) && d.int(&out.K) &&
		d.lit(`,"members":`) && d.members(&out.Members) &&
		d.lit(`,"mcc":{"x":`) && d.float(&out.MCC.X) &&
		d.lit(`,"y":`) && d.float(&out.MCC.Y) &&
		d.lit(`,"r":`) && d.float(&out.MCC.R) &&
		d.lit(`},"delta":`) && d.float(&out.Delta) &&
		d.lit(`,"stats":{"candidateSize":`) && d.int(&out.Stats.CandidateSize) &&
		d.lit(`,"feasibilityChecks":`) && d.int(&out.Stats.FeasibilityChecks) &&
		d.lit(`,"binaryIters":`) && d.int(&out.Stats.BinaryIters) &&
		d.lit(elapsedKey) && d.int64(&out.Stats.ElapsedMicros) &&
		d.lit(algorithmKey) && d.str(&out.Stats.Algorithm) &&
		d.lit(`}}`) && d.end()
	if ok {
		*r = out
	}
	return ok
}

// reader is decodeFast's cursor. Each method consumes one token of the
// layout and reports whether it was there.
type reader struct {
	b []byte
	i int
}

func (d *reader) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// int64 reads a JSON integer that fits an int64 (at most 19 digits, which
// no uint64 overflows, then a range check). Whatever follows is the next
// token's to accept: a fraction or an exponent fails there and sends the
// input to json.Unmarshal, which refuses it for an integer field.
func (d *reader) int64(v *int64) bool {
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	if digits := i - start; digits == 0 || digits > 19 || digits > 1 && b[start] == '0' {
		return false
	}
	switch {
	case !neg && u <= math.MaxInt64:
		*v = int64(u)
	case neg && u <= -math.MinInt64:
		*v = -int64(u) // u = 2^63 wraps to MinInt64, as it should
	default:
		return false
	}
	d.i = i
	return true
}

// int reads an integer into an int field, leaving one that does not fit the
// platform's int to json.Unmarshal's range error.
func (d *reader) int(v *int) bool {
	var n int64
	if !d.int64(&n) || int64(int(n)) != n {
		return false
	}
	*v = int(n)
	return true
}

// float reads a number by the JSON grammar and converts it as encoding/json
// does; an out-of-range value is left to json.Unmarshal's error.
func (d *reader) float(v *float64) bool {
	b, i := d.b, d.i
	digits := func() int {
		start := i
		for i < len(b) && b[i]-'0' <= 9 {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	first := i
	if n := digits(); n == 0 || n > 1 && b[first] == '0' {
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(b[d.i:i]), 64)
	if err != nil {
		return false
	}
	*v, d.i = f, i
	return true
}

// members reads null or an array of integers, sized by one count of its
// commas.
func (d *reader) members(v *[]int64) bool {
	if d.lit("null") {
		*v = nil
		return true
	}
	if !d.lit("[") {
		return false
	}
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		return false
	}
	end += d.i
	ms := make([]int64, 0, bytes.Count(d.b[d.i:end], []byte{','})+1)
	for d.i < end {
		if len(ms) > 0 {
			if d.b[d.i] != ',' {
				return false
			}
			d.i++
		}
		var m int64
		if !d.int64(&m) {
			return false
		}
		ms = append(ms, m)
	}
	d.i++ // an id stops at the ']', so d.i == end here
	*v = ms
	return true
}

// str reads a string of printable ASCII with no escape.
func (d *reader) str(v *string) bool {
	if !d.lit(`"`) {
		return false
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			*v = string(d.b[start:d.i])
			d.i++
			return true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return false
		}
	}
	return false
}

// end accepts the JSON whitespace a body may end with (Encode's newline).
func (d *reader) end() bool {
	for ; d.i < len(d.b); d.i++ {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}
