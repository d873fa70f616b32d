package wire_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sacsearch/internal/core"
	"sacsearch/internal/wire"
)

// encoded is what the servers wrote before the codec existed:
// json.NewEncoder(w).Encode(r). ok is false when encoding/json refuses r.
func encoded(r *wire.Result) (out []byte, ok bool) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err == nil
}

// algoNames is every name and alias the registry answers to.
func algoNames() []string {
	var names []string
	for _, spec := range core.Algorithms() {
		names = append(append(names, spec.Name), spec.Aliases...)
	}
	return names
}

// randFloat draws from the ranges where encoding/json's format changes:
// below 1e-6 and from 1e21 on it switches to 'e' (and trims e-07 to e-7),
// −0 keeps its sign, and subnormals and the extremes stress the shortest
// round-trip digits.
func randFloat(rnd *rand.Rand) float64 {
	sign := float64(1 - 2*rnd.Intn(2))
	switch rnd.Intn(9) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * rnd.Float64() * 1e-6
	case 2:
		return sign * math.Pow(10, -7-rnd.Float64()*300)
	case 3:
		return sign * 1e21 * (1 + rnd.Float64()*1e3)
	case 4:
		return sign * math.Pow(10, 21+rnd.Float64()*287)
	case 5:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rnd.Intn(1000))
	case 6:
		return sign * float64(rnd.Int63n(1<<53))
	case 7:
		return sign * []float64{1e-6, 1e21, math.MaxFloat64, 0.1, 1e20, 999999999999999900000}[rnd.Intn(6)]
	}
	return sign * rnd.Float64()
}

// randID draws ids of every width, negative ones and the int64 extremes
// included.
func randID(rnd *rand.Rand) int64 {
	switch rnd.Intn(6) {
	case 0:
		return []int64{0, -1, math.MaxInt64, math.MinInt64, 1e18, -1e18, 999999999999999999}[rnd.Intn(7)]
	case 1:
		return rnd.Int63() | 1e18 // 19 digits
	case 2:
		return -rnd.Int63()
	}
	return rnd.Int63n(1 << uint(1+rnd.Intn(40)))
}

func randResult(rnd *rand.Rand, names []string) *wire.Result {
	r := &wire.Result{
		Q:     randID(rnd),
		K:     int(randID(rnd)),
		MCC:   wire.Circle{X: randFloat(rnd), Y: randFloat(rnd), R: randFloat(rnd)},
		Delta: randFloat(rnd),
		Stats: wire.Stats{
			CandidateSize:     int(randID(rnd)),
			FeasibilityChecks: int(randID(rnd)),
			BinaryIters:       int(randID(rnd)),
			ElapsedMicros:     randID(rnd),
			Algorithm:         names[rnd.Intn(len(names))],
		},
	}
	switch n := rnd.Intn(40); {
	case n == 0: // nil: null
	case n == 1:
		r.Members = []int64{}
	default:
		r.Members = make([]int64, n)
		for i := range r.Members {
			r.Members[i] = randID(rnd)
		}
	}
	return r
}

// TestAppendResultMatchesEncoder is the codec's property test: on random
// results, AppendResult writes the bytes json.NewEncoder(w).Encode writes,
// AppendElapsed turns them into the encoder's bytes for the same result with
// another elapsedMicros, and DecodeResult reads them back in its single pass
// to the same value.
func TestAppendResultMatchesEncoder(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	names := append(algoNames(), "")
	for i := 0; i < 5000; i++ {
		r := randResult(rnd, names)
		want, _ := encoded(r)
		got, err := wire.AppendResult([]byte("prefix"), r)
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("AppendResult differs from the encoder\n got: %s\nwant: %s", got[len("prefix"):], want)
		}
		served := *r
		served.Stats.ElapsedMicros = rnd.Int63n(1 << uint(rnd.Intn(63)))
		if rnd.Intn(4) == 0 {
			served.Stats.ElapsedMicros = -served.Stats.ElapsedMicros
		}
		wantServed, _ := encoded(&served)
		if gotServed := wire.AppendElapsed([]byte("prefix"), want, served.Stats.ElapsedMicros); !bytes.Equal(gotServed[len("prefix"):], wantServed) {
			t.Fatalf("AppendElapsed(%d) differs from the encoder\n got: %s\nwant: %s", served.Stats.ElapsedMicros, gotServed[len("prefix"):], wantServed)
		}
		var back wire.Result
		if !wire.DecodeFast(want, &back) {
			t.Fatalf("the single pass refused an encoder body: %s", want)
		}
		if !reflect.DeepEqual(&back, r) {
			t.Fatalf("decoded %+v, encoded %+v", back, *r)
		}
	}
}

// TestAppendResultStrings covers the names no registry entry has: HTML
// characters, escapes, control bytes, U+2028, invalid UTF-8. AppendResult
// must still write the encoder's bytes; DecodeResult may take either path
// but must give json.Unmarshal's value.
func TestAppendResultStrings(t *testing.T) {
	for _, name := range []string{"a<b>&c", `q"uote\`, "tab\there", "\x00\x1f\x7f", "exact +", "ünï", "\xff\xfe", "new\nline", "line\u2028sep"} {
		r := &wire.Result{Members: []int64{1}, Stats: wire.Stats{Algorithm: name}}
		want, _ := encoded(r)
		got, err := wire.AppendResult(nil, r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s (%v), want %s", name, got, err, want)
		}
		var viaJSON, viaCodec wire.Result
		if err := json.Unmarshal(got, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if err := wire.DecodeResult(got, &viaCodec); err != nil || !reflect.DeepEqual(viaCodec, viaJSON) {
			t.Fatalf("%q: DecodeResult %+v (%v), json.Unmarshal %+v", name, viaCodec, err, viaJSON)
		}
	}
}

// TestAppendResultRefusesNonFinite: encoding/json refuses NaN and ±Inf, and
// so does AppendResult, leaving dst as it was.
func TestAppendResultRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 4; field++ {
			r := &wire.Result{}
			*[]*float64{&r.MCC.X, &r.MCC.Y, &r.MCC.R, &r.Delta}[field] = f
			if _, ok := encoded(r); ok {
				t.Fatal("fixture: encoding/json accepted a non-finite float")
			}
			if got, err := wire.AppendResult([]byte("x"), r); err == nil || string(got) != "x" {
				t.Fatalf("field %d = %v: got %q, err %v", field, f, got, err)
			}
		}
	}
}

// TestDecodeResultOtherInputs: valid JSON outside the layout, and invalid
// input, decode exactly as json.Unmarshal decodes them.
func TestDecodeResultOtherInputs(t *testing.T) {
	body := `{"q":7,"k":4,"members":[1,7,9],"mcc":{"x":0.5,"y":0.25,"r":1e-7},"delta":0.125,"stats":{"candidateSize":30,"feasibilityChecks":3,"binaryIters":2,"elapsedMicros":41,"algorithm":"appfast"}}`
	var fast wire.Result
	if !wire.DecodeFast([]byte(body+"\n"), &fast) {
		t.Fatal("fixture: the layout itself took the fallback")
	}
	cases := map[string]string{
		"spaces":          strings.ReplaceAll(body, ",", ", "),
		"leading space":   " " + body,
		"key order":       strings.Replace(body, `"q":7,"k":4`, `"k":4,"q":7`, 1),
		"unknown key":     strings.Replace(body, `"q":7,`, `"explain":{"stages":[1,2]},"q":7,`, 1),
		"escaped name":    strings.Replace(body, `"appfast"`, `"app\u0066ast"`, 1),
		"key case":        strings.Replace(body, `"q":`, `"Q":`, 1),
		"null mcc":        strings.Replace(body, `{"x":0.5,"y":0.25,"r":1e-7}`, "null", 1),
		"empty members":   strings.Replace(body, `[1,7,9]`, `[]`, 1),
		"null members":    strings.Replace(body, `[1,7,9]`, `null`, 1),
		"wide id":         strings.Replace(body, `[1,7,9]`, `[1,98765432109876543210]`, 1),
		"max id":          strings.Replace(body, `[1,7,9]`, `[9223372036854775807,-9223372036854775808]`, 1),
		"past max id":     strings.Replace(body, `[1,7,9]`, `[9223372036854775808]`, 1),
		"past min id":     strings.Replace(body, `[1,7,9]`, `[-9223372036854775809]`, 1),
		"fraction id":     strings.Replace(body, `[1,7,9]`, `[1.5]`, 1),
		"exponent id":     strings.Replace(body, `[1,7,9]`, `[1e3]`, 1),
		"leading zero":    strings.Replace(body, `[1,7,9]`, `[01]`, 1),
		"trailing comma":  strings.Replace(body, `[1,7,9]`, `[1,]`, 1),
		"float overflow":  strings.Replace(body, `0.125`, `1e999`, 1),
		"bare dot":        strings.Replace(body, `0.125`, `.125`, 1),
		"string number":   strings.Replace(body, `0.125`, `"0.125"`, 1),
		"trailing junk":   body + "x",
		"two values":      body + body,
		"truncated":       body[:len(body)/2],
		"empty":           "",
		"not an object":   "[]",
		"unicode name":    strings.Replace(body, `"appfast"`, `"äppfast"`, 1),
		"control in name": strings.Replace(body, `"appfast"`, "\"app\tfast\"", 1),
	}
	for name, in := range cases {
		var want, got wire.Result
		wantErr := json.Unmarshal([]byte(in), &want)
		gotErr := wire.DecodeResult([]byte(in), &got)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DecodeResult %+v (%v), json.Unmarshal %+v (%v)", name, got, gotErr, want, wantErr)
		}
	}
}

// TestGoldenResultsTakeTheSinglePass: every recorded /v1/query answer and
// shard-search result — bodies the servers wrote through encoding/json — is
// read by the single pass and written back byte for byte.
func TestGoldenResultsTakeTheSinglePass(t *testing.T) {
	checked := 0
	for _, file := range []string{"server", "router", "shard"} {
		for name, resp := range parseGolden(t, filepath.Join("testdata", file+".golden")) {
			body, ok := strings.CutPrefix(resp, "200 ")
			if !ok {
				continue
			}
			switch {
			case strings.Contains(name, "/query"):
			case strings.Contains(name, "/search"):
				var verdict struct {
					Result json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal([]byte(body), &verdict); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if verdict.Result == nil {
					continue
				}
				body = string(verdict.Result)
			default:
				continue
			}
			var r wire.Result
			if !wire.DecodeFast([]byte(body+"\n"), &r) {
				t.Fatalf("%s: the single pass refused %s", name, body)
			}
			var want wire.Result
			if err := json.Unmarshal([]byte(body), &want); err != nil || !reflect.DeepEqual(r, want) {
				t.Fatalf("%s: single pass %+v, json.Unmarshal %+v (%v)", name, r, want, err)
			}
			again, err := wire.AppendResult(nil, &r)
			if err != nil || string(again) != body+"\n" {
				t.Fatalf("%s: re-encoded as %s (%v)", name, again, err)
			}
			checked++
		}
	}
	if checked < 17 {
		t.Fatalf("only %d golden results checked", checked)
	}
}

// FuzzDecodeResult: DecodeResult never panics, and it accepts an input only
// when json.Unmarshal accepts it too, with a value reflect.DeepEqual to
// json.Unmarshal's — and so refuses exactly what json.Unmarshal refuses.
func FuzzDecodeResult(f *testing.F) {
	rnd := rand.New(rand.NewSource(2))
	names := algoNames()
	for i := 0; i < 16; i++ {
		body, _ := wire.AppendResult(nil, randResult(rnd, names))
		f.Add(body)
	}
	f.Add([]byte(`{"q":1,"k":2,"members":null,"mcc":{"x":0,"y":-0,"r":1E+2},"delta":-0.5e-3,"stats":{"candidateSize":0,"feasibilityChecks":0,"binaryIters":0,"elapsedMicros":0,"algorithm":""}}`))
	f.Add([]byte(`{"q":1,"k":2,"members":[],"mcc":{"x":0,"y":0,"r":0},"delta":0,"stats":{"candidateSize":0,"feasibilityChecks":0,"binaryIters":0,"elapsedMicros":0,"algorithm":"a"},"explain":{}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var got, want wire.Result
		gotErr := wire.DecodeResult(raw, &got)
		wantErr := json.Unmarshal(raw, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("DecodeResult error %v, json.Unmarshal error %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeResult %+v, json.Unmarshal %+v", got, want)
		}
	})
}

// hotResult is a hot answer's shape: n sorted ids below 30 000, from first.
func hotResult(n int, first int64) *wire.Result {
	r := &wire.Result{
		Q: first, K: 4,
		MCC:   wire.Circle{X: 0.4816, Y: 0.5173, R: 0.0392},
		Delta: 0.0784,
		Stats: wire.Stats{CandidateSize: 29871, FeasibilityChecks: 7, BinaryIters: 6, ElapsedMicros: 88, Algorithm: "appfast"},
	}
	r.Members = make([]int64, n)
	for i := range r.Members {
		r.Members[i] = first + int64(9*i+i%7)
	}
	return r
}

// TestAppendElapsedAllocs: once dst has grown, serving a stored body
// allocates nothing.
func TestAppendElapsedAllocs(t *testing.T) {
	body, _ := wire.AppendResult(nil, hotResult(3100, 0))
	dst := wire.AppendElapsed(nil, body, 1<<40)
	if n := testing.AllocsPerRun(100, func() { dst = wire.AppendElapsed(dst[:0], body, 3) }); n != 0 {
		t.Fatalf("AppendElapsed allocates %v times a call", n)
	}
}

// BenchmarkAppendResult encodes a 3 100-id answer (a hot syn1 AppFast
// answer's size). Encode formats it; Stored serves its stored body with
// another elapsedMicros, as a snapshot memo hit does.
func BenchmarkAppendResult(b *testing.B) {
	r := hotResult(3100, 0)
	var dst []byte
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst, _ = wire.AppendResult(dst[:0], r)
		}
	})
	body, _ := wire.AppendResult(nil, r)
	b.Run("Stored", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = wire.AppendElapsed(dst[:0], body, int64(i))
		}
	})
}
