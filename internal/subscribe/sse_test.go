package subscribe

import (
	"math/big"
	"net/http/httptest"
	"strconv"
	"testing"
)

// FuzzParseLastEventID: the resume header never panics the parser; a header
// that is not plain decimal (digits only) or does not fit a uint64 is treated
// as absent; and an accepted id is the number written, which survives
// FormatUint and a second parse unchanged.
func FuzzParseLastEventID(f *testing.F) {
	for _, seed := range []string{"", "0", "7", "007", "18446744073709551615", "18446744073709551616",
		"-1", "+1", " 7", "7 ", "0x1f", "1_000", "1e3", "٣", "12345678901234567890123"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := httptest.NewRequest("GET", "/v1/subscribe", nil)
		r.Header.Set("Last-Event-ID", raw)
		id, ok := ParseLastEventID(r)

		digits := raw != ""
		for i := 0; i < len(raw); i++ {
			digits = digits && raw[i] >= '0' && raw[i] <= '9'
		}
		var n big.Int
		_, parsed := n.SetString(raw, 10)
		fits := digits && parsed && n.IsUint64()
		if ok != fits {
			t.Fatalf("%q: accepted = %v, want %v (plain decimal %v)", raw, ok, fits, digits)
		}
		if !ok {
			if id != 0 {
				t.Fatalf("%q: refused but returned id %d", raw, id)
			}
			return
		}
		if id != n.Uint64() {
			t.Fatalf("%q: accepted as %d", raw, id)
		}
		r.Header.Set("Last-Event-ID", strconv.FormatUint(id, 10))
		if again, ok := ParseLastEventID(r); !ok || again != id {
			t.Fatalf("%q: id %d reparsed as %d (ok %v)", raw, id, again, ok)
		}
	})
}
