package wire_test

import (
	"encoding/json"
	"strings"
	"testing"

	"sacsearch/client"
	"sacsearch/internal/wire"
)

// decodeTarget picks the type a recorded body must decode into — the client's
// alias where the client exports one — from the row's name and status.
func decodeTarget(r row, status string) any {
	_, what, _ := strings.Cut(r.name, "/")
	has := func(prefixes ...string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(what, p) {
				return true
			}
		}
		return false
	}
	switch {
	case has("subscribe init", "subscribe delta"):
		return new(client.SubEvent)
	case has("subscribe bye", "watch bye"):
		return new(wire.Bye)
	case has("watch "):
		return new(client.WatchEvent)
	case status != "200":
		return new(wire.Error)
	case has("health"):
		return new(client.Health)
	case has("algorithms"):
		return new([]client.AlgoInfo)
	case has("vertex"):
		return new(client.Vertex)
	case has("query"):
		return new(client.Result)
	case has("batch"):
		return new(wire.BatchResponse)
	case has("edge "):
		return new(client.EdgeResult)
	case has("info"):
		return new(client.ShardInfo)
	case has("search"):
		return new(client.ShardSearchResult)
	case has("expand"):
		return new(client.ShardExpansion)
	}
	return nil // {"ok":true} and /v1/ready: no declared shape
}

// checkRoundTrip asserts the recorded body decodes into its declared type and
// re-encodes to the same bytes: the declaration carries every field the
// servers emit, in their order, with their omitempty.
func checkRoundTrip(t *testing.T, r row) {
	t.Helper()
	status, body, _ := strings.Cut(r.response, " ")
	if r.sse {
		_, body, _ = strings.Cut(body, " ") // "<id> <event> <data>"
		status = "200"
	}
	into := decodeTarget(r, status)
	if into == nil {
		return
	}
	if err := json.Unmarshal([]byte(body), into); err != nil {
		t.Errorf("%s: does not decode into %T: %v", r.name, into, err)
		return
	}
	again, err := json.Marshal(into)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != body {
		t.Errorf("%s: %T re-encodes differently\n got: %s\nwant: %s", r.name, into, again, body)
	}
}
