package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtraction(t *testing.T) {
	ms := func(x float64) int64 { return int64(x * 1e6) }
	// One query: client 10 ms ⊃ server 7 ms ⊃ snapshot 6 ms ⊃ core 5.5 ms,
	// each timed on its own stack, so the intervals do not nest in time.
	spans := []span{
		{Name: "core", Parent: "snapshot", StartNs: ms(0.1), EndNs: ms(5.6)},
		{Name: "snapshot", Parent: "server", StartNs: ms(0), EndNs: ms(6)},
		{Name: "server", Parent: "client", StartNs: ms(20), EndNs: ms(27)},
		{Name: "client", StartNs: ms(40), EndNs: ms(50)},
	}
	self := selfTimes(spans)
	want := map[string]float64{"client": 3, "server": 1, "snapshot": 0.5, "core": 5.5}
	var sum float64
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
		sum += self[name]
	}
	if math.Abs(sum-10) > 1e-9 {
		t.Errorf("self times sum to %v, want the outermost span's 10", sum)
	}
	// A parent with two children loses both.
	self = selfTimes([]span{
		{Name: "shard.search", Parent: "router", EndNs: ms(2)},
		{Name: "shard.expand", Parent: "router", EndNs: ms(5)},
		{Name: "router", Parent: "client", EndNs: ms(16)},
		{Name: "client", EndNs: ms(17)},
	})
	if math.Abs(self["router"]-9) > 1e-9 || math.Abs(self["client"]-1) > 1e-9 {
		t.Errorf("router self = %v (want 9), client self = %v (want 1)", self["router"], self["client"])
	}
}
