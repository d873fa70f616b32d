package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"sacsearch/internal/graph"
)

// schedules serialises the first ops of every workload's streams.
func schedules(t *testing.T, in *inputs, seed int64) []byte {
	t.Helper()
	certified, assembled := in.eligible[:40], in.eligible[40:80]
	var all [][]op
	for c := 0; c < 2; c++ {
		all = append(all,
			take(hotStream(in, seed, c), 500),
			take(coldStream(in, seed, c, 2), 500))
	}
	all = append(all,
		take(routedStream(certified, assembled, seed, 0), 500),
		take(churnStream(in, seed), 500))
	enc, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	in, err := singleInputs(smokeSizing)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := schedules(t, in, 7), schedules(t, in, 7), schedules(t, in, 8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("two seeds gave the same schedule")
	}
}

func TestMixSharesAreExactPerBlock(t *testing.T) {
	in, err := singleInputs(smokeSizing)
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string]int{}
	for _, o := range take(coldStream(in, 3, 0, 2), 200) {
		algos[o.Algo]++
	}
	if algos["appfast"] != 140 || algos["appinc"] != 30 || algos["appacc"] != 30 {
		t.Errorf("cold mix over 10 blocks = %v, want 140/30/30", algos)
	}
	kinds := map[opKind]int{}
	edges := 0
	present := map[[2]graph.V]bool{}
	for _, o := range take(churnStream(in, 3), 200) {
		kinds[o.Kind]++
		if o.Kind != opEdge {
			continue
		}
		// The edge count is stationary: every delete removes an edge the
		// schedule inserted, every insert adds one the graph did not have.
		e := [2]graph.V{o.V, o.W}
		switch {
		case o.Insert && (present[e] || in.g.HasEdge(o.V, o.W)):
			t.Errorf("insert of an edge that is already there: %v", e)
		case !o.Insert && !present[e]:
			t.Errorf("delete of an edge the schedule never inserted: %v", e)
		}
		present[e] = o.Insert
		if o.Insert {
			edges++
		} else {
			edges--
		}
	}
	if kinds[opQuery] != 120 || kinds[opCheckin] != 40 || kinds[opTargeted] != 20 || kinds[opEdge] != 20 {
		t.Errorf("churn mix over 20 blocks = %v, want 120/40/20/20", kinds)
	}
	if edges < 0 || edges > churnMaxPending {
		t.Errorf("%d inserted edges outstanding, want 0..%d", edges, churnMaxPending)
	}
	classes := map[string]int{}
	for _, o := range take(routedStream(in.eligible[:40], in.eligible[40:80], 3, 0), 200) {
		classes[o.Class]++
	}
	if classes["certified"] != 150 || classes["assembled"] != 50 {
		t.Errorf("routed mix over 50 blocks = %v, want 150/50", classes)
	}
}
