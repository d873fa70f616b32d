// Dynamic community tracking (the paper's Figure 2 scenario): as a user
// travels, her spatial-aware community changes even though her friendships
// do not. The example replays a synthetic check-in stream, snapshots the
// most-traveled user's SAC at every check-in, and shows the community
// turning over as she moves — plus the CJS/CAO decay curve over all movers
// (the Figure 13 measurement).
//
// Going beyond the paper, the replay also churns friendships: a synthetic
// edge-event stream (triadic-closure ties forming, old ties dissolving)
// interleaves with the check-ins, applied through the searcher's
// incremental core maintenance, so each snapshot reflects both where the
// users are and who they currently know.
//
//	go run ./examples/dynamictrack
package main

import (
	"context"
	"fmt"
	"log"

	"sacsearch"
)

func main() {
	g := sacsearch.GenerateSocialGraph(3000, 18000, 99)
	checkins := sacsearch.GenerateCheckins(g, 100)
	churn := sacsearch.GenerateEdgeChurn(g, 800, 101)
	movers := sacsearch.SelectMovers(g, checkins, 8, 10)
	if len(movers) == 0 {
		log.Fatal("no movers")
	}
	fmt.Printf("replaying %d check-ins and %d friendship events over %d users; tracking %d movers\n\n",
		len(checkins), len(churn), g.NumVertices(), len(movers))

	s := sacsearch.NewSearcher(g)
	search := func(q sacsearch.V, k int) ([]sacsearch.V, sacsearch.Circle, error) {
		res, err := s.Search(context.Background(), sacsearch.Query{Algo: "exact+", Q: q, K: k})
		if err != nil {
			return nil, sacsearch.Circle{}, err
		}
		return res.Members, res.MCC, nil
	}
	const k = 3
	timelines, err := sacsearch.ReplayWithEdges(context.Background(), g, checkins, churn, movers,
		200 /* warm-up days */, k, search, sacsearch.ApplyEdgesVia(s))
	if err != nil {
		log.Fatal(err)
	}

	// Portrait of the single most-traveled user, like Figure 2's maps.
	star := movers[0]
	snaps := timelines[star]
	fmt.Printf("user %d's SAC over time (%d snapshots):\n", star, len(snaps))
	var prev *sacsearch.Snapshot
	for i := range snaps {
		sn := snaps[i]
		turnover := ""
		if prev != nil {
			turnover = fmt.Sprintf("  CJS vs prev %.2f", sacsearch.CJS(prev.Members, sn.Members))
		}
		fmt.Printf("  day %6.1f: %2d members at (%.3f, %.3f) r=%.4f%s\n",
			sn.Time, len(sn.Members), sn.MCC.C.X, sn.MCC.C.Y, sn.MCC.R, turnover)
		prev = &snaps[i]
		if i == 11 {
			fmt.Printf("  ... (%d more)\n", len(snaps)-12)
			break
		}
	}

	// Aggregate decay across all movers.
	points := sacsearch.Decay(timelines, []float64{0.25, 0.5, 1, 3, 5, 7, 10, 15})
	fmt.Printf("\ncommunity stability vs time gap (all movers):\n")
	fmt.Printf("%10s %10s %10s %8s\n", "η (days)", "avg CJS", "avg CAO", "pairs")
	for _, p := range points {
		fmt.Printf("%10.2f %10.3f %10.3f %8d\n", p.EtaDays, p.CJS, p.CAO, p.Pairs)
	}
	fmt.Println("\ncommunities drift apart as the gap grows — the paper's Figure 13 shape.")
}
