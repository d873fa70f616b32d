// Batch party planning (the paper's Section 6 future work, batch
// processing): a cocktail-party service — the motivating story of Sozio &
// Gionis's community-search paper [29] — wants to propose one party per host
// for a whole list of hosts at once. Each party needs guests who all know
// each other well (degree ≥ k inside the group) and live close together.
//
// The example answers the whole host list with one BatchSearch call (shared
// core decomposition, parallel workers, duplicate hosts deduplicated), then
// refines the venue question with the minimum-diameter variants: the MCC
// objective bounds the catchment circle, while the diameter objective bounds
// the longest walk between any two guests.
//
//	go run ./examples/batchparty
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"sacsearch"
)

func main() {
	// A metro area: 12k users, 70k friendships, spatially clustered.
	g := sacsearch.GenerateSocialGraph(12000, 70000, 99)
	fmt.Printf("metro graph: %d users, %d friendships\n\n", g.NumVertices(), g.NumEdges())

	// Tonight's hosts: 24 well-connected users (one appears twice —
	// the batch layer answers duplicates once).
	hosts := sacsearch.QueryWorkload(g, 4, 24, 5)
	if len(hosts) == 0 {
		log.Fatal("no eligible hosts")
	}
	hosts = append(hosts, hosts[0])

	s := sacsearch.NewSearcher(g)
	const k = 3 // every guest knows ≥ 3 others at the party

	start := time.Now()
	items := sacsearch.BatchSearch(context.Background(), s, sacsearch.BatchWorkload(hosts, k), sacsearch.BatchOptions{
		// The batch rides the same registry template a /v1/batch request
		// does: one Query selects the algorithm and parameters for all hosts.
		Template: sacsearch.Query{Algo: "appacc", EpsA: sacsearch.Float(0.5)},
		Workers:  4,
	})
	batchTime := time.Since(start)

	fmt.Printf("%-8s %-8s %-10s %s\n", "host", "guests", "radius", "verdict")
	planned := 0
	for _, it := range items {
		if it.Err != nil {
			fmt.Printf("%-8d no viable party (%v)\n", it.Q, it.Err)
			continue
		}
		planned++
		verdict := "house party"
		if it.Result.Radius() > 0.05 {
			verdict = "needs a central venue"
		}
		fmt.Printf("%-8d %-8d %-10.4f %s\n", it.Q, it.Result.Size()-1, it.Result.Radius(), verdict)
	}
	fmt.Printf("\nplanned %d parties in %v (batched, 4 workers)\n\n", planned, batchTime)

	// Sequential timing for comparison.
	start = time.Now()
	for _, h := range hosts {
		_, _ = s.AppAcc(h, k, 0.5)
	}
	fmt.Printf("the same list sequentially: %v\n\n", time.Since(start))

	// For the first host, compare the two spatial objectives: the MCC
	// radius (circle the party fits in) versus the diameter (longest walk
	// between two guests) — the paper's "other spatial cohesiveness
	// measures" future work.
	host := hosts[0]
	mcc, err := s.ExactPlus(host, k, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	diam, err := s.MinDiamLens(host, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host %d, two objectives:\n", host)
	fmt.Printf("  min-MCC party:      %2d guests, radius %.4f, longest walk %.4f\n",
		mcc.Size()-1, mcc.Radius(), sacsearch.CommunityDiameter(g, mcc.Members))
	fmt.Printf("  min-diameter party: %2d guests, radius %.4f, longest walk %.4f (√3-approx)\n",
		diam.Size()-1, sacsearch.CommunityRadius(g, diam.Members), diam.Delta)
}
