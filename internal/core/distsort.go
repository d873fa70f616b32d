package core

import (
	"math"
	"slices"

	"sacsearch/internal/graph"
)

// distSorter orders a candidate set by (distance from q, vertex id). The
// tie-break makes a sorted view a pure function of (graph, q): co-located
// vertices would otherwise keep whatever order the membership BFS of the
// first query into the community happened to leave them in, and AppInc —
// which grows the prefix one vertex at a time — would answer differently
// depending on cache history.
//
// Distances are non-negative, so their IEEE-754 bit patterns order like the
// values and an LSD radix sort over the 64-bit patterns sorts them in O(n)
// with no data-dependent worst case. The passes ping-pong between the
// caller's slices and the sorter's own pair, which a Searcher keeps across
// queries.
type distSorter struct {
	verts []graph.V
	dists []float64
}

const (
	// One pass per byte of the key; an even count, so the last pass lands in
	// the caller's slices.
	radixPasses = 8

	// Below this size an insertion sort beats the radix passes' fixed cost.
	distInsertionThreshold = 48
)

// sort sorts verts and dists in tandem by ascending (distance, vertex id).
func (ds *distSorter) sort(verts []graph.V, dists []float64) {
	n := len(dists)
	if n < distInsertionThreshold {
		insertionDist(verts, dists)
		return
	}
	if cap(ds.dists) < n {
		ds.verts = make([]graph.V, n)
		ds.dists = make([]float64, n)
	}
	var count [radixPasses][256]int32
	for _, d := range dists {
		key := math.Float64bits(d)
		for p := range count {
			count[p][byte(key>>(8*p))]++
		}
	}
	srcV, srcD, dstV, dstD := verts, dists, ds.verts[:n], ds.dists[:n]
	for p := range count {
		c := &count[p]
		sum := int32(0)
		for i, k := range c {
			c[i] = sum
			sum += k
		}
		shift := 8 * p
		for i, d := range srcD {
			digit := byte(math.Float64bits(d) >> shift)
			at := c[digit]
			c[digit]++
			dstD[at], dstV[at] = d, srcV[i]
		}
		srcV, srcD, dstV, dstD = dstV, dstD, srcV, srcD
	}
	// The passes are stable, so equal distances sit in input order; put each
	// such run in vertex-id order.
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && dists[hi] == dists[lo] {
			hi++
		}
		if hi-lo > 1 {
			slices.Sort(verts[lo:hi])
		}
		lo = hi
	}
}

func insertionDist(verts []graph.V, dists []float64) {
	for i := 1; i < len(dists); i++ {
		d, v := dists[i], verts[i]
		j := i - 1
		for j >= 0 && (dists[j] > d || dists[j] == d && verts[j] > v) {
			dists[j+1], verts[j+1] = dists[j], verts[j]
			j--
		}
		dists[j+1], verts[j+1] = d, v
	}
}
