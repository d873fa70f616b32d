package core

import (
	"math"
	"math/bits"
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
// queries. sortIDs borrows the same vertex buffer to order a result's ids.
type distSorter struct {
	verts []graph.V
	dists []float64
}

const (
	// One pass per byte of the key; an even count, so the last pass lands in
	// the caller's slices.
	radixPasses = 8

	// Below this size a comparison sort beats the radix passes' fixed cost.
	insertionThreshold = 48
)

// sort sorts verts and dists in tandem by ascending (distance, vertex id).
func (ds *distSorter) sort(verts []graph.V, dists []float64) {
	n := len(dists)
	if n < insertionThreshold {
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
		offsets(c)
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

// offsets turns a digit histogram into each digit's first output slot.
func offsets(c *[256]int32) {
	sum := int32(0)
	for i, k := range c {
		c[i] = sum
		sum += k
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

// sortIDs writes src's vertex ids into dst (of the same length) in ascending
// order, leaving src untouched. Ids are non-negative int32s, so an LSD radix
// sort needs one pass per byte of the largest id — two below 65536. The first
// pass reads src, so the copy rides in it, and the passes ping-pong between
// dst and the sorter's vertex buffer so that the last one lands in dst.
func (ds *distSorter) sortIDs(dst, src []graph.V) {
	n := len(src)
	if n < insertionThreshold {
		copy(dst, src)
		slices.Sort(dst)
		return
	}
	if cap(ds.verts) < n {
		ds.verts = make([]graph.V, n)
	}
	var count [4][256]int32
	var top graph.V
	for _, v := range src {
		top = max(top, v)
		for p := range count {
			count[p][byte(v>>(8*p))]++
		}
	}
	passes := max(1, (bits.Len32(uint32(top))+7)/8)
	to, spare := dst, ds.verts[:n]
	if passes%2 == 0 {
		to, spare = spare, to
	}
	from := src
	for p := range passes {
		c := &count[p]
		offsets(c)
		shift := 8 * p
		for _, v := range from {
			digit := byte(v >> shift)
			to[c[digit]] = v
			c[digit]++
		}
		from, to, spare = to, spare, to
	}
}
