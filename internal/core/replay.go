package core

import "math"

// The replay settles a prefix oracle's record of at most one check-in plus
// deletes on the oracle's kept state, following the values that move rather
// than re-sweeping the lengths in between. oracle.go's "Replay" has the
// fixpoint lemma it rests on and why each direction starts where it does.

// The replay's per-vertex state, in oracleScratch.flags.
const (
	replayQueued    uint8 = 1 << iota // on the worklist
	replayListed                      // on sc.list
	replayUnsettled                   // its joinAt is being re-derived
	replayOnPath                      // on the forest path being walked up
	replayRooted                      // known to reach q up the forest
	replayBlocked                     // up the forest lies bound[v], pending
)

// waitPair is a support u of an unsettled z that waits for the pending
// vertex blocking u's chain; next links the pairs waiting on one vertex.
type waitPair struct {
	z, u, next int32
}

// unreached is a value no prefix length takes: the k-th smallest of fewer
// than k neighbours, or a joinAt not found yet.
const unreached = math.MaxInt32

// replayRecord settles o's record — its one check-in, if any, and the
// deletes the certificate did not vouch for (sc.lost) — on o's kept state,
// which stands for the old order on the current graph once dirtyWindows has
// settled the certified deletes. It leaves the new coreAt in sc.coreAt,
// joinAt in sc.join and the join forest in sc.parent, by local id, and
// reports the work it did, in vertices evaluated or settled, and false when
// that passed budget first, or when a vertex lost every way in (which
// revalidation rules out): the windows then take the record.
func (s *Searcher) replayRecord(e *cacheEntry, o *prefixOracle, localAt []int32, qLocal int32, k, budget int) (int, bool) {
	sc := &s.oracleBuf
	n := len(localAt)
	adjOff, adj := e.adjOff, e.adjLocal
	c, j, parent, rank := sc.coreAt[:n], sc.join[:n], sc.parent[:n], sc.order[:n]
	flags, queue, list := sc.flags[:n], sc.queue[:n], sc.list[:0]
	h := replayHeap{items: sc.heap[:0], pos: sc.win[:n]}
	for p, lv := range localAt {
		rank[lv] = int32(p)
	}

	var mv moveOp
	sh := lengthShift{hi: -1}
	if len(o.moves) == 1 {
		mv = o.moves[0]
		if mv.to > mv.from {
			sh = lengthShift{lo: mv.from + 2, hi: mv.to + 1, d: -1}
		} else {
			sh = lengthShift{lo: mv.to + 1, hi: mv.from, d: 1}
		}
	}
	for lv, v := range o.coreAt {
		c[lv] = sh.of(v)
	}
	for lv, v := range j { // the old joinAt, by local id (joinOfAnswer)
		j[lv] = sh.of(v)
	}
	copy(parent, o.parent)
	clear(flags)
	for i := range h.pos {
		h.pos[i] = -1
	}

	work := 0
	head, size := 0, 0
	enqueue := func(y int32) {
		if flags[y]&replayQueued == 0 {
			flags[y] |= replayQueued
			queue[(head+size)%n] = y
			size++
		}
	}
	inward := sh.d > 0
	if !inward {
		// Supports fall: the shifted values are a start below coreAt, and
		// only the mover and the deleted edges' ends can be short of support.
		if sh.d < 0 {
			enqueue(mv.lv)
		}
		for _, ed := range sc.lost {
			enqueue(ed.u)
			enqueue(ed.w)
		}
	} else {
		// Supports rise: the arrival bound from the mover over the late
		// entrants it reaches is the start, and those vertices are the ones
		// to evaluate (sc.list, ascending). Each costs a pop here and a count
		// below, so more than half the budget of them is failure foretold.
		h.key = c
		c[mv.lv] = mv.to + 1
		h.push(mv.lv)
		for len(h.items) > 0 {
			x := h.pop()
			if work++; 2*len(list) > budget {
				return work, false
			}
			flags[x] |= replayListed
			list = append(list, x)
			for _, y := range adj[adjOff[x]:adjOff[x+1]] {
				if a := max(c[x], rank[y]+1); a < c[y] {
					c[y] = a
					h.push(y)
				}
			}
		}
		// A candidate falls below its shifted value only with k neighbours
		// below it by then. One with fewer, each counted at its start, keeps
		// its value, which can leave others short in turn: peel them, as
		// traversal core maintenance peels its candidate subcore, and start
		// the rest.
		below := sc.deg[:n]
		short := queue[:0]
		for _, y := range list {
			work++
			u, cnt := sh.of(o.coreAt[y]), int32(0)
			for _, z := range adj[adjOff[y]:adjOff[y+1]] {
				if c[z] < u {
					cnt++
				}
			}
			if below[y] = cnt; cnt < int32(k) {
				short = append(short, y)
			}
		}
		for len(short) > 0 {
			y := short[len(short)-1]
			short = short[:len(short)-1]
			if work++; work > budget {
				return work, false
			}
			was, u := c[y], sh.of(o.coreAt[y])
			c[y] = u
			for _, w := range adj[adjOff[y]:adjOff[y+1]] {
				if uw := sh.of(o.coreAt[w]); flags[w]&replayListed != 0 && c[w] < uw && was < uw && u >= uw {
					if below[w]--; below[w] == int32(k)-1 {
						short = append(short, w)
					}
				}
			}
		}
		for _, y := range list {
			if c[y] < sh.of(o.coreAt[y]) {
				enqueue(y)
			}
		}
	}

	// Raise every value short of its right side to it until none is. A rise
	// from was to f takes a support from the neighbours valued in [was, f).
	kth := sc.kth[:k]
	for size > 0 {
		y := queue[head]
		head = (head + 1) % n
		size--
		flags[y] &^= replayQueued
		if work++; work > budget {
			return work, false
		}
		row := adj[adjOff[y]:adjOff[y+1]]
		f := fixpointAt(row, c, rank[y]+1, kth)
		if f <= c[y] {
			continue
		}
		if f == unreached {
			return work, false
		}
		was := c[y]
		c[y] = f
		if flags[y]&replayListed == 0 {
			flags[y] |= replayListed
			list = append(list, y)
		}
		for _, z := range row {
			if cz := c[z]; was <= cz && cz < f {
				enqueue(z)
			}
		}
	}

	h.key = j
	if inward {
		// joinAt can only fall, and only through a vertex whose coreAt fell:
		// those seed a relaxation in joinAt order.
		for _, y := range list {
			if c[y] >= sh.of(o.coreAt[y]) {
				continue
			}
			best, via := int32(unreached), int32(-1)
			if y == qLocal {
				best = c[y]
			} else {
				for _, u := range adj[adjOff[y]:adjOff[y+1]] {
					if j[u] < best {
						best, via = j[u], u
					}
				}
				best = max(best, c[y])
			}
			if best < j[y] {
				j[y], parent[y] = best, via
				h.push(y)
			}
		}
		for len(h.items) > 0 {
			x := h.pop()
			if work++; work > budget {
				return work, false
			}
			for _, z := range adj[adjOff[x]:adjOff[x+1]] {
				if a := max(c[z], j[x]); a < j[z] {
					j[z], parent[z] = a, x
					h.push(z)
				}
			}
		}
		sc.paths.inward++
		return work, true
	}

	// joinAt can only rise. A vertex whose coreAt passed its joinAt is
	// unsettled, and so is an orphan of a deleted edge that cannot re-point
	// (joinParent). bound holds an unsettled vertex's bound on its new
	// joinAt: the largest coreAt on a forest path to q. Down the forest, a
	// child of an unsettled vertex whose path stays within its old joinAt
	// keeps it, parent and all; another is re-pointed, or unsettled in turn.
	// A bound that grows — a seed found below another — goes down again.
	bound := sc.deg[:n]
	repoint := func(y int32) bool {
		work++
		for _, u := range adj[adjOff[y]:adjOff[y+1]] {
			if flags[u]&replayUnsettled == 0 && joinParent(y, u, c, j, parent) {
				parent[y] = u
				return true
			}
		}
		return false
	}
	unsettle := func(y, b int32) {
		flags[y] |= replayUnsettled
		bound[y] = b
		if flags[y]&replayListed == 0 {
			flags[y] |= replayListed
			list = append(list, y)
		}
		enqueue(y)
	}
	orphan := func(x, from int32) {
		if parent[x] == from && !repoint(x) {
			unsettle(x, unreached) // no path is known: its edge is gone
		}
	}
	for _, ed := range sc.lost {
		orphan(ed.u, ed.w)
		orphan(ed.w, ed.u)
	}
	for _, y := range list {
		if c[y] > j[y] && flags[y]&replayUnsettled == 0 {
			b := c[y]
			if p := parent[y]; p >= 0 {
				b = max(b, j[p])
			}
			unsettle(y, b)
		}
	}
	for size > 0 {
		x := queue[head]
		head = (head + 1) % n
		size--
		flags[x] &^= replayQueued
		if work++; work > budget {
			return work, false
		}
		for _, y := range adj[adjOff[x]:adjOff[x+1]] {
			if parent[y] != x {
				continue
			}
			b := max(c[y], bound[x])
			switch {
			case flags[y]&replayUnsettled != 0:
				if b > bound[y] {
					bound[y] = b
					enqueue(y)
				}
			case b <= j[y] || repoint(y):
			default:
				unsettle(y, b)
			}
		}
	}
	// Re-derive the unsettled by a bottleneck search from the rest, whose
	// values stand. A settled vertex is a support only once its forest chain
	// reaches q through settled or re-derived vertices: one that hangs below
	// a vertex still pending could, at a tie, become its parent and close a
	// cycle. Until then the pair waits on the vertex that blocks the chain.
	// The walks up are not counted: the labels they leave make each vertex
	// a step once, as long as nothing it hangs below is pending.
	path := queue[:0] // the walk down the forest is over
	blocker := func(u int32) int32 {
		x := u
		for {
			switch f := flags[x]; {
			case f&replayRooted != 0 || x == qLocal && f&replayUnsettled == 0:
				for _, v := range path {
					flags[v] = flags[v]&^replayOnPath | replayRooted
				}
				path = path[:0]
				return -1
			case f&replayUnsettled != 0:
				x = -1 - x // blocked by x, still pending
			case f&replayBlocked != 0 && flags[bound[x]]&replayUnsettled != 0:
				x = -1 - bound[x]
			case f&replayOnPath != 0:
				x = -1 - qLocal // cannot happen: the forest has no cycle
			}
			if x < 0 {
				b := -1 - x
				for _, v := range path {
					flags[v] = flags[v]&^replayOnPath | replayBlocked
					bound[v] = b
				}
				path = path[:0]
				return b
			}
			flags[x] |= replayOnPath
			path = append(path, x)
			x = parent[x]
		}
	}
	waitHead, waits := rank, sc.waits[:0] // the ranks served their turn
	relax := func(z, u int32) {
		if b := blocker(u); b >= 0 {
			waits = append(waits, waitPair{z: z, u: u, next: waitHead[b]})
			waitHead[b] = int32(len(waits) - 1)
		} else if a := max(c[z], j[u]); a < j[z] {
			j[z], parent[z] = a, u
			h.push(z)
		}
	}
	for _, y := range list {
		if flags[y]&replayUnsettled != 0 {
			j[y] = unreached
			waitHead[y] = -1
		}
	}
	for _, y := range list {
		switch {
		case flags[y]&replayUnsettled == 0:
		case y == qLocal:
			j[y], parent[y] = c[y], -1
			h.push(y)
		default:
			// Its forest path bounds it, and the search reaches that bound
			// through the path — from its parent, settled or re-derived —
			// unless the path lost an edge: another support has to do better.
			work++
			if p := parent[y]; bound[y] < unreached && flags[p]&replayUnsettled == 0 {
				relax(y, p)
			}
			for _, u := range adj[adjOff[y]:adjOff[y+1]] {
				if flags[u]&replayUnsettled == 0 && max(c[y], j[u]) < min(j[y], bound[y]) {
					relax(y, u)
				}
			}
		}
	}
	for len(h.items) > 0 {
		x := h.pop()
		if work++; work > budget {
			sc.waits = waits
			return work, false
		}
		flags[x] = flags[x]&^replayUnsettled | replayRooted
		for _, z := range adj[adjOff[x]:adjOff[x+1]] {
			if flags[z]&replayUnsettled != 0 {
				if a := max(c[z], j[x]); a < j[z] {
					j[z], parent[z] = a, x
					h.push(z)
				}
			}
		}
		for w := waitHead[x]; w >= 0; w = waits[w].next {
			if pr := waits[w]; flags[pr.z]&replayUnsettled != 0 {
				relax(pr.z, pr.u)
			}
		}
	}
	sc.waits = waits
	for _, y := range list {
		if flags[y]&replayUnsettled != 0 {
			return work, false // never reached
		}
	}
	sc.paths.outward++
	return work, true
}

// lengthShift maps a prefix length of the old order to the new one's
// bound: the lengths in [lo, hi], which the move crossed, hold one member
// fewer after a move outward (d = -1) and one more after a move inward
// (d = 1). The values of an unmoved view map to themselves.
type lengthShift struct {
	lo, hi, d int32
}

func (sh lengthShift) of(v int32) int32 {
	if v >= sh.lo && v <= sh.hi {
		return v + sh.d
	}
	return v
}

// fixpointAt is the right side of the fixpoint lemma (oracle.go, "Replay")
// at a vertex with neighbours nbrs and rank floor-1: max(floor, the k-th
// smallest c over nbrs), k = len(kth), or unreached for fewer than k
// neighbours. kth is scratch for the k smallest.
func fixpointAt(nbrs, c []int32, floor int32, kth []int32) int32 {
	k, have := len(kth), 0
	if k == 0 {
		return floor
	}
	for _, z := range nbrs {
		v := c[z]
		if have == k {
			if v >= kth[k-1] {
				continue
			}
			have--
		}
		i := have
		for ; i > 0 && kth[i-1] > v; i-- {
			kth[i] = kth[i-1]
		}
		kth[i] = v
		have++
	}
	if have < k {
		return unreached
	}
	return max(floor, kth[k-1])
}

// replayHeap is a binary min-heap of local ids ordered by key, which holds
// each id's position (-1 when out) so that a key can fall in place.
type replayHeap struct {
	items, pos, key []int32
}

// push adds lv, or moves it up after its key fell.
func (h *replayHeap) push(lv int32) {
	i := h.pos[lv]
	if i < 0 {
		i = int32(len(h.items))
		h.items = append(h.items, lv)
	}
	for i > 0 {
		up := (i - 1) / 2
		if h.key[h.items[up]] <= h.key[lv] {
			break
		}
		h.items[i] = h.items[up]
		h.pos[h.items[i]] = i
		i = up
	}
	h.items[i] = lv
	h.pos[lv] = i
}

// pop removes and returns the id of least key.
func (h *replayHeap) pop() int32 {
	top, last := h.items[0], h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	h.pos[top] = -1
	n := int32(len(h.items))
	if n == 0 {
		return top
	}
	i := int32(0)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h.key[h.items[r]] < h.key[h.items[l]] {
			l = r
		}
		if h.key[h.items[l]] >= h.key[last] {
			break
		}
		h.items[i] = h.items[l]
		h.pos[h.items[i]] = i
		i = l
	}
	h.items[i] = last
	h.pos[last] = i
	return top
}
