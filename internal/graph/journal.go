package graph

// Mutation journal. The two epochs say *that* a graph changed; the journal
// says *what* changed, so a cache built at an earlier point of the timeline
// can repair itself instead of starting over: a searcher's sorted view moves
// the few members a check-in displaced, its membership cache checks the few
// edges that came and went (internal/core/repair.go).
//
// Every mutation bumps exactly one of locEpoch and topoEpoch, so their sum
// numbers the mutations of one timeline 1, 2, 3, …; mutation i is stored at
// journal[i%journalLen] as the Write that made it. Clone copies the ring
// with the epochs, so a published snapshot answers for the history it was
// cut from, and a frozen clone's ring is as immutable as the rest of it. The
// journal is in-memory state only: no file format carries it, and a graph
// read from disk starts an empty timeline at sequence 0.

// journalLen is the number of mutations the ring remembers: at 32 bytes a
// Write that is 8 KB copied per Clone beside a 16-bytes-a-vertex location
// array (480 KB at syn1's 30 000 vertices). On the serving benchmark's churn
// workload (two pooled workers, sixteen hot views each) a stale view is
// behind by 2 mutations at the median, 40 at p90 and 170 at p99; 0.3 % are
// behind by more than the ring holds.
const journalLen = 256

// Seq returns the graph's position on its mutation timeline: the number of
// SetLoc, AddEdge and RemoveEdge calls that changed it, LocEpoch plus
// TopoEpoch. Two graphs related by Clone that report the same Seq are
// identical as long as only one side of each Clone went on mutating, which
// is how snapshots are published.
func (g *Graph) Seq() uint64 { return g.locEpoch + g.topoEpoch }

// record journals the write that has just bumped an epoch.
func (g *Graph) record(w Write) {
	g.journal[g.Seq()%journalLen] = w
}

// MutationsSince appends to dst the writes that took the timeline from
// sequence since to Seq(), oldest first. It reports false, appending
// nothing, when that history is out of reach: the ring has been lapped, or
// since lies in this graph's future — a pooled worker that served a newer
// snapshot and is now handed an older one holds such stamps.
func (g *Graph) MutationsSince(since uint64, dst []Write) ([]Write, bool) {
	now := g.Seq()
	if since > now || now-since > journalLen {
		return dst, false
	}
	for i := since + 1; i <= now; i++ {
		dst = append(dst, g.journal[i%journalLen])
	}
	return dst, true
}
