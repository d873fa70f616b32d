package wire

import (
	"hash/maphash"
	"slices"
	"strconv"
	"sync/atomic"
	"unsafe"
)

// A hot query's answer is the same few thousand ids hit after hit, and core's
// answer memo hands the server the same list each time; formatting those ids
// was most of what a served hit cost. So AppendResult keeps the members
// arrays it has written twice, keyed by their content, and a repeat copies
// the stored bytes instead of formatting the ids again.
//
// The bytes depend on the ids alone, so the key is the ids themselves: no
// stamp or epoch is needed, and a stale entry is just one no answer repeats.
// An answer is stored on its second sighting (the first keeps only a 64-bit
// hash), the rule core's answer memo uses, so a workload whose answers never
// repeat stores nothing. A hit needs the whole id list equal, so a hash
// collision costs a format, never a wrong body. Stored entries are immutable
// once published, and a hit takes no lock.
const (
	// memoMinIDs: a shorter list formats in about what a hash, a compare and
	// a copy cost, so it is not worth a slot.
	memoMinIDs = 16
	// memoSlots: the most answers held at once. A lookup scans every slot's
	// hash (1 KiB), so it stays small, yet eight times a hot set of 16.
	memoSlots = 128
	// memoBudget: the most the memo holds in ids and bytes — twice what the
	// 16 hot syn1 answers of the benchmark take (700 to 17 700 ids each,
	// ~1.6 MiB in all).
	memoBudget = 4 << 20
	// memoEntryMax: no one answer (above ~37 000 ids) takes more than an
	// eighth of the budget.
	memoEntryMax = memoBudget / 8
)

// memo is the members-array memo. seen holds the hash of each answer seen
// once, direct-mapped. slots holds the stored entries and keys their hashes,
// scanned on every lookup; they are filled, and emptied to make room, in
// turn, so the entry evicted is the one stored longest ago.
type memo struct {
	hash  func(ids []int64) uint64
	seen  [memoSlots]atomic.Uint64
	keys  [memoSlots]atomic.Uint64
	slots [memoSlots]atomic.Pointer[memoEntry]
	held  atomic.Int64  // bytes of the entries in slots, and of those about to be
	hand  atomic.Uint64 // the slot filled last
}

// memoEntry is one stored answer: its ids and their encoded "[…]".
type memoEntry struct {
	hash uint64
	ids  []int64
	enc  []byte
}

func (e *memoEntry) size() int64 { return int64(8*len(e.ids) + len(e.enc)) }

// membersMemo is the memo AppendResult consults.
var membersMemo = newMemo()

func newMemo() *memo {
	seed := maphash.MakeSeed()
	return &memo{hash: func(ids []int64) uint64 {
		// The ids' memory as bytes: the hash never leaves the process, so
		// byte order does not matter.
		return maphash.Bytes(seed, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ids))), 8*len(ids)))
	}}
}

// appendMembers appends ids as a JSON array, from the memo when it holds
// them, and stores them on their second sighting.
func (m *memo) appendMembers(dst []byte, ids []int64) []byte {
	if len(ids) < memoMinIDs {
		return appendIDs(dst, ids)
	}
	h := m.hash(ids)
	for i := range m.keys {
		if m.keys[i].Load() != h {
			continue
		}
		if e := m.slots[i].Load(); e != nil && e.hash == h && slices.Equal(e.ids, ids) {
			return append(dst, e.enc...)
		}
	}
	start := len(dst)
	dst = appendIDs(dst, ids)
	if m.seen[h%memoSlots].Swap(h) == h { // the second sighting
		m.store(&memoEntry{hash: h, ids: ids, enc: dst[start:]})
	}
	return dst
}

// store puts a copy of e in the next slot, emptying slots in turn until it
// fits the budget. It gives up when a whole round leaves no room (stores in
// flight hold the rest), and stores nothing above memoEntryMax.
func (m *memo) store(e *memoEntry) {
	size := e.size()
	if size > memoEntryMax {
		return
	}
	e.ids, e.enc = slices.Clone(e.ids), slices.Clone(e.enc)
	for range memoSlots {
		i := m.hand.Add(1) % memoSlots
		if old := m.slots[i].Swap(nil); old != nil {
			m.held.Add(-old.size())
		}
		if held := m.held.Load(); held+size > memoBudget || !m.held.CompareAndSwap(held, held+size) {
			continue
		}
		m.keys[i].Store(e.hash)
		if old := m.slots[i].Swap(e); old != nil { // a store that came round the table meanwhile
			m.held.Add(-old.size())
		}
		return
	}
}

// appendIDs formats ids as a JSON array of integers.
func appendIDs(dst []byte, ids []int64) []byte {
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, id, 10)
	}
	return append(dst, ']')
}
