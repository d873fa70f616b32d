package wire

// DecodeFast exposes DecodeResult's single pass, so the tests can tell which
// path an input took.
var DecodeFast = decodeFast

// MemoBudget and MemoMinIDs are the members memo's bounds, for the tests
// that check them.
const MemoBudget, MemoMinIDs = memoBudget, memoMinIDs

// WithMemo runs f with AppendResult consulting a fresh, empty memo whose hash
// is hash (nil keeps the real one), so a test can force two answers into one
// hash or count what a memo holds from empty.
func WithMemo(hash func(ids []int64) uint64, f func()) {
	saved := membersMemo
	defer func() { membersMemo = saved }()
	membersMemo = newMemo()
	if hash != nil {
		membersMemo.hash = hash
	}
	f()
}

// MemoBytes is what the memo AppendResult consults holds, counted two ways:
// the ids and encoded bytes of every stored entry, and its running count
// against the budget. With no store in flight the two agree.
func MemoBytes() (stored, counted int64) {
	for i := range membersMemo.slots {
		if e := membersMemo.slots[i].Load(); e != nil {
			stored += e.size()
		}
	}
	return stored, membersMemo.held.Load()
}
