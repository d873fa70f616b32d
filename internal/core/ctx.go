package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Context-aware query execution. Search takes the context and run arms it;
// the algorithm bodies check it at their loop boundaries — each binary-search
// iteration, each circle-enumeration step, each anchor — so an abandoned HTTP
// client or an expired batch deadline stops burning CPU mid-query instead of
// running a multi-second Exact to completion. A context with no cancellation
// (what the per-algorithm conveniences pass) costs nothing per iteration.
//
// Cancellation is sticky per query: the first loop boundary that observes
// ctx.Err() latches it, every later boundary short-circuits on the latched
// value without re-querying the context, and run converts it into
// ErrCanceled. Partial per-query state is discarded by the next query's
// begin, so a canceled Searcher is immediately reusable.

// ErrCanceled is returned when a query's context is canceled or its deadline
// expires before the query completes. The underlying context error is
// wrapped, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) also report the cause.
var ErrCanceled = errors.New("core: query canceled")

// begin resets the per-query state and arms ctx. A context that can never
// be canceled (nil Done channel: Background, TODO, pure value contexts) is
// not stored, so the per-iteration check reduces to one nil comparison. The
// deadline, if any, is captured so canceled can consult the clock directly:
// a saturated GOMAXPROCS=1 process can delay the context's own timer
// goroutine by a full preemption quantum (~10ms), and a compute loop that
// polls Err would inherit that delay.
func (s *Searcher) begin(ctx context.Context) {
	s.stats = Stats{}
	s.curEntry = nil
	s.curView = nil
	s.ws.peelable = false
	s.qctx = nil
	s.ctxErr = nil
	s.qdeadline = time.Time{}
	if ctx != nil && ctx.Done() != nil {
		s.qctx = ctx
		if d, ok := ctx.Deadline(); ok {
			s.qdeadline = d
		}
	}
}

// canceled reports whether the query in flight has been canceled, latching
// the context error on first observation. It is the per-loop-boundary check:
// one nil test on the uncancellable path, one latched-error test afterwards.
func (s *Searcher) canceled() bool {
	if s.ctxErr != nil {
		return true
	}
	if s.qctx == nil {
		return false
	}
	if err := s.qctx.Err(); err != nil {
		s.ctxErr = err
		return true
	}
	if !s.qdeadline.IsZero() && time.Now().After(s.qdeadline) {
		s.ctxErr = context.DeadlineExceeded
		return true
	}
	return false
}

// canceledTick is canceled amortized for the innermost enumeration loops
// (Exact's and ExactPlus's triple scans, which run millions of cheap
// iterations): the context is consulted every 16th call and the latched
// result in between, so the check costs one integer op per iteration while
// still bounding post-cancellation work to 16 circle evaluations.
func (s *Searcher) canceledTick() bool {
	if s.ctxErr != nil {
		return true
	}
	if s.qctx == nil {
		return false
	}
	s.ctxTick++
	if s.ctxTick&15 != 0 {
		return false
	}
	return s.canceled()
}

// canceledError wraps the latched context error in ErrCanceled.
func (s *Searcher) canceledError() error {
	return fmt.Errorf("%w: %w", ErrCanceled, s.ctxErr)
}
