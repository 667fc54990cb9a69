package constraint

import (
	"errors"
	"sync/atomic"
)

// Solver step budgets. The dense-order negation search (Entails over
// multi-variable DNF) and the set-order closure are the two procedures in
// this package whose cost is not polynomial in the input size; a hostile
// or pathological query can make a single solver call run for a long
// time. A Budget bounds the number of elementary solver steps one request
// may spend across all of its solver calls, and doubles as the hook
// through which request cancellation reaches inside a running solve: the
// owner installs a check function (typically wrapping context.Err) that
// the budget consults periodically.
//
// A nil *Budget is valid everywhere and never stops anything, so the
// unbudgeted entry points (Satisfiable, Entails, …) simply pass nil.

// ErrBudget is returned by the budgeted solver entry points when the step
// budget is exhausted. Callers distinguish it from a cancellation error
// (whatever the installed check function returns) with errors.Is.
var ErrBudget = errors.New("constraint: solver step budget exhausted")

// budgetCheckInterval is how many spent steps may elapse between
// consultations of the cancellation check function.
const budgetCheckInterval = 256

// A Budget bounds solver work and propagates cancellation. It is safe for
// concurrent use: parallel evaluation workers may share one budget.
type Budget struct {
	remaining  atomic.Int64 // meaningful only when limited
	limited    bool
	sinceCheck atomic.Int64
	check      func() error // optional; non-nil error aborts the solve
	spent      atomic.Int64 // steps consumed (profiling)
}

// NewBudget returns a budget of maxSteps elementary solver steps.
// maxSteps <= 0 means unlimited steps; check, if non-nil, is consulted at
// least every budgetCheckInterval steps and its error (e.g. a wrapped
// context cancellation) aborts the solve.
func NewBudget(maxSteps int64, check func() error) *Budget {
	b := &Budget{limited: maxSteps > 0, check: check}
	b.remaining.Store(maxSteps)
	return b
}

// Spend consumes n steps. It returns ErrBudget when the budget is
// exhausted, the check function's error when cancellation is observed,
// and nil otherwise. Spend on a nil budget is free and never fails.
func (b *Budget) Spend(n int64) error {
	if b == nil {
		return nil
	}
	b.spent.Add(n)
	if b.limited && b.remaining.Add(-n) < 0 {
		return ErrBudget
	}
	if b.check != nil && b.sinceCheck.Add(n) >= budgetCheckInterval {
		b.sinceCheck.Store(0)
		return b.check()
	}
	return nil
}

// Remaining reports the steps left; it returns a negative number once the
// budget is exhausted and math-irrelevant values for unlimited budgets.
func (b *Budget) Remaining() int64 {
	if b == nil || !b.limited {
		return 1<<63 - 1
	}
	return b.remaining.Load()
}

// Spent reports the elementary solver steps consumed through this budget
// so far (limited or not). Spent on a nil budget is 0.
func (b *Budget) Spent() int64 {
	if b == nil {
		return 0
	}
	return b.spent.Load()
}
