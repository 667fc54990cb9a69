package datalog

import (
	"context"
	"errors"
	"fmt"

	"videodb/internal/constraint"
)

// Cancellation and resource guards. An engine built with WithContext
// observes its context cooperatively: once per fixpoint round, every
// cancelCheckInterval candidate tuples inside the join kernel (so a
// single pathological join cannot outlive its request), and — through a
// constraint.Budget installed for the run — inside constraint filters,
// each of whose checks spends one budget step. Cancelled evaluations
// return an error that errors.Is-matches both ErrCanceled and the
// context's own cause (context.Canceled or context.DeadlineExceeded), so
// callers can distinguish "the client went away" from "the query was
// wrong".

// ErrCanceled marks evaluation errors caused by context cancellation or
// deadline expiry. Test with errors.Is (or IsCanceled).
var ErrCanceled = errors.New("datalog: evaluation canceled")

// ErrLimitExceeded marks evaluation errors caused by a resource guard
// tripping: MaxRounds, MaxDerived, MaxCreated, or a solver step budget.
// Test with errors.Is.
var ErrLimitExceeded = errors.New("datalog: resource limit exceeded")

// IsCanceled reports whether err (anywhere in its chain) is a
// cancellation error produced by a context-aware evaluation.
func IsCanceled(err error) bool { return errors.Is(err, ErrCanceled) }

// canceledError carries the context's error so callers can also match
// context.Canceled / context.DeadlineExceeded.
type canceledError struct{ cause error }

func (c *canceledError) Error() string {
	return fmt.Sprintf("datalog: evaluation canceled: %v", c.cause)
}

func (c *canceledError) Unwrap() error { return c.cause }

func (c *canceledError) Is(target error) bool { return target == ErrCanceled }

// WithContext makes the engine observe ctx: evaluation stops with an
// ErrCanceled-wrapped error soon after ctx is done — within one fixpoint
// round, and within cancelCheckInterval tuples inside a join.
func WithContext(ctx context.Context) Option { return func(e *Engine) { e.ctx = ctx } }

// MaxDerived bounds the number of derived tuples (excluding EDB seeds) a
// run may produce, alongside the MaxRounds iteration guard: recursion
// through wide joins can blow up the extent long before the round bound
// trips. Exceeding it returns an ErrLimitExceeded-wrapped error.
func MaxDerived(n int) Option { return func(e *Engine) { e.maxDerived = n } }

// MaxSolverSteps bounds the constraint-solver step budget of one run
// (0 = unlimited). The budget also carries the engine's cancellation
// check into constraint-level evaluation.
func MaxSolverSteps(n int64) Option { return func(e *Engine) { e.maxSolverSteps = n } }

// cancelCheckInterval is the number of join-kernel candidate tuples
// between context checks; a power of two so the hot-path test is a mask.
const cancelCheckInterval = 1 << 10

// checkCancel reports the context's cancellation as a typed error.
func (e *Engine) checkCancel() error {
	if e.ctx == nil {
		return nil
	}
	if err := e.ctx.Err(); err != nil {
		return &canceledError{cause: err}
	}
	return nil
}

// tick is called once per candidate tuple in the join kernel and class
// enumeration; it checks the context every cancelCheckInterval calls.
// With no context attached it is a single branch.
func (e *Engine) tick() error {
	if e.ctx == nil {
		return nil
	}
	e.ticks++
	if e.ticks&(cancelCheckInterval-1) != 0 {
		return nil
	}
	return e.checkCancel()
}

// spendSolver charges the run's constraint budget, translating budget
// exhaustion into the engine's limit error. Cancellation errors from the
// budget's check function pass through unchanged.
func (e *Engine) spendSolver(n int64) error {
	err := e.budget.Spend(n)
	if errors.Is(err, constraint.ErrBudget) {
		return fmt.Errorf("%w: %v (raise MaxSolverSteps if intended)", ErrLimitExceeded, err)
	}
	return err
}
