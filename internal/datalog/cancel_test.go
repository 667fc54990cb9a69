package datalog

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"videodb/internal/object"
	"videodb/internal/store"
)

// chainStore builds a next-chain of n facts, whose transitive closure
// derives n(n+1)/2 reach tuples.
func chainStore(n int) *store.Store {
	s := store.New()
	for i := 0; i < n; i++ {
		s.AddFact(store.NewFact("next",
			object.Str(fmt.Sprintf("n%d", i)), object.Str(fmt.Sprintf("n%d", i+1))))
	}
	return s
}

func reachProgram() Program {
	return NewProgram(
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("next", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("next", Var("Y"), Var("Z"))),
	)
}

func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := mustEngine(t, chainStore(5), reachProgram(), WithContext(ctx))
	err := e.Run()
	if err == nil {
		t.Fatal("pre-canceled context should stop evaluation")
	}
	if !IsCanceled(err) {
		t.Errorf("err = %v, want IsCanceled", err)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want errors.Is ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want errors.Is context.Canceled", err)
	}
}

func TestDeadlineStopsEvaluation(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	e := mustEngine(t, chainStore(5), reachProgram(), WithContext(ctx))
	err := e.Run()
	if !IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want errors.Is context.DeadlineExceeded", err)
	}
}

// trippingCtx is a context whose Err starts reporting Canceled after a
// fixed number of Err calls: a deterministic stand-in for "the client
// disconnects while the join kernel is mid-round".
type trippingCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *trippingCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelWithinOneRound proves the join kernel observes cancellation
// inside a single fixpoint round: a non-recursive triple cross join over
// 80 facts visits ~512k candidate tuples in round 1 alone, far more than
// cancelCheckInterval, and a context that trips after its second check
// must stop the run while stats.Rounds is still small — not after the
// round completes its full cross product.
func TestCancelWithinOneRound(t *testing.T) {
	s := store.New()
	for i := 0; i < 80; i++ {
		s.AddFact(store.NewFact("e", object.Str(fmt.Sprintf("v%d", i))))
	}
	p := NewProgram(NewRule(
		Rel("triples", Var("A"), Var("B"), Var("C")),
		Rel("e", Var("A")), Rel("e", Var("B")), Rel("e", Var("C")),
	))
	ctx := &trippingCtx{Context: context.Background(), after: 2}
	e := mustEngine(t, s, p, WithContext(ctx))
	err := e.Run()
	if !IsCanceled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	// The run died mid-round: nowhere near the 512000 firings of the full
	// cross product, and within one tick interval of the trip point.
	if e.Stats().Firings >= 80*80*80 {
		t.Errorf("run completed the full cross product (%d firings) before noticing cancellation", e.Stats().Firings)
	}
	if got := ctx.calls.Load(); got > ctx.after+1 {
		t.Errorf("context checked %d times after tripping, want at most 1", got-ctx.after)
	}
}

func TestUncancelledContextDoesNotChangeResults(t *testing.T) {
	s := chainStore(6)
	p := reachProgram()
	plain := mustEngine(t, s, p)
	ctxed := mustEngine(t, s, p, WithContext(context.Background()))
	q := Rel("reach", Var("X"), Var("Y"))
	a, err := plain.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctxed.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 6*7/2 {
		t.Errorf("results diverge with a live context: %d vs %d", len(a), len(b))
	}
}

func TestMaxDerivedGuardSerial(t *testing.T) {
	e := mustEngine(t, chainStore(50), reachProgram(), MaxDerived(100))
	err := e.Run()
	if err == nil {
		t.Fatal("MaxDerived(100) should trip on 1275 reach tuples")
	}
	if !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("err = %v, want errors.Is ErrLimitExceeded", err)
	}
	if IsCanceled(err) {
		t.Errorf("limit error must not look like a cancellation: %v", err)
	}
	// A generous bound converges normally.
	e2 := mustEngine(t, chainStore(50), reachProgram(), MaxDerived(10_000))
	if err := e2.Run(); err != nil {
		t.Errorf("generous MaxDerived failed: %v", err)
	}
}

func TestMaxRoundsErrorIsTyped(t *testing.T) {
	e := mustEngine(t, chainStore(5), reachProgram(), MaxRounds(2))
	if err := e.Run(); !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("MaxRounds err = %v, want errors.Is ErrLimitExceeded", err)
	}
}

func TestMaxSolverStepsGuard(t *testing.T) {
	s := ropeStore(t)
	// Each candidate pair spends one solver step on the temporal or
	// entailment filter; a budget of 1 cannot cover every pair.
	for name, guard := range map[string]Literal{
		"temporal": Temporal(AttrOp(Var("G"), "duration"), TempBefore, AttrOp(Var("H"), "duration")),
		"entails":  Entails(AttrOp(Var("G"), "duration"), AttrOp(Var("H"), "duration")),
	} {
		p := NewProgram(NewRule(
			Rel("q", Var("G"), Var("H")),
			Interval(Var("G")), Interval(Var("H")),
			guard,
		))
		e := mustEngine(t, s, p, MaxSolverSteps(1))
		err := e.Run()
		if !errors.Is(err, ErrLimitExceeded) {
			t.Fatalf("%s: err = %v, want errors.Is ErrLimitExceeded", name, err)
		}
		// Unlimited (default) evaluates fine.
		e2 := mustEngine(t, s, p)
		if err := e2.Run(); err != nil {
			t.Errorf("%s: unbudgeted run failed: %v", name, err)
		}
	}
}

// TestCancelInsideEntailFilter cancels a covers-shaped run — two interval
// scans and a `=>` guard per pair — once its first round is under way
// (the run and round checks pass, the next check trips): the filter's
// budget steps observe the context, so the run stops with ErrCanceled
// after some but not all of the n² checks.
func TestCancelInsideEntailFilter(t *testing.T) {
	const n = 80
	ctx := &trippingCtx{Context: context.Background(), after: 2}
	e := mustEngine(t, entailStore(t, n), entailProgram(), WithContext(ctx))
	err := e.Run()
	if !IsCanceled(err) {
		t.Fatalf("err = %v, want errors.Is ErrCanceled", err)
	}
	if steps := e.Stats().SolverSteps; steps == 0 || steps >= n*n {
		t.Errorf("run spent %d filter steps, want some but fewer than n² = %d", steps, n*n)
	}
}
