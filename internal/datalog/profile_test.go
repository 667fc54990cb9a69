package datalog

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// entailStore builds n generalized intervals with varied spans, so Entail
// checks both hold and fail.
func entailStore(t testing.TB, n int) *store.Store {
	t.Helper()
	st := store.New()
	for i := 0; i < n; i++ {
		lo := float64(i % 17)
		o := object.NewInterval(object.OID(fmt.Sprintf("g%03d", i)),
			interval.New(interval.Open(lo, lo+3+float64(i%5))))
		if err := st.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// entailProgram derives the pairs (G1, G2) whose durations entail: a
// quadratic workload of n² `=>` checks over n intervals.
func entailProgram() Program {
	return NewProgram(NewRule(
		Rel("cover", Var("G1"), Var("G2")),
		Interval(Var("G1")),
		Interval(Var("G2")),
		Entails(AttrOp(Var("G2"), "duration"), AttrOp(Var("G1"), "duration")),
	))
}

// TestProfileMatchesRunStats checks the profile's totals against the
// run's statistics: rounds, firings and derived sums must match exactly,
// and (under serial evaluation) the per-rule times must sum to within the
// total round time.
func TestProfileMatchesRunStats(t *testing.T) {
	st := entailStore(t, 30)
	for i := 0; i < 10; i++ {
		st.AddFact(store.NewFact("next",
			object.Str(fmt.Sprintf("n%02d", i)), object.Str(fmt.Sprintf("n%02d", i+1))))
	}
	prog := NewProgram(
		NewRule(
			Rel("cover", Var("G1"), Var("G2")),
			Interval(Var("G1")),
			Interval(Var("G2")),
			Entails(AttrOp(Var("G2"), "duration"), AttrOp(Var("G1"), "duration")),
		),
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("next", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("next", Var("X"), Var("Y")), Rel("reach", Var("Y"), Var("Z"))),
	)
	e := mustEngine(t, st, prog, WithProfiling())
	if e.Profile() != nil {
		t.Fatal("Profile should be nil before Run")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	p := e.Profile()
	if p == nil {
		t.Fatal("Profile is nil after a profiled Run")
	}
	rs := e.Stats()

	if len(p.Rounds) != rs.Rounds {
		t.Errorf("profile has %d rounds, RunStats %d", len(p.Rounds), rs.Rounds)
	}
	var roundFirings, roundDerived int
	var roundTime time.Duration
	for _, r := range p.Rounds {
		roundFirings += r.Firings
		roundDerived += r.Derived
		roundTime += r.Time
	}
	if roundFirings != rs.Firings {
		t.Errorf("round firings sum to %d, RunStats.Firings = %d", roundFirings, rs.Firings)
	}
	if roundDerived != rs.Derived {
		t.Errorf("round derived sum to %d, RunStats.Derived = %d", roundDerived, rs.Derived)
	}

	var ruleFirings, ruleDerived, ruleEvals int
	var ruleTime time.Duration
	for _, r := range p.Rules {
		ruleFirings += r.Firings
		ruleDerived += r.Derived
		ruleEvals += r.Evals
		ruleTime += r.Time
	}
	if ruleFirings != rs.Firings {
		t.Errorf("rule firings sum to %d, RunStats.Firings = %d", ruleFirings, rs.Firings)
	}
	if ruleDerived != rs.Derived {
		t.Errorf("rule derived sum to %d, RunStats.Derived = %d", ruleDerived, rs.Derived)
	}
	if ruleEvals == 0 {
		t.Error("no rule evaluations recorded")
	}
	// Serial evaluation: rule time is a subset of round time, which is a
	// subset of the total (rounds exclude snapshot/warming overhead).
	if ruleTime > roundTime {
		t.Errorf("per-rule times (%v) exceed total round time (%v) under serial evaluation",
			ruleTime, roundTime)
	}
	if roundTime > p.Total {
		t.Errorf("round times (%v) exceed the profile total (%v)", roundTime, p.Total)
	}
	if p.SolverSteps <= 0 {
		t.Error("an Entails workload should consume solver steps")
	}
	if p.SolverSteps != rs.SolverSteps {
		t.Errorf("profile SolverSteps = %d, RunStats.SolverSteps = %d", p.SolverSteps, rs.SolverSteps)
	}
}

// TestStatsDuringRun is the caller statsMu serves: Stats and Profile
// called from another goroutine while Run executes. Under -race this
// fails if the reads touch the run goroutine's working counters instead
// of the snapshot published at each round boundary.
func TestStatsDuringRun(t *testing.T) {
	e := mustEngine(t, chainStore(60), reachProgram(), WithProfiling())

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := e.Stats()
			if st.Derived < 0 {
				t.Error("impossible stats")
			}
			_ = e.Profile()
		}
	}()

	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if got, want := e.Stats().Rounds, 60; got < want {
		t.Errorf("rounds = %d, want at least %d", got, want)
	}
	if p := e.Profile(); p == nil || len(p.Rounds) != e.Stats().Rounds {
		t.Errorf("profile rounds inconsistent with stats after concurrent reads")
	}
}
