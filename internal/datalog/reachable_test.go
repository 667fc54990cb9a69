package datalog

import (
	"testing"

	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

func TestReachableKeepsDependencies(t *testing.T) {
	p := NewProgram(
		NewRule(Rel("a", Var("X")), Rel("b", Var("X"))),
		NewRule(Rel("b", Var("X")), Rel("edb", Var("X"))),
		NewRule(Rel("c", Var("X")), Rel("edb", Var("X"))), // irrelevant to a
		NewRule(Rel("d", Var("X")), Rel("c", Var("X"))),   // irrelevant to a
	)
	got := p.Reachable("a")
	if len(got.Rules) != 2 {
		t.Fatalf("kept %d rules: %v", len(got.Rules), got)
	}
	if got.Rules[0].Head.Pred != "a" || got.Rules[1].Head.Pred != "b" {
		t.Errorf("kept = %v", got)
	}
	// Unknown goal keeps nothing.
	if got := p.Reachable("zzz"); len(got.Rules) != 0 {
		t.Errorf("unknown goal kept %v", got)
	}
}

func TestReachableThroughNegation(t *testing.T) {
	p := NewProgram(
		NewRule(Rel("a", Var("X")), Rel("base", Var("X")), Not(Rel("b", Var("X")))),
		NewRule(Rel("b", Var("X")), Rel("other", Var("X"))),
		NewRule(Rel("junk", Var("X")), Rel("other", Var("X"))),
	)
	got := p.Reachable("a")
	if len(got.Rules) != 2 {
		t.Fatalf("kept %v", got)
	}
}

func TestReachableKeepsConstructiveRules(t *testing.T) {
	// q reads the Interval class, so the constructive rule (whose head
	// predicate q never mentions) must be kept: it grows the domain q
	// ranges over.
	p := NewProgram(
		NewRule(Rel("mk", Concat(Var("G1"), Var("G2"))),
			Interval(Var("G1")), Interval(Var("G2"))),
		NewRule(Rel("q", Var("G")), Interval(Var("G"))),
	)
	got := p.Reachable("q")
	if len(got.Rules) != 2 {
		t.Fatalf("kept %v", got)
	}
	// Without an Interval atom in the goal's cone, the constructive rule
	// is dropped.
	p2 := NewProgram(
		NewRule(Rel("mk", Concat(Var("G1"), Var("G2"))),
			Interval(Var("G1")), Interval(Var("G2"))),
		NewRule(Rel("q", Var("X")), Rel("edb", Var("X"))),
	)
	if got := p2.Reachable("q"); len(got.Rules) != 1 {
		t.Fatalf("kept %v", got)
	}
}

func TestReachablePreservesAnswers(t *testing.T) {
	// Differential check: pruned and full programs answer the goal
	// identically, on a program mixing recursion, negation and
	// construction.
	s := store.New()
	s.Put(object.NewInterval("g1", interval.FromPairs(0, 10)).
		Set(object.AttrEntities, object.RefSet("x")))
	s.Put(object.NewInterval("g2", interval.FromPairs(20, 30)).
		Set(object.AttrEntities, object.RefSet("x")))
	s.AddFact(store.NewFact("edge", object.Str("a"), object.Str("b")))
	s.AddFact(store.NewFact("edge", object.Str("b"), object.Str("c")))
	p := NewProgram(
		NewRule(Rel("mk", Concat(Var("G1"), Var("G2"))),
			Interval(Var("G1")), Interval(Var("G2"))),
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("Y"), Var("Z"))),
		NewRule(Rel("wide", Var("G")),
			Interval(Var("G")),
			Entails(TermOp(Const(object.Temporal(interval.FromPairs(0, 10, 20, 30)))),
				AttrOp(Var("G"), "duration"))),
		NewRule(Rel("junk", Var("X"), Var("Y")), Rel("reach", Var("X"), Var("Y"))),
	)
	for _, goal := range []string{"reach", "wide", "mk", "junk"} {
		full := mustEngine(t, s, p)
		pruned := mustEngine(t, s, p.Reachable(goal))
		r1, err1 := full.Rows(goal)
		r2, err2 := pruned.Rows(goal)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", goal, err1, err2)
		}
		if len(r1) != len(r2) {
			t.Fatalf("%s: %d vs %d answers", goal, len(r1), len(r2))
		}
		for i := range r1 {
			if RowKey(r1[i]) != RowKey(r2[i]) {
				t.Fatalf("%s: row %d differs", goal, i)
			}
		}
	}
}
