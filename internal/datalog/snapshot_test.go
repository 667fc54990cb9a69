package datalog

import (
	"fmt"
	"testing"

	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// The per-run oid snapshot is taken only for the lists a program can
// read: these tests pin which programs take which list, and that the
// answers do not depend on it under every evaluator.

// snapshotModes are the evaluators the answers must agree across.
var snapshotModes = map[string][]Option{
	"semi-naive": nil,
	"naive":      {Naive()},
}

// snapshotAnswer runs the program under every mode, checks the snapshot
// flags, and returns the goal's answer (the same under every mode).
func snapshotAnswer(t *testing.T, s *store.Store, p Program, goal RelAtom, intervals, entities bool) string {
	t.Helper()
	answer := ""
	for name, opts := range snapshotModes {
		e := mustEngine(t, s, p, opts...)
		res, err := e.Query(goal)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := fmt.Sprint(res)
		if answer == "" {
			answer = got
		} else if got != answer {
			t.Fatalf("%s: %s = %s, another mode answered %s", name, goal, got, answer)
		}
		if e.readsIntervals != intervals || (e.baseIntervals != nil) != intervals {
			t.Errorf("%s: readsIntervals = %v with %d intervals snapshotted, want %v", name, e.readsIntervals, len(e.baseIntervals), intervals)
		}
		if e.readsEntities != entities || (e.baseEntities != nil) != entities {
			t.Errorf("%s: readsEntities = %v with %d entities snapshotted, want %v", name, e.readsEntities, len(e.baseEntities), entities)
		}
	}
	return answer
}

func TestSnapshotSkippedForRelationalProgram(t *testing.T) {
	s := ropeStore(t)
	p := NewProgram(NewRule(Rel("inside", Var("X"), Var("G")), Rel("in", Var("X"), Var("Y"), Var("G"))))
	got := snapshotAnswer(t, s, p, Rel("inside", Oid("o1"), Var("G")), false, false)
	if want := "[gi1 gi2]"; got != want {
		t.Errorf("inside(o1, G) = %s, want %s", got, want)
	}
	// An Object class atom reads the entity list only.
	p = NewProgram(NewRule(Rel("ent", Var("O")), ObjectAtom(Var("O")), Rel("in", Var("O"), Var("Y"), Var("G"))))
	if got, want := snapshotAnswer(t, s, p, Rel("ent", Var("O")), false, true), "[o1]"; got != want {
		t.Errorf("ent(O) = %s, want %s", got, want)
	}
}

// TestSnapshotIntervalAtomInLowerStratum: the program's only Interval
// class atom sits in stratum 0, below a negation; the interval list must
// still be snapshotted for it.
func TestSnapshotIntervalAtomInLowerStratum(t *testing.T) {
	s := ropeStore(t)
	if err := s.Put(object.NewInterval("gi3", interval.New(interval.Open(90, 95)))); err != nil {
		t.Fatal(err)
	}
	p := NewProgram(
		NewRule(Rel("shot", Var("G")), Interval(Var("G"))),
		NewRule(Rel("annotated", Var("G")), Rel("in", Var("X"), Var("Y"), Var("G"))),
		NewRule(Rel("bare", Var("G")), Rel("shot", Var("G")), Not(Rel("annotated", Var("G")))),
	)
	e := mustEngine(t, s, p)
	if e.predStrata["bare"] <= e.predStrata["shot"] {
		t.Fatalf("strata: shot %d, bare %d; the Interval atom must sit below the goal", e.predStrata["shot"], e.predStrata["bare"])
	}
	if got, want := snapshotAnswer(t, s, p, Rel("bare", Var("G")), true, false), "[gi3]"; got != want {
		t.Errorf("bare(G) = %s, want %s", got, want)
	}
}

// TestSnapshotConcatHeadOnly: the only reader of the interval list is a
// ⊕ head; the body is relational.
func TestSnapshotConcatHeadOnly(t *testing.T) {
	s := ropeStore(t)
	s.AddFact(store.RefFact("next", "gi1", "gi2"))
	p := NewProgram(NewRule(Rel("joined", Concat(Var("A"), Var("B"))), Rel("next", Var("A"), Var("B"))))
	if got, want := snapshotAnswer(t, s, p, Rel("joined", Var("G")), true, false), "[gi1+gi2]"; got != want {
		t.Errorf("joined(G) = %s, want %s", got, want)
	}
}
