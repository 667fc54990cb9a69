package datalog

import (
	"testing"

	"videodb/internal/constraint"
	"videodb/internal/object"
	"videodb/internal/store"
)

func TestAssignmentProjection(t *testing.T) {
	s := store.New()
	s.Put(object.NewEntity("a").Set("score", object.Num(10)))
	s.Put(object.NewEntity("b").Set("score", object.Num(20)))
	s.Put(object.NewEntity("c")) // no score

	// q(O, S) :- Object(O), O.score = S.
	p := NewProgram(NewRule(
		Rel("q", Var("O"), Var("S")),
		ObjectAtom(Var("O")),
		Cmp(AttrOp(Var("O"), "score"), constraint.Eq, TermOp(Var("S"))),
	))
	e := mustEngine(t, s, p)
	rows, err := e.Rows("q")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v (objects without the attribute must not match)", rows)
	}
	if oid, _ := rows[0][0].AsRef(); oid != "a" {
		t.Errorf("row 0 = %v", rows[0])
	}
	if n, _ := rows[0][1].AsNumber(); n != 10 {
		t.Errorf("row 0 score = %v", rows[0][1])
	}

	// The comparison forms agree with the assignment: an attribute no
	// object defines holds under neither = nor !=, in the engine and in
	// the reference.
	cmp := NewProgram(
		NewRule(Rel("same", Var("X"), Var("Y")), ObjectAtom(Var("X")), ObjectAtom(Var("Y")),
			Cmp(AttrOp(Var("X"), "missing"), constraint.Eq, AttrOp(Var("Y"), "missing"))),
		NewRule(Rel("other", Var("X")), ObjectAtom(Var("X")),
			Cmp(AttrOp(Var("X"), "missing"), constraint.Ne, TermOp(Const(object.Num(5))))),
	)
	ce := mustEngine(t, s, cmp)
	model, _, err := refModel(s, cmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"same", "other"} {
		rows, err := ce.Rows(pred)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 || len(model[pred]) != 0 {
			t.Errorf("%s over an undefined attribute: engine %v, reference %v, want none", pred, rows, model[pred])
		}
	}
}

func TestAssignmentChain(t *testing.T) {
	s := store.New()
	s.Put(object.NewEntity("a").Set("v", object.Num(7)))
	// S flows from the attribute, T from S.
	p := NewProgram(NewRule(
		Rel("q", Var("T")),
		ObjectAtom(Var("O")),
		Cmp(TermOp(Var("T")), constraint.Eq, TermOp(Var("S"))),
		Cmp(AttrOp(Var("O"), "v"), constraint.Eq, TermOp(Var("S"))),
	))
	e := mustEngine(t, s, p)
	rows, err := e.Rows("q")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if n, _ := rows[0][0].AsNumber(); n != 7 {
		t.Errorf("T = %v", rows[0][0])
	}
}

func TestAssignmentAsEqualityCheckWhenBound(t *testing.T) {
	s := store.New()
	s.Put(object.NewEntity("a").Set("x", object.Num(1)).Set("y", object.Num(1)))
	s.Put(object.NewEntity("b").Set("x", object.Num(1)).Set("y", object.Num(2)))
	// S is bound by the first equality, the second becomes a check.
	p := NewProgram(NewRule(
		Rel("sym", Var("O")),
		ObjectAtom(Var("O")),
		Cmp(AttrOp(Var("O"), "x"), constraint.Eq, TermOp(Var("S"))),
		Cmp(AttrOp(Var("O"), "y"), constraint.Eq, TermOp(Var("S"))),
	))
	e := mustEngine(t, s, p)
	wantOIDs(t, oidResults(t, e, Rel("sym", Var("O"))), "a")
}

func TestAssignmentUnsafeStillRejected(t *testing.T) {
	// X = Y with neither bound remains unsafe.
	p := NewProgram(NewRule(
		Rel("q", Var("X")),
		Cmp(TermOp(Var("X")), constraint.Eq, TermOp(Var("Y"))),
	))
	if _, err := NewEngine(store.New(), p); err == nil {
		t.Error("floating equality should be rejected")
	}
	// Non-equality comparisons never bind.
	p2 := NewProgram(NewRule(
		Rel("q", Var("X")),
		Rel("p", Var("O")),
		Cmp(TermOp(Var("X")), constraint.Lt, TermOp(Var("O"))),
	))
	if _, err := NewEngine(store.New(), p2); err == nil {
		t.Error("inequality must not bind")
	}
}

func TestAssignmentFromConstant(t *testing.T) {
	s := store.New()
	s.AddFact(store.NewFact("p", object.Num(1)))
	p := NewProgram(NewRule(
		Rel("q", Var("S")),
		Rel("p", Var("X")),
		Cmp(TermOp(Var("S")), constraint.Eq, TermOp(Const(object.Num(42)))),
	))
	e := mustEngine(t, s, p)
	rows, err := e.Rows("q")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if n, _ := rows[0][0].AsNumber(); n != 42 {
		t.Errorf("S = %v", rows[0][0])
	}
}
