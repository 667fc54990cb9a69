package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"videodb/internal/constraint"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// The engine decides a `=>` guard between durations by generalized-
// interval containment. The dense-order solver is the oracle: on any pair
// of generalized intervals the filter must agree with
// constraint.DurationFormula(l).Entails(constraint.DurationFormula(r)).

// randGeneralized draws a generalized interval over a coarse integer grid,
// so touching and shared endpoints (open against closed) are common. The
// mix covers empty, single-point, unbounded and multi-span values.
func randGeneralized(r *rand.Rand) interval.Generalized {
	bound := func() float64 { return float64(r.Intn(9)) }
	span := func() interval.Span {
		lo := bound()
		hi := lo + float64(r.Intn(4))
		switch r.Intn(10) {
		case 0:
			return interval.Point(lo)
		case 1:
			return interval.Below(hi)
		case 2:
			return interval.AtLeast(lo)
		case 3:
			return interval.Full()
		}
		return interval.Span{Lo: lo, Hi: hi, LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0}
	}
	if r.Intn(8) == 0 {
		return interval.Empty()
	}
	spans := make([]interval.Span, 1+r.Intn(3))
	for i := range spans {
		spans[i] = span()
	}
	return interval.New(spans...)
}

// solverEntails is the oracle verdict: the dense-order solver's.
func solverEntails(l, r interval.Generalized) bool {
	return constraint.DurationFormula(l).Entails(constraint.DurationFormula(r))
}

// TestEntailFilterMatchesSolver runs one-rule `=>` programs over random
// generalized intervals and checks that the derived pairs are exactly the
// pairs the solver says entail, both between two interval variables and
// against a constant (the shape the interval-window pushdown serves).
func TestEntailFilterMatchesSolver(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		st := store.New()
		durs := make(map[object.OID]interval.Generalized)
		for i := 0; i < 20; i++ {
			oid := object.OID(fmt.Sprintf("g%02d", i))
			durs[oid] = randGeneralized(r)
			if err := st.Put(object.NewInterval(oid, durs[oid])); err != nil {
				t.Fatal(err)
			}
		}
		window := randGeneralized(r)
		prog := NewProgram(
			NewRule(Rel("ent", Var("G1"), Var("G2")),
				Interval(Var("G1")), Interval(Var("G2")),
				Entails(AttrOp(Var("G1"), "duration"), AttrOp(Var("G2"), "duration"))),
			NewRule(Rel("inwin", Var("G")),
				Interval(Var("G")),
				Entails(AttrOp(Var("G"), "duration"), TermOp(Const(object.Temporal(window))))),
		)
		e := mustEngine(t, st, prog)
		got := make(map[string]bool)
		for _, pred := range []string{"ent", "inwin"} {
			rows, err := e.Rows(pred)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				got[pred+RowKey(row)] = true
			}
		}
		want := 0
		for a, da := range durs {
			if solverEntails(da, window) {
				want++
				if !got["inwin"+RowKey(row{object.Ref(a)})] {
					t.Errorf("seed %d: %v => %v holds but inwin(%s) was not derived", seed, da, window, a)
				}
			}
			for b, db := range durs {
				if solverEntails(da, db) {
					want++
					if !got["ent"+RowKey(row{object.Ref(a), object.Ref(b)})] {
						t.Errorf("seed %d: %v => %v holds but ent(%s, %s) was not derived", seed, da, db, a, b)
					}
				}
			}
		}
		if len(got) != want {
			t.Errorf("seed %d: derived %d tuples, the solver admits %d", seed, len(got), want)
		}
	}
}

// TestEntailFilterCountGate pins the cost model of the `=>` filter: one
// budget step per check. A filter that routes through the dense-order
// solver again spends at least three (Formula.EntailsWithin charges one
// per span of each operand plus one) and fails the count.
func TestEntailFilterCountGate(t *testing.T) {
	const n = 30
	e := mustEngine(t, entailStore(t, n), entailProgram())
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rs := e.Stats(); rs.SolverSteps != n*n {
		t.Errorf("SolverSteps = %d, want n² = %d (one step per check)", rs.SolverSteps, n*n)
	}
}
