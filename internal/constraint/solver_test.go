package constraint

import "testing"

func conj(atoms ...Atom) Conj { return Conj(atoms) }

func TestMultiVarSatisfiability(t *testing.T) {
	x, y, z := V("x"), V("y"), V("z")
	cases := []struct {
		name string
		c    Conj
		want bool
	}{
		{"empty", conj(), true},
		{"chain", conj(NewAtom(x, Lt, y), NewAtom(y, Lt, z)), true},
		{"cycle strict", conj(NewAtom(x, Lt, y), NewAtom(y, Lt, x)), false},
		{"cycle le ok", conj(NewAtom(x, Le, y), NewAtom(y, Le, x)), true}, // x = y
		{"le cycle with ne", conj(NewAtom(x, Le, y), NewAtom(y, Le, x), NewAtom(x, Ne, y)), false},
		{"eq and ne", conj(NewAtom(x, Eq, y), NewAtom(x, Ne, y)), false},
		{"eq transitive strict", conj(NewAtom(x, Eq, y), NewAtom(y, Eq, z), NewAtom(x, Lt, z)), false},
		{"eq transitive le", conj(NewAtom(x, Eq, y), NewAtom(y, Eq, z), NewAtom(x, Le, z)), true},
		{"ne alone", conj(NewAtom(x, Ne, y)), true},
		{"squeeze between constants", conj(VarCmp("x", Gt, 0), VarCmp("x", Lt, 1)), true},
		{"squeeze impossible", conj(VarCmp("x", Gt, 1), VarCmp("x", Lt, 0)), false},
		{"pinned to two constants", conj(VarCmp("x", Eq, 1), VarCmp("x", Eq, 2)), false},
		{"pinned to one constant twice", conj(VarCmp("x", Eq, 1), VarCmp("x", Eq, 1)), true},
		{"const chain forces order", conj(
			VarCmp("x", Le, 1), NewAtom(C(2), Le, V("x"))), false},
		{"through constants", conj(
			VarCmp("x", Lt, 5), NewAtom(C(3), Lt, V("y")), NewAtom(y, Lt, x)), true},
		{"x between y twice", conj(NewAtom(x, Le, y), NewAtom(y, Le, x), VarCmp("x", Eq, 7)), true},
		{"ground contradiction", conj(NewAtom(C(1), Gt, C(2))), false},
		{"ground fine", conj(NewAtom(C(1), Lt, C(2))), true},
		{"reflexive eq", conj(NewAtom(x, Eq, x)), true},
		{"reflexive lt", conj(NewAtom(x, Lt, x)), false},
		{"reflexive ne", conj(NewAtom(x, Ne, x)), false},
		{"long cycle one strict", conj(
			NewAtom(x, Le, y), NewAtom(y, Le, z), NewAtom(z, Lt, x)), false},
		{"diamond", conj(
			NewAtom(x, Lt, y), NewAtom(x, Lt, z), NewAtom(y, Lt, V("w")), NewAtom(z, Lt, V("w"))), true},
	}
	for _, tc := range cases {
		if got, _ := conjSatisfiable(tc.c, nil); got != tc.want {
			t.Errorf("%s: satisfiable(%v) = %v, want %v", tc.name, tc.c, got, tc.want)
		}
	}
}

func TestMultiVarEntailment(t *testing.T) {
	x, y, z := V("x"), V("y"), V("z")
	cases := []struct {
		name string
		f, g Formula
		want bool
	}{
		{"transitivity", Formula{conj(NewAtom(x, Lt, y), NewAtom(y, Lt, z))},
			FromAtom(NewAtom(x, Lt, z)), true},
		{"no converse", FromAtom(NewAtom(x, Lt, z)),
			Formula{conj(NewAtom(x, Lt, y), NewAtom(y, Lt, z))}, false},
		{"lt implies le", FromAtom(NewAtom(x, Lt, y)), FromAtom(NewAtom(x, Le, y)), true},
		{"le not implies lt", FromAtom(NewAtom(x, Le, y)), FromAtom(NewAtom(x, Lt, y)), false},
		{"lt implies ne", FromAtom(NewAtom(x, Lt, y)), FromAtom(NewAtom(x, Ne, y)), true},
		{"eq implies le both", FromAtom(NewAtom(x, Eq, y)),
			Formula{conj(NewAtom(x, Le, y), NewAtom(y, Le, x))}, true},
		{"le both implies eq", Formula{conj(NewAtom(x, Le, y), NewAtom(y, Le, x))},
			FromAtom(NewAtom(x, Eq, y)), true},
		{"disjunctive conclusion", FromAtom(NewAtom(x, Ne, y)),
			FromAtom(NewAtom(x, Lt, y)).Or(FromAtom(NewAtom(x, Gt, y))), true},
		{"totality", True(),
			FromAtom(NewAtom(x, Lt, y)).Or(FromAtom(NewAtom(x, Eq, y))).Or(FromAtom(NewAtom(x, Gt, y))), true},
		{"not one sided", True(), FromAtom(NewAtom(x, Le, y)), false},
		{"unsat antecedent", Formula{conj(NewAtom(x, Lt, y), NewAtom(y, Lt, x))},
			FromAtom(NewAtom(x, Eq, y)), true},
		{"const propagation", Formula{conj(VarCmp("x", Lt, 3), NewAtom(y, Gt, V("x")))},
			FromAtom(VarCmp("y", Gt, 0)), false}, // y > x and x < 3 does not bound y below
		{"const squeeze", Formula{conj(VarCmp("x", Gt, 3), NewAtom(y, Gt, V("x")))},
			FromAtom(VarCmp("y", Gt, 3)), true},
		{"const squeeze strictness", Formula{conj(VarCmp("x", Ge, 3), NewAtom(y, Ge, V("x")))},
			FromAtom(VarCmp("y", Gt, 3)), false},
		{"mixed vars entail ground", Formula{conj(VarCmp("x", Gt, 5), VarCmp("x", Lt, 4))},
			FromAtom(NewAtom(C(1), Lt, C(0))), true}, // unsat antecedent
	}
	for _, tc := range cases {
		if got := tc.f.Entails(tc.g); got != tc.want {
			t.Errorf("%s: (%v) ⇒ (%v) = %v, want %v", tc.name, tc.f, tc.g, got, tc.want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	x, y := V("x"), V("y")
	a := FromAtom(NewAtom(x, Eq, y))
	b := Formula{conj(NewAtom(x, Le, y), NewAtom(y, Le, x))}
	if !a.Equivalent(b) {
		t.Error("x=y should be equivalent to x≤y ∧ y≤x")
	}
	if a.Equivalent(FromAtom(NewAtom(x, Le, y))) {
		t.Error("x=y should not be equivalent to x≤y")
	}
}

func TestEntailmentMatchesTruthTableOnSamples(t *testing.T) {
	// Differential test: check Entails against brute-force evaluation on a
	// grid of valuations. If f ⇒ g, then no grid point may satisfy f ∧ ¬g.
	x, y := V("x"), V("y")
	formulas := []Formula{
		FromAtom(NewAtom(x, Lt, y)),
		FromAtom(NewAtom(x, Le, y)),
		FromAtom(NewAtom(x, Eq, y)),
		FromAtom(NewAtom(x, Ne, y)),
		FromAtom(VarCmp("x", Lt, 2)),
		FromAtom(VarCmp("y", Gt, 1)),
		Formula{conj(NewAtom(x, Lt, y), VarCmp("x", Gt, 0))},
		FromAtom(NewAtom(x, Lt, y)).Or(FromAtom(NewAtom(y, Lt, x))),
		True(),
		False(),
	}
	grid := []float64{-1, 0, 0.5, 1, 1.5, 2, 3}
	for _, f := range formulas {
		for _, g := range formulas {
			entails := f.Entails(g)
			if !entails {
				continue
			}
			for _, xv := range grid {
				for _, yv := range grid {
					val := map[string]float64{"x": xv, "y": yv}
					fOK, _ := f.Eval(val)
					gOK, _ := g.Eval(val)
					if fOK && !gOK {
						t.Errorf("(%v) ⇒ (%v) claimed but x=%v,y=%v is a countermodel",
							f, g, xv, yv)
					}
				}
			}
		}
	}
}
