package constraint

import "testing"

func TestSetTermBasics(t *testing.T) {
	lit := SetLit("b", "a", "b")
	if got := lit.String(); got != "{a, b}" {
		t.Errorf("SetLit dedup/sort: %q", got)
	}
	if SetVar("X").String() != "X" {
		t.Error("SetVar String")
	}
	if got := Member("o1", "E").String(); got != "{o1} ⊆ E" {
		t.Errorf("Member String = %q", got)
	}
}

func TestSetConjEval(t *testing.T) {
	c := SetConj{
		Member("a", "X"),
		Subset(SetVar("X"), SetVar("Y")),
		Subset(SetVar("Y"), SetLit("a", "b", "c")),
	}
	ok, err := c.Eval(map[string][]string{"X": {"a"}, "Y": {"a", "b"}})
	if err != nil || !ok {
		t.Errorf("Eval = %v, %v", ok, err)
	}
	ok, err = c.Eval(map[string][]string{"X": {"a", "z"}, "Y": {"a", "z"}})
	if err != nil || ok {
		t.Errorf("Eval with escape = %v, %v; want false", ok, err)
	}
	if _, err := c.Eval(map[string][]string{"X": {"a"}}); err == nil {
		t.Error("expected unbound set variable error")
	}
}

func TestSetSatisfiability(t *testing.T) {
	cases := []struct {
		name string
		c    SetConj
		want bool
	}{
		{"empty", SetConj{}, true},
		{"member", SetConj{Member("a", "X")}, true},
		{"member vs upper", SetConj{Member("a", "X"), Subset(SetVar("X"), SetLit("b"))}, false},
		{"member within upper", SetConj{Member("a", "X"), Subset(SetVar("X"), SetLit("a", "b"))}, true},
		{"lower via chain", SetConj{
			Member("a", "X"), Subset(SetVar("X"), SetVar("Y")),
			Subset(SetVar("Y"), SetLit("b", "c"))}, false},
		{"upper flows backward", SetConj{
			Subset(SetVar("X"), SetVar("Y")), Subset(SetVar("Y"), SetLit("a")),
			Member("b", "X")}, false},
		{"consistent chain", SetConj{
			Subset(SetLit("a"), SetVar("X")), Subset(SetVar("X"), SetVar("Y")),
			Subset(SetVar("Y"), SetLit("a", "b"))}, true},
		{"ground ok", SetConj{Subset(SetLit("a"), SetLit("a", "b"))}, true},
		{"ground bad", SetConj{Subset(SetLit("a", "z"), SetLit("a", "b"))}, false},
		{"two uppers intersect", SetConj{
			Subset(SetVar("X"), SetLit("a", "b")), Subset(SetVar("X"), SetLit("b", "c")),
			Member("b", "X")}, true},
		{"two uppers empty meet", SetConj{
			Subset(SetVar("X"), SetLit("a")), Subset(SetVar("X"), SetLit("c")),
			Member("a", "X")}, false},
		{"cycle equality", SetConj{
			Subset(SetVar("X"), SetVar("Y")), Subset(SetVar("Y"), SetVar("X")),
			Member("a", "X"), Subset(SetVar("Y"), SetLit("a", "b"))}, true},
		{"cycle equality conflict", SetConj{
			Subset(SetVar("X"), SetVar("Y")), Subset(SetVar("Y"), SetVar("X")),
			Member("a", "X"), Subset(SetVar("Y"), SetLit("b"))}, false},
	}
	for _, tc := range cases {
		if got := tc.c.Satisfiable(); got != tc.want {
			t.Errorf("%s: Satisfiable(%v) = %v, want %v", tc.name, tc.c, got, tc.want)
		}
	}
}

func TestSetEntailment(t *testing.T) {
	cases := []struct {
		name string
		f, g SetConj
		want bool
	}{
		{"reflexive", SetConj{Member("a", "X")}, SetConj{Member("a", "X")}, true},
		{"weaken member", SetConj{Subset(SetLit("a", "b"), SetVar("X"))},
			SetConj{Member("a", "X")}, true},
		{"no invent member", SetConj{Member("a", "X")}, SetConj{Member("b", "X")}, false},
		{"member through chain", SetConj{Member("a", "X"), Subset(SetVar("X"), SetVar("Y"))},
			SetConj{Member("a", "Y")}, true},
		{"subset transitive", SetConj{
			Subset(SetVar("X"), SetVar("Y")), Subset(SetVar("Y"), SetVar("Z"))},
			SetConj{Subset(SetVar("X"), SetVar("Z"))}, true},
		{"subset not symmetric", SetConj{Subset(SetVar("X"), SetVar("Y"))},
			SetConj{Subset(SetVar("Y"), SetVar("X"))}, false},
		{"upper entails upper", SetConj{Subset(SetVar("X"), SetLit("a"))},
			SetConj{Subset(SetVar("X"), SetLit("a", "b"))}, true},
		{"upper too generous", SetConj{Subset(SetVar("X"), SetLit("a", "b"))},
			SetConj{Subset(SetVar("X"), SetLit("a"))}, false},
		{"no upper no bound", SetConj{Member("a", "X")},
			SetConj{Subset(SetVar("X"), SetLit("a"))}, false},
		{"unsat antecedent", SetConj{Member("a", "X"), Subset(SetVar("X"), SetLit("b"))},
			SetConj{Member("z", "Q")}, true},
		{"subset via bounds", SetConj{
			Subset(SetVar("X"), SetLit("a")), Subset(SetLit("a"), SetVar("Y"))},
			SetConj{Subset(SetVar("X"), SetVar("Y"))}, true},
		{"empty subset of unmentioned", SetConj{Subset(SetVar("X"), SetLit())},
			SetConj{Subset(SetVar("X"), SetVar("Y"))}, true},
		{"ground entailed", SetConj{}, SetConj{Subset(SetLit("a"), SetLit("a", "b"))}, true},
		{"ground not entailed", SetConj{}, SetConj{Subset(SetLit("z"), SetLit("a"))}, false},
		{"self subset", SetConj{}, SetConj{Subset(SetVar("X"), SetVar("X"))}, true},
		{"fresh var upper unknown", SetConj{}, SetConj{Subset(SetVar("Q"), SetLit("a"))}, false},
		{"fresh var lower empty ok", SetConj{}, SetConj{Subset(SetLit(), SetVar("Q"))}, true},
	}
	for _, tc := range cases {
		if got := tc.f.Entails(tc.g); got != tc.want {
			t.Errorf("%s: (%v) ⇒ (%v) = %v, want %v", tc.name, tc.f, tc.g, got, tc.want)
		}
	}
}

func TestSetEntailmentSoundAgainstEnumeration(t *testing.T) {
	// Differential test over a tiny universe {a, b}: enumerate all
	// assignments of subsets to X and Y; whenever Entails claims f ⇒ g,
	// no assignment may satisfy f but not g.
	universe := [][]string{{}, {"a"}, {"b"}, {"a", "b"}}
	atoms := []SetAtom{
		Member("a", "X"),
		Member("b", "Y"),
		Subset(SetVar("X"), SetVar("Y")),
		Subset(SetVar("Y"), SetVar("X")),
		Subset(SetVar("X"), SetLit("a")),
		Subset(SetVar("Y"), SetLit("a", "b")),
		Subset(SetLit("b"), SetVar("X")),
	}
	var conjs []SetConj
	for i := range atoms {
		conjs = append(conjs, SetConj{atoms[i]})
		for j := i + 1; j < len(atoms); j++ {
			conjs = append(conjs, SetConj{atoms[i], atoms[j]})
		}
	}
	for _, f := range conjs {
		for _, g := range conjs {
			if !f.Entails(g) {
				continue
			}
			for _, xs := range universe {
				for _, ys := range universe {
					val := map[string][]string{"X": xs, "Y": ys}
					fOK, _ := f.Eval(val)
					gOK, _ := g.Eval(val)
					if fOK && !gOK {
						t.Errorf("(%v) ⇒ (%v) claimed but X=%v Y=%v is a countermodel",
							f, g, xs, ys)
					}
				}
			}
		}
	}
}
