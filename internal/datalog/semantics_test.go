package datalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"videodb/internal/constraint"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// This file checks the engine against the paper's declarative semantics
// (Definitions 14–22, Theorems 1 and 3) using an independent
// implementation of the immediate consequence operator TP: valuations
// are enumerated by brute force over the active domain, with no sharing
// of the engine's join machinery, and filters are decided by the
// reference evaluator (reference_test.go).

// groundAtoms is an interpretation: a set of ground relational atoms.
type groundAtoms map[string]row // key: pred \x00 rowKey

func atomKey(pred string, t row) string { return pred + "\x00" + RowKey(t) }

// refTP computes TP(I) — the immediate consequences of I and the program
// (Definition 21) — by enumerating all valuations of each rule's
// variables over the active domain.
func refTP(t *testing.T, st *store.Store, p Program, I groundAtoms) groundAtoms {
	t.Helper()
	// Filter atoms are decided by the reference evaluator's literal check,
	// which only consults the store (no derived state involved).
	filterCtx := newRefEval(st)

	// Active domain: every value appearing in the store or in I.
	domainSet := map[string]object.Value{}
	add := func(v object.Value) { domainSet[v.String()] = v }
	for _, oid := range st.OIDs() {
		add(object.Ref(oid))
	}
	for _, rel := range st.Relations() {
		for _, f := range st.Facts(rel) {
			for _, v := range f.Args {
				add(v)
			}
		}
	}
	for _, tuple := range I {
		for _, v := range tuple {
			add(v)
		}
	}
	var domain []object.Value
	for _, v := range domainSet {
		domain = append(domain, v)
	}

	holds := func(pred string, tuple row) bool {
		if _, ok := I[atomKey(pred, tuple)]; ok {
			return true
		}
		// EDB facts are part of every interpretation's base.
		for _, f := range st.Facts(pred) {
			if RowKey(row(f.Args)) == RowKey(tuple) {
				return true
			}
		}
		return false
	}

	out := groundAtoms{}
	for k, v := range I {
		out[k] = v
	}
	for _, r := range p.Rules {
		vars := map[string]bool{}
		r.Head.collectVars(vars)
		for _, l := range r.Body {
			l.collectVars(vars)
		}
		var names []string
		for v := range vars {
			names = append(names, v)
		}
		// Enumerate every valuation (domain^len(names)).
		assign := make(bindings, len(names))
		var walk func(i int)
		walk = func(i int) {
			if i == len(names) {
				if refRuleFires(t, filterCtx, st, r, assign, holds) {
					tuple := make(row, len(r.Head.Args))
					for j, tm := range r.Head.Args {
						v, ok := termValue(tm, assign)
						if !ok {
							return
						}
						tuple[j] = v
					}
					out[atomKey(r.Head.Pred, tuple)] = tuple
				}
				return
			}
			for _, v := range domain {
				assign[names[i]] = v
				walk(i + 1)
			}
			delete(assign, names[i])
		}
		walk(0)
	}
	return out
}

// refRuleFires checks every body literal under the total valuation
// (Definition 16).
func refRuleFires(t *testing.T, filterCtx *refEval, st *store.Store, r Rule, b bindings, holds func(string, row) bool) bool {
	t.Helper()
	for _, l := range r.Body {
		switch a := l.(type) {
		case RelAtom:
			tuple := make(row, len(a.Args))
			for i, tm := range a.Args {
				v, ok := termValue(tm, b)
				if !ok {
					return false
				}
				tuple[i] = v
			}
			if !holds(a.Pred, tuple) {
				return false
			}
		case ClassAtom:
			v, ok := termValue(a.Arg, b)
			if !ok {
				return false
			}
			oid, isRef := v.AsRef()
			if !isRef {
				return false
			}
			o := st.Get(oid)
			if o == nil || o.Kind() != a.Kind {
				return false
			}
		case NotAtom:
			tuple := make(row, len(a.Atom.Args))
			for i, tm := range a.Atom.Args {
				v, ok := termValue(tm, b)
				if !ok {
					return false
				}
				tuple[i] = v
			}
			if holds(a.Atom.Pred, tuple) {
				return false
			}
		default:
			ok, err := filterCtx.literal(l, refEnv(b))
			if err != nil || !ok {
				return false
			}
		}
	}
	return true
}

// refFixpoint iterates refTP stratum by stratum from the empty
// interpretation (negation is non-monotone, so lower strata must be
// complete before their predicates are negated).
func refFixpoint(t *testing.T, st *store.Store, p Program) groundAtoms {
	t.Helper()
	strata, maxStratum, err := stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	I := groundAtoms{}
	for s := 0; s <= maxStratum; s++ {
		var rules []Rule
		for _, r := range p.Rules {
			if strata[r.Head.Pred] == s {
				rules = append(rules, r)
			}
		}
		sub := Program{Rules: rules}
		for i := 0; ; i++ {
			if i > 1000 {
				t.Fatal("reference fixpoint did not converge")
			}
			next := refTP(t, st, sub, I)
			if len(next) == len(I) {
				break
			}
			I = next
		}
	}
	return I
}

// engineAtoms extracts the engine's derived interpretation (IDB tuples,
// excluding EDB seeds so the comparison matches refFixpoint, which keeps
// EDB facts in the base).
func engineAtoms(t *testing.T, e *Engine, p Program, st *store.Store) groundAtoms {
	t.Helper()
	edb := map[string]bool{}
	for _, pred := range p.IDB() {
		for _, f := range st.Facts(pred) {
			edb[atomKey(pred, row(f.Args))] = true
		}
	}
	out := groundAtoms{}
	for _, pred := range p.IDB() {
		rows, err := e.Rows(pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			k := atomKey(pred, r)
			if !edb[k] {
				out[k] = r
			}
		}
	}
	return out
}

// semanticsFixture builds a small store and a program using class atoms,
// constraints, recursion and (optionally) negation — but no constructive
// rules, which refTP does not model.
func semanticsFixture(seed int64, withNeg bool) (*store.Store, Program) {
	r := rand.New(rand.NewSource(seed))
	st := store.New()
	ents := []object.OID{"e0", "e1", "e2"}
	for _, oid := range ents {
		st.Put(object.NewEntity(oid).Set("n", object.Num(float64(r.Intn(3)))))
	}
	for i := 0; i < 2; i++ {
		var members []object.OID
		for _, e := range ents {
			if r.Intn(2) == 0 {
				members = append(members, e)
			}
		}
		lo := float64(r.Intn(20))
		st.Put(object.NewInterval(object.OID(fmt.Sprintf("g%d", i)),
			interval.FromPairs(lo, lo+5)).
			Set(object.AttrEntities, object.RefSet(members...)))
	}
	for i := 0; i < 3; i++ {
		st.AddFact(store.RefFact("edge", ents[r.Intn(3)], ents[r.Intn(3)]))
	}
	rules := []Rule{
		NewRule(Rel("appears", Var("O"), Var("G")),
			Interval(Var("G")), ObjectAtom(Var("O")),
			Member(TermOp(Var("O")), AttrOp(Var("G"), "entities"))),
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("Y"), Var("Z"))),
		NewRule(Rel("low", Var("O")),
			ObjectAtom(Var("O")),
			Cmp(AttrOp(Var("O"), "n"), constraint.Lt, TermOp(Const(object.Num(2))))),
	}
	if withNeg {
		rules = append(rules, NewRule(Rel("isolated", Var("O"), Var("G")),
			ObjectAtom(Var("O")), Interval(Var("G")),
			Not(Rel("appears", Var("O"), Var("G")))))
	}
	return st, NewProgram(rules...)
}

// TestEngineMatchesDeclarativeSemantics: the engine's fixpoint equals the
// reference least fixpoint (Theorem 3: minimal model = least fixpoint).
func TestEngineMatchesDeclarativeSemantics(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, withNeg := range []bool{false, true} {
			st, p := semanticsFixture(seed, withNeg)
			e := mustEngine(t, st, p)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			got := engineAtoms(t, e, p, st)
			want := refFixpoint(t, st, p)
			if len(got) != len(want) {
				t.Fatalf("seed %d neg=%v: engine %d atoms, reference %d\nengine: %v\nref: %v",
					seed, withNeg, len(got), len(want), keys(got), keys(want))
			}
			for k := range want {
				if _, ok := got[k]; !ok {
					t.Fatalf("seed %d neg=%v: reference atom %q missing from engine", seed, withNeg, k)
				}
			}
		}
	}
}

// TestFixpointIsModel (Lemma 3/4): the computed fixpoint is closed under
// TP.
func TestFixpointIsModel(t *testing.T) {
	st, p := semanticsFixture(3, false)
	e := mustEngine(t, st, p)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	F := engineAtoms(t, e, p, st)
	if next := refTP(t, st, p, F); len(next) != len(F) {
		t.Fatalf("fixpoint not closed under TP: %d -> %d atoms", len(F), len(next))
	}
}

// TestFixpointIsMinimalModel (Theorem 1/3): removing any derived atom
// breaks closure — every atom of the least model is supported by a
// derivation from the rest.
func TestFixpointIsMinimalModel(t *testing.T) {
	st, p := semanticsFixture(5, false)
	e := mustEngine(t, st, p)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	F := engineAtoms(t, e, p, st)
	if len(F) == 0 {
		t.Skip("fixture derived nothing")
	}
	for k := range F {
		sub := groundAtoms{}
		for k2, v2 := range F {
			if k2 != k {
				sub[k2] = v2
			}
		}
		next := refTP(t, st, p, sub)
		if _, rederived := next[k]; !rederived {
			t.Errorf("atom %q is not supported: F \\ {a} is still closed", strings.ReplaceAll(k, "\x00", " "))
		}
	}
}

func keys(g groundAtoms) []string {
	var out []string
	for k := range g {
		out = append(out, strings.ReplaceAll(k, "\x00", " "))
	}
	return out
}
