package constraint

import (
	"fmt"
	"sort"
	"strings"
)

// Set-order constraints (Definition 3 of the paper): over variables X̃, Ỹ
// ranging over finite sets of constants of some domain D,
//
//	c ∈ X̃        (element membership; derived form of {c} ⊆ X̃)
//	X̃ ⊆ s        (upper bound by a constant set)
//	s ⊆ X̃        (lower bound by a constant set)
//	X̃ ⊆ Ỹ        (inclusion between variables)
//
// with no set functions (∪, ∩). Satisfiability and entailment of
// conjunctions are decidable in polynomial time by the bound-propagation
// (quantifier elimination) method of Srivastava, Ramakrishnan and Revesz:
// propagate element lower bounds forward and finite upper bounds backward
// along the ⊆-graph until fixpoint, then compare bounds.

// SetTerm identifies a set variable or a literal constant set.
type SetTerm struct {
	Var string   // non-empty for a variable
	Lit []string // sorted constant set for a literal
}

// SetVar returns a set-variable term.
func SetVar(name string) SetTerm { return SetTerm{Var: name} }

// SetLit returns a constant-set term (the input is copied and sorted).
func SetLit(elems ...string) SetTerm {
	s := append([]string(nil), elems...)
	sort.Strings(s)
	out := s[:0]
	for i, e := range s {
		if i == 0 || s[i-1] != e {
			out = append(out, e)
		}
	}
	return SetTerm{Lit: out}
}

// IsVar reports whether the term is a variable.
func (t SetTerm) IsVar() bool { return t.Var != "" }

// String renders the term; literals render as {a, b}.
func (t SetTerm) String() string {
	if t.IsVar() {
		return t.Var
	}
	return "{" + strings.Join(t.Lit, ", ") + "}"
}

// SetAtom is a primitive set-order constraint Left ⊆ Right. Membership
// c ∈ X̃ is expressed as {c} ⊆ X̃ (its derived form in the paper).
type SetAtom struct {
	Left, Right SetTerm
}

// Subset builds the atom left ⊆ right.
func Subset(left, right SetTerm) SetAtom { return SetAtom{Left: left, Right: right} }

// Member builds the derived-form atom c ∈ X̃, i.e. {c} ⊆ X̃.
func Member(c string, x string) SetAtom {
	return SetAtom{Left: SetLit(c), Right: SetVar(x)}
}

// String renders the atom with the ⊆ symbol.
func (a SetAtom) String() string { return a.Left.String() + " ⊆ " + a.Right.String() }

// SetConj is a conjunction of set-order atoms.
type SetConj []SetAtom

// String renders the conjunction.
func (c SetConj) String() string {
	if len(c) == 0 {
		return "true"
	}
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, " and ")
}

// Eval evaluates the conjunction under a valuation of set variables.
func (c SetConj) Eval(val map[string][]string) (bool, error) {
	for _, a := range c {
		l, err := a.Left.value(val)
		if err != nil {
			return false, err
		}
		r, err := a.Right.value(val)
		if err != nil {
			return false, err
		}
		if !subsetOf(l, r) {
			return false, nil
		}
	}
	return true, nil
}

func (t SetTerm) value(val map[string][]string) (map[string]bool, error) {
	set := make(map[string]bool)
	if t.IsVar() {
		elems, ok := val[t.Var]
		if !ok {
			return nil, fmt.Errorf("constraint: unbound set variable %q", t.Var)
		}
		for _, e := range elems {
			set[e] = true
		}
		return set, nil
	}
	for _, e := range t.Lit {
		set[e] = true
	}
	return set, nil
}

func subsetOf(a, b map[string]bool) bool {
	for e := range a {
		if !b[e] {
			return false
		}
	}
	return true
}

// bounds is the closure state for one set variable: a required lower bound
// and an optional finite upper bound (nil upper = unrestricted ⊤).
type bounds struct {
	lower map[string]bool
	upper map[string]bool // nil means unrestricted
}

// setClosure is the normal form computed by bound propagation.
type setClosure struct {
	vars map[string]*bounds
	// succ[x] lists variables y with an explicit x ⊆ y path; the relation
	// stored here is the reflexive-transitive closure of the ⊆ edges.
	succ map[string]map[string]bool
	sat  bool
}

// closeConj computes the bound-propagation closure of the conjunction
// under a step budget: it charges one step per atom up front and one per
// propagation sweep, so the (input-polynomial but potentially large)
// bound-propagation fixpoint respects a caller's budget and cancellation
// check.
func closeConj(c SetConj, budget *Budget) (*setClosure, error) {
	if err := budget.Spend(int64(len(c)) + 1); err != nil {
		return nil, err
	}
	cl := &setClosure{
		vars: make(map[string]*bounds),
		succ: make(map[string]map[string]bool),
		sat:  true,
	}
	b := func(v string) *bounds {
		if bb, ok := cl.vars[v]; ok {
			return bb
		}
		bb := &bounds{lower: make(map[string]bool)}
		cl.vars[v] = bb
		if _, ok := cl.succ[v]; !ok {
			cl.succ[v] = map[string]bool{v: true}
		}
		return bb
	}
	type inclusion struct{ from, to string }
	var incls []inclusion

	for _, a := range c {
		switch {
		case a.Left.IsVar() && a.Right.IsVar():
			b(a.Left.Var)
			b(a.Right.Var)
			incls = append(incls, inclusion{a.Left.Var, a.Right.Var})
		case !a.Left.IsVar() && a.Right.IsVar(): // s ⊆ X: lower bound
			bb := b(a.Right.Var)
			for _, e := range a.Left.Lit {
				bb.lower[e] = true
			}
		case a.Left.IsVar() && !a.Right.IsVar(): // X ⊆ s: upper bound
			bb := b(a.Left.Var)
			up := make(map[string]bool, len(a.Right.Lit))
			for _, e := range a.Right.Lit {
				up[e] = true
			}
			bb.upper = intersectUpper(bb.upper, up)
		default: // s ⊆ s': ground, decide now
			ls, rs := SetLit(a.Left.Lit...), SetLit(a.Right.Lit...)
			lm, _ := ls.value(nil)
			rm, _ := rs.value(nil)
			if !subsetOf(lm, rm) {
				cl.sat = false
			}
		}
	}

	// Transitive closure of the ⊆ edges (small n in practice).
	changedSucc := true
	for changedSucc {
		if err := budget.Spend(1); err != nil {
			return nil, err
		}
		changedSucc = false
		for _, e := range incls {
			for t := range cl.succ[e.to] {
				if !cl.succ[e.from][t] {
					cl.succ[e.from][t] = true
					changedSucc = true
				}
			}
		}
	}

	// Propagate bounds to fixpoint: lower bounds flow forward along ⊆,
	// finite upper bounds flow backward.
	changed := true
	for changed {
		if err := budget.Spend(1); err != nil {
			return nil, err
		}
		changed = false
		for _, e := range incls {
			from, to := cl.vars[e.from], cl.vars[e.to]
			for el := range from.lower {
				if !to.lower[el] {
					to.lower[el] = true
					changed = true
				}
			}
			if to.upper != nil {
				if from.upper == nil {
					from.upper = copySet(to.upper)
					changed = true
				} else {
					for el := range from.upper {
						if !to.upper[el] {
							delete(from.upper, el)
							changed = true
						}
					}
				}
			}
		}
	}

	for _, bb := range cl.vars {
		if bb.upper != nil && !subsetOf(bb.lower, bb.upper) {
			cl.sat = false
		}
	}
	return cl, nil
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func intersectUpper(a, b map[string]bool) map[string]bool {
	if a == nil {
		return copySet(b)
	}
	out := make(map[string]bool)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// Satisfiable reports whether some assignment of finite sets satisfies
// the conjunction.
func (c SetConj) Satisfiable() bool {
	v, _ := c.SatisfiableWithin(nil)
	return v
}

// SatisfiableWithin is Satisfiable under a step budget.
func (c SetConj) SatisfiableWithin(b *Budget) (bool, error) {
	cl, err := closeConj(c, b)
	if err != nil {
		return false, err
	}
	return cl.sat, nil
}

// Entails reports whether every solution of c also satisfies g.
func (c SetConj) Entails(g SetConj) bool {
	v, _ := c.EntailsWithin(g, nil)
	return v
}

// EntailsWithin is Entails under a step budget.
func (c SetConj) EntailsWithin(g SetConj, b *Budget) (bool, error) {
	cl, err := closeConj(c, b)
	if err != nil {
		return false, err
	}
	if !cl.sat {
		return true, nil // false entails everything
	}
	for _, a := range g {
		if err := b.Spend(1); err != nil {
			return false, err
		}
		if !cl.entailsAtom(a) {
			return false, nil
		}
	}
	return true, nil
}

func (cl *setClosure) entailsAtom(a SetAtom) bool {
	switch {
	case a.Left.IsVar() && a.Right.IsVar():
		x, y := a.Left.Var, a.Right.Var
		if x == y {
			return true
		}
		if cl.succ[x][y] {
			return true
		}
		// X ⊆ Y also holds in all solutions when every allowed element of X
		// is required in Y — vacuously so when X is bounded by ∅, even if
		// Y occurs nowhere in the conjunction.
		bx, ok := cl.vars[x]
		if !ok || bx.upper == nil {
			return false
		}
		var required map[string]bool
		if by, ok := cl.vars[y]; ok {
			required = by.lower
		}
		return subsetOf(bx.upper, required)
	case !a.Left.IsVar() && a.Right.IsVar(): // s ⊆ X: every element required
		bx, ok := cl.vars[a.Right.Var]
		if !ok {
			return len(a.Left.Lit) == 0
		}
		for _, e := range a.Left.Lit {
			if !bx.lower[e] {
				return false
			}
		}
		return true
	case a.Left.IsVar() && !a.Right.IsVar(): // X ⊆ s: upper bound within s
		bx, ok := cl.vars[a.Left.Var]
		if !ok || bx.upper == nil {
			return false // X unrestricted above: some solution escapes s
		}
		allowed := make(map[string]bool, len(a.Right.Lit))
		for _, e := range a.Right.Lit {
			allowed[e] = true
		}
		return subsetOf(bx.upper, allowed)
	default: // ground
		lm, _ := a.Left.value(nil)
		rm, _ := a.Right.value(nil)
		return subsetOf(lm, rm)
	}
}
