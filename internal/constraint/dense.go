// Package constraint implements the two constraint languages of "A Database
// Approach for Modeling and Querying Video Data" (Decleir, Hacid,
// Kouloumdjian, ICDE 1999):
//
//   - dense linear order inequality constraints (Definition 2): formulas
//     built from primitive atoms x θ y and x θ c with θ ∈ {<, ≤, =, ≠, ≥, >},
//     interpreted over a countably infinite dense order (here: the reals),
//     closed under conjunction and disjunction;
//   - set-order constraints (Definition 3): c ∈ X̃, X̃ ⊆ s, s ⊆ X̃ and X̃ ⊆ Ỹ
//     over variables ranging over finite sets of constants.
//
// Formulas are kept in disjunctive normal form. Single-variable formulas
// (the restricted class C̃ of Section 5.2 used as duration attribute values)
// convert losslessly to and from interval.Generalized, which makes
// satisfiability and entailment for them exact interval operations. A
// closure-based solver decides satisfiability and entailment for
// multi-variable conjunctions (the point algebra), and a bound-propagation
// solver does the same for set-order constraints following the quantifier
// elimination approach of Srivastava, Ramakrishnan and Revesz (PPCP'94).
package constraint

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Op is a dense-order comparison operator.
type Op uint8

// The six comparison operators of Definition 2 (=, <, ≤ and their
// negations ≠, ≥, >).
const (
	Lt Op = iota // <
	Le           // ≤
	Eq           // =
	Ne           // ≠
	Ge           // ≥
	Gt           // >
)

var opNames = [...]string{Lt: "<", Le: "<=", Eq: "=", Ne: "!=", Ge: ">=", Gt: ">"}

// String returns the ASCII spelling of the operator.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Negate returns the complementary operator (¬(x < y) ⇔ x ≥ y, etc.).
func (o Op) Negate() Op {
	switch o {
	case Lt:
		return Ge
	case Le:
		return Gt
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Ge:
		return Lt
	default:
		return Le
	}
}

// Flip returns the operator with its operands swapped (x < y ⇔ y > x).
func (o Op) Flip() Op {
	switch o {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Ge:
		return Le
	case Gt:
		return Lt
	default:
		return o // = and ≠ are symmetric
	}
}

// Holds evaluates the operator on concrete values.
func (o Op) Holds(a, b float64) bool {
	switch o {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Eq:
		return a == b
	case Ne:
		return a != b
	case Ge:
		return a >= b
	default:
		return a > b
	}
}

// ParseOp parses an operator token ("<", "<=", "=", "==", "!=", "<>", ">=",
// ">").
func ParseOp(s string) (Op, error) {
	switch s {
	case "<":
		return Lt, nil
	case "<=", "=<", "≤":
		return Le, nil
	case "=", "==":
		return Eq, nil
	case "!=", "<>", "≠":
		return Ne, nil
	case ">=", "=>", "≥":
		return Ge, nil
	case ">":
		return Gt, nil
	default:
		return 0, fmt.Errorf("constraint: unknown operator %q", s)
	}
}

// Term is either a variable or a constant of the dense order.
type Term struct {
	Var   string // non-empty for a variable term
	Const float64
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(value float64) Term { return Term{Const: value} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return strconv.FormatFloat(t.Const, 'g', -1, 64)
}

// Atom is a primitive dense-order constraint Left Op Right.
type Atom struct {
	Left  Term
	Op    Op
	Right Term
}

// NewAtom builds an atom.
func NewAtom(left Term, op Op, right Term) Atom { return Atom{Left: left, Op: op, Right: right} }

// VarCmp builds the common form "v op c".
func VarCmp(v string, op Op, c float64) Atom { return Atom{Left: V(v), Op: op, Right: C(c)} }

// String renders the atom, e.g. "t > 10".
func (a Atom) String() string {
	return fmt.Sprintf("%s %s %s", a.Left, a.Op, a.Right)
}

// Vars appends the variables of the atom to dst and returns it.
func (a Atom) Vars(dst []string) []string {
	if a.Left.IsVar() {
		dst = append(dst, a.Left.Var)
	}
	if a.Right.IsVar() {
		dst = append(dst, a.Right.Var)
	}
	return dst
}

// Eval evaluates the atom under the valuation; it returns an error if a
// variable is unbound.
func (a Atom) Eval(val map[string]float64) (bool, error) {
	l, err := a.Left.value(val)
	if err != nil {
		return false, err
	}
	r, err := a.Right.value(val)
	if err != nil {
		return false, err
	}
	return a.Op.Holds(l, r), nil
}

func (t Term) value(val map[string]float64) (float64, error) {
	if !t.IsVar() {
		return t.Const, nil
	}
	v, ok := val[t.Var]
	if !ok {
		return 0, fmt.Errorf("constraint: unbound variable %q", t.Var)
	}
	return v, nil
}

// Conj is a conjunction of atoms.
type Conj []Atom

// String renders the conjunction with "and" separators; the empty
// conjunction (vacuously true) renders as "true".
func (c Conj) String() string {
	if len(c) == 0 {
		return "true"
	}
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, " and ")
}

// Eval evaluates the conjunction under the valuation.
func (c Conj) Eval(val map[string]float64) (bool, error) {
	for _, a := range c {
		ok, err := a.Eval(val)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// Vars appends the variables of the conjunction to dst and returns it.
func (c Conj) Vars(dst []string) []string {
	for _, a := range c {
		dst = a.Vars(dst)
	}
	return dst
}

// Formula is a dense-order constraint in disjunctive normal form: a
// disjunction of conjunctions of atoms. The zero value (no disjuncts) is
// unsatisfiable (false); a Formula containing an empty Conj is valid
// (true).
type Formula []Conj

// False returns the unsatisfiable formula.
func False() Formula { return nil }

// True returns the valid formula.
func True() Formula { return Formula{Conj{}} }

// FromAtom lifts a single atom to a formula.
func FromAtom(a Atom) Formula { return Formula{Conj{a}} }

// And returns the conjunction of two DNF formulas (distributing).
func (f Formula) And(g Formula) Formula {
	var out Formula
	for _, cf := range f {
		for _, cg := range g {
			conj := make(Conj, 0, len(cf)+len(cg))
			conj = append(conj, cf...)
			conj = append(conj, cg...)
			out = append(out, conj)
		}
	}
	return out
}

// Or returns the disjunction of two DNF formulas.
func (f Formula) Or(g Formula) Formula {
	out := make(Formula, 0, len(f)+len(g))
	out = append(out, f...)
	out = append(out, g...)
	return out
}

// IsFalse reports whether the formula is syntactically the empty
// disjunction. Use Satisfiable for the semantic test.
func (f Formula) IsFalse() bool { return len(f) == 0 }

// Eval evaluates the formula under the valuation.
func (f Formula) Eval(val map[string]float64) (bool, error) {
	for _, c := range f {
		ok, err := c.Eval(val)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// Vars returns the sorted, de-duplicated variables of the formula.
func (f Formula) Vars() []string {
	var vs []string
	for _, c := range f {
		vs = c.Vars(vs)
	}
	sort.Strings(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// String renders the DNF with "or" separators between parenthesized
// conjunctions; False renders as "false".
func (f Formula) String() string {
	if len(f) == 0 {
		return "false"
	}
	parts := make([]string, len(f))
	for i, c := range f {
		if len(f) > 1 && len(c) > 1 {
			parts[i] = "(" + c.String() + ")"
		} else {
			parts[i] = c.String()
		}
	}
	return strings.Join(parts, " or ")
}

// Satisfiable reports whether some valuation over the dense order
// satisfies the formula. Each disjunct is checked with the point-algebra
// closure solver; a formula is satisfiable iff some disjunct is.
func (f Formula) Satisfiable() bool {
	v, _ := f.SatisfiableWithin(nil)
	return v
}

// SatisfiableWithin is Satisfiable under a step budget: it reports the
// same verdict, or an error when the budget is exhausted or the budget's
// cancellation check fires mid-solve.
func (f Formula) SatisfiableWithin(b *Budget) (bool, error) {
	for _, c := range f {
		ok, err := conjSatisfiable(c, b)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// Entails reports whether f ⇒ g: every valuation satisfying f satisfies g.
// f ⇒ g iff for every disjunct cf of f, cf ∧ ¬g is unsatisfiable. Negating
// the DNF g yields a CNF whose distribution can blow up, so Entails first
// tries the exact single-variable interval route and falls back to the
// general procedure only for multi-variable formulas.
func (f Formula) Entails(g Formula) bool {
	v, _ := f.EntailsWithin(g, nil)
	return v
}

// EntailsWithin is Entails under a step budget. The exponential negation
// search spends one step per branch, so a hostile multi-variable formula
// cannot run unboundedly.
func (f Formula) EntailsWithin(g Formula, b *Budget) (bool, error) {
	if fg, ok := f.singleVar(); ok {
		if gg, ok2 := g.singleVarCompatible(fg); ok2 {
			fi, err1 := f.ToInterval(fg)
			gi, err2 := g.ToInterval(gg)
			if err1 == nil && err2 == nil {
				if err := b.Spend(int64(len(fi.Spans()) + len(gi.Spans()) + 1)); err != nil {
					return false, err
				}
				return gi.ContainsGen(fi), nil
			}
		}
	}
	for _, cf := range f {
		sat, err := conjSatisfiable(cf, b)
		if err != nil {
			return false, err
		}
		if !sat {
			continue // this disjunct contributes no valuations
		}
		// cf ∧ ¬g satisfiable ⇒ entailment fails.
		negSat, err := negationSatisfiable(cf, g, 0, b)
		if err != nil {
			return false, err
		}
		if negSat {
			return false, nil
		}
	}
	return true, nil
}

// Equivalent reports mutual entailment.
func (f Formula) Equivalent(g Formula) bool {
	return f.Entails(g) && g.Entails(f)
}

// singleVar reports the unique variable of the formula, if it has exactly
// one.
func (f Formula) singleVar() (string, bool) {
	vs := f.Vars()
	if len(vs) == 1 {
		return vs[0], true
	}
	return "", false
}

// singleVarCompatible reports the variable to use for interval conversion
// of g when checking entailment against a formula over variable v: g must
// be ground (no variables — compared via the same axis) or use exactly v.
func (g Formula) singleVarCompatible(v string) (string, bool) {
	vs := g.Vars()
	switch {
	case len(vs) == 0:
		return v, true
	case len(vs) == 1 && vs[0] == v:
		return v, true
	default:
		return "", false
	}
}

// --- Single-variable (temporal) formulas ----------------------------------

// atomToSpans converts an atom over variable v (and constants) to the
// set of points of v satisfying it.
func atomToSpans(a Atom, v string) ([]Span, error) {
	type side struct {
		isVar bool
		c     float64
	}
	l := side{isVar: a.Left.IsVar(), c: a.Left.Const}
	r := side{isVar: a.Right.IsVar(), c: a.Right.Const}
	if l.isVar && a.Left.Var != v {
		return nil, fmt.Errorf("constraint: atom %v uses variable %q, want %q", a, a.Left.Var, v)
	}
	if r.isVar && a.Right.Var != v {
		return nil, fmt.Errorf("constraint: atom %v uses variable %q, want %q", a, a.Right.Var, v)
	}
	op := a.Op
	switch {
	case l.isVar && r.isVar: // v op v
		if op.Holds(0, 0) { // reflexive ops are valid
			return []Span{full()}, nil
		}
		return nil, nil // v < v etc.: unsatisfiable
	case !l.isVar && !r.isVar: // ground comparison
		if op.Holds(l.c, r.c) {
			return []Span{full()}, nil
		}
		return nil, nil
	case !l.isVar: // c op v  ⇔  v flip(op) c
		op = op.Flip()
		l, r = r, l
	}
	c := r.c
	switch op {
	case Lt:
		return []Span{below(c)}, nil
	case Le:
		return []Span{atMost(c)}, nil
	case Eq:
		return []Span{point(c)}, nil
	case Ne:
		return []Span{below(c), above(c)}, nil
	case Ge:
		return []Span{atLeast(c)}, nil
	default: // Gt
		return []Span{above(c)}, nil
	}
}

// ToInterval converts a formula whose only variable is v into the
// generalized interval of values of v satisfying it. Ground atoms are
// evaluated; atoms over other variables are an error.
func (f Formula) ToInterval(v string) (Generalized, error) {
	result := emptyGen()
	for _, conj := range f {
		g := newGen(full())
		for _, a := range conj {
			spans, err := atomToSpans(a, v)
			if err != nil {
				return Generalized{}, err
			}
			g = g.Intersect(newGen(spans...))
			if g.IsEmpty() {
				break
			}
		}
		result = result.Union(g)
	}
	return result, nil
}

// FromInterval builds the canonical single-variable formula over v whose
// solutions are exactly the generalized interval g: a disjunct per span.
func FromInterval(v string, g Generalized) Formula {
	if g.IsEmpty() {
		return False()
	}
	var f Formula
	for _, s := range g.Spans() {
		var conj Conj
		switch {
		case s.IsPoint():
			conj = Conj{VarCmp(v, Eq, s.Lo)}
		default:
			if !math.IsInf(s.Lo, -1) {
				op := Ge
				if s.LoOpen {
					op = Gt
				}
				conj = append(conj, VarCmp(v, op, s.Lo))
			}
			if !math.IsInf(s.Hi, 1) {
				op := Le
				if s.HiOpen {
					op = Lt
				}
				conj = append(conj, VarCmp(v, op, s.Hi))
			}
		}
		f = append(f, conj)
	}
	return f
}

// Simplify returns an equivalent formula in canonical form. Exact for
// single-variable formulas (via the interval representation); for
// multi-variable formulas it drops unsatisfiable disjuncts and returns the
// rest unchanged.
func (f Formula) Simplify() Formula {
	if v, ok := f.singleVar(); ok {
		if g, err := f.ToInterval(v); err == nil {
			return FromInterval(v, g)
		}
	}
	var out Formula
	for _, c := range f {
		if ok, _ := conjSatisfiable(c, nil); ok {
			out = append(out, c)
		}
	}
	return out
}
