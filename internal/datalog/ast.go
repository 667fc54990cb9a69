// Package datalog implements the declarative, rule-based constraint query
// language of Section 6 of "A Database Approach for Modeling and Querying
// Video Data": definite clauses over relation predicates, the built-in
// class predicates Interval and Object, attribute comparison atoms,
// membership/set-order constraints and temporal entailment constraints,
// with the interpreted concatenation ⊕ allowed in rule heads (constructive
// rules).
//
// The semantics is the minimal model / least fixpoint of the immediate
// consequence operator TP over the extended active domain (Definitions
// 14–22): whenever a constructive rule fires, the newly created
// generalized interval object joins the domain and participates in
// subsequent iterations. Termination follows from the idempotence of ⊕ at
// the object-identity level (Section 6.1).
package datalog

import (
	"fmt"
	"sort"
	"strings"

	"videodb/internal/constraint"
	"videodb/internal/object"
)

// Pos is a source position (1-based line and column) carried by rules and
// literals parsed from VideoQL text. The zero Pos means "no position" —
// rules built through the Go API have none, and every consumer (error
// formatting, the static analyzer) treats it as absent rather than as
// line 0.
type Pos struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

// IsZero reports whether the position is absent.
func (p Pos) IsZero() bool { return p.Line == 0 && p.Col == 0 }

// String renders "line:col", or "-" for the zero position.
func (p Pos) String() string {
	if p.IsZero() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// PosOf returns the source position of a literal (zero if the literal was
// built programmatically).
func PosOf(l Literal) Pos {
	switch a := l.(type) {
	case RelAtom:
		return a.Pos
	case ClassAtom:
		return a.Pos
	case CmpAtom:
		return a.Pos
	case MemberAtom:
		return a.Pos
	case EntailAtom:
		return a.Pos
	case TemporalAtom:
		return a.Pos
	case NotAtom:
		return a.Pos
	}
	return Pos{}
}

// Term is a term of the language: an object/value variable, a constant
// value, or a constructive concatenation I1 ⊕ I2 (heads only).
type Term struct {
	name        string // variable name if non-empty
	val         object.Value
	left, right *Term // concatenation operands if non-nil
}

// Var returns a variable term. Variable names are conventionally
// capitalized (X, G1, O), but any non-empty string works.
func Var(name string) Term { return Term{name: name} }

// Const returns a constant term holding the value.
func Const(v object.Value) Term { return Term{val: v} }

// Oid returns a constant term referencing an object.
func Oid(id object.OID) Term { return Const(object.Ref(id)) }

// Concat returns the constructive term l ⊕ r (Section 6.1). Constructive
// terms may appear only in rule heads.
func Concat(l, r Term) Term {
	ll, rr := l, r
	return Term{left: &ll, right: &rr}
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.name != "" }

// IsConcat reports whether the term is a constructive concatenation.
func (t Term) IsConcat() bool { return t.left != nil }

// Name returns the variable name ("" for non-variables).
func (t Term) Name() string { return t.name }

// Value returns the constant value (Null for non-constants).
func (t Term) Value() object.Value {
	if t.IsVar() || t.IsConcat() {
		return object.Null()
	}
	return t.val
}

// String renders the term.
func (t Term) String() string {
	switch {
	case t.IsVar():
		return t.name
	case t.IsConcat():
		return t.left.String() + " + " + t.right.String()
	default:
		return t.val.String()
	}
}

func (t Term) collectVars(dst map[string]bool) {
	switch {
	case t.IsVar():
		dst[t.name] = true
	case t.IsConcat():
		t.left.collectVars(dst)
		t.right.collectVars(dst)
	}
}

// Operand is either a plain term or an attribute access O.Attr, the two
// operand shapes of the paper's inequality and constraint atoms.
type Operand struct {
	Term Term
	Attr string // non-empty for attribute access
}

// TermOp wraps a term as an operand.
func TermOp(t Term) Operand { return Operand{Term: t} }

// AttrOp builds the attribute access t.attr.
func AttrOp(t Term, attr string) Operand { return Operand{Term: t, Attr: attr} }

// String renders the operand.
func (o Operand) String() string {
	if o.Attr != "" {
		return o.Term.String() + "." + o.Attr
	}
	return o.Term.String()
}

func (o Operand) collectVars(dst map[string]bool) { o.Term.collectVars(dst) }

// Literal is one body element of a rule: a positive relational atom, a
// class atom, or one of the constraint atom forms. Constraint atoms act
// as filters; relational and class atoms bind variables.
type Literal interface {
	fmt.Stringer
	// binds reports whether the literal is a positive (binding) literal
	// for the purposes of range restriction (Definition 11).
	binds() bool
	collectVars(dst map[string]bool)
}

// RelAtom is a relational atom P(t1, …, tn). In heads, terms may be
// constructive.
type RelAtom struct {
	Pred string
	Args []Term
	Pos  Pos // source position of the predicate name, if parsed
}

// Rel builds a relational atom.
func Rel(pred string, args ...Term) RelAtom { return RelAtom{Pred: pred, Args: args} }

func (a RelAtom) binds() bool { return true }

func (a RelAtom) collectVars(dst map[string]bool) {
	for _, t := range a.Args {
		t.collectVars(dst)
	}
}

// DistinctVars reports whether every argument of the atom is a variable
// and no variable repeats — the case where querying the atom returns the
// predicate's extension unchanged.
func (a RelAtom) DistinctVars() bool {
	seen := make(map[string]bool, len(a.Args))
	for _, t := range a.Args {
		if !t.IsVar() || seen[t.Name()] {
			return false
		}
		seen[t.Name()] = true
	}
	return true
}

// String renders the atom.
func (a RelAtom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// ClassAtom is one of the built-in unary class predicates of Definition 8:
// Interval(t) (all generalized interval objects, including those created
// by concatenation) or Object(t) (all other objects).
type ClassAtom struct {
	Kind object.Kind
	Arg  Term
	Pos  Pos
}

// Interval builds the class atom Interval(t).
func Interval(t Term) ClassAtom { return ClassAtom{Kind: object.GenInterval, Arg: t} }

// ObjectAtom builds the class atom Object(t).
func ObjectAtom(t Term) ClassAtom { return ClassAtom{Kind: object.Entity, Arg: t} }

func (a ClassAtom) binds() bool { return true }

func (a ClassAtom) collectVars(dst map[string]bool) { a.Arg.collectVars(dst) }

// String renders the atom.
func (a ClassAtom) String() string {
	name := "Object"
	if a.Kind == object.GenInterval {
		name = "Interval"
	}
	return name + "(" + a.Arg.String() + ")"
}

// CmpAtom is an inequality atom of Definition 9: O.Att θ c,
// O.Att θ O'.Att', or comparisons between plain terms. An equality whose
// one side is a plain variable additionally acts as an assignment: once
// the other side is determined, the variable is bound to its value
// (attribute projection, e.g. "O.score = S"). Range restriction and the
// planner both understand this binding role.
type CmpAtom struct {
	Left  Operand
	Op    constraint.Op
	Right Operand
	Pos   Pos
}

// assignment describes one way an equality atom can bind a variable:
// target takes the value of src.
type assignment struct {
	target string
	src    Operand
}

// assignments returns the candidate binding orientations of the atom
// (each plain-variable side can be the target, determined by the other
// side).
func (a CmpAtom) assignments() []assignment {
	if a.Op != constraint.Eq {
		return nil
	}
	var out []assignment
	if a.Left.Attr == "" && a.Left.Term.IsVar() {
		out = append(out, assignment{target: a.Left.Term.Name(), src: a.Right})
	}
	if a.Right.Attr == "" && a.Right.Term.IsVar() {
		out = append(out, assignment{target: a.Right.Term.Name(), src: a.Left})
	}
	return out
}

// Cmp builds a comparison atom.
func Cmp(left Operand, op constraint.Op, right Operand) CmpAtom {
	return CmpAtom{Left: left, Op: op, Right: right}
}

func (a CmpAtom) binds() bool { return false }

func (a CmpAtom) collectVars(dst map[string]bool) {
	a.Left.collectVars(dst)
	a.Right.collectVars(dst)
}

// String renders the atom.
func (a CmpAtom) String() string {
	return fmt.Sprintf("%s %s %s", a.Left, a.Op, a.Right)
}

// MemberAtom is a set-order constraint over attribute values: the
// primitive e ∈ S (Subset=false, one element) or {e1, …, ek} ⊆ S
// (Subset=true). S and the elements are operands, so both
// "o ∈ G.entities" and "{o1,o2} ⊆ G.entities" are expressible.
type MemberAtom struct {
	Elems  []Operand
	Set    Operand
	Subset bool
	Pos    Pos
}

// Member builds e ∈ set.
func Member(e Operand, set Operand) MemberAtom {
	return MemberAtom{Elems: []Operand{e}, Set: set}
}

// SubsetAtom builds {e1, …, ek} ⊆ set.
func SubsetAtom(set Operand, elems ...Operand) MemberAtom {
	return MemberAtom{Elems: elems, Set: set, Subset: true}
}

func (a MemberAtom) binds() bool { return false }

func (a MemberAtom) collectVars(dst map[string]bool) {
	for _, e := range a.Elems {
		e.collectVars(dst)
	}
	a.Set.collectVars(dst)
}

// String renders the atom.
func (a MemberAtom) String() string {
	if !a.Subset && len(a.Elems) == 1 {
		return a.Elems[0].String() + " in " + a.Set.String()
	}
	parts := make([]string, len(a.Elems))
	for i, e := range a.Elems {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "} subset " + a.Set.String()
}

// EntailAtom is the complex arithmetic constraint left ⇒ right between
// temporal values: it holds when every instant satisfying the left
// operand's constraint satisfies the right's (e.g. "G.duration ⇒
// (t > a and t < b)" and the contains rule's "G2.duration ⇒ G1.duration").
type EntailAtom struct {
	Left, Right Operand
	Pos         Pos
}

// Entails builds left ⇒ right.
func Entails(left, right Operand) EntailAtom { return EntailAtom{Left: left, Right: right} }

func (a EntailAtom) binds() bool { return false }

func (a EntailAtom) collectVars(dst map[string]bool) {
	a.Left.collectVars(dst)
	a.Right.collectVars(dst)
}

// String renders the atom.
func (a EntailAtom) String() string {
	return a.Left.String() + " => " + a.Right.String()
}

// VarsOf returns the variables of the literal in first-occurrence
// (syntactic) order.
func VarsOf(l Literal) []string {
	var out []string
	seen := map[string]bool{}
	add := func(t Term) {
		var walk func(Term)
		walk = func(t Term) {
			switch {
			case t.IsVar():
				if !seen[t.name] {
					seen[t.name] = true
					out = append(out, t.name)
				}
			case t.IsConcat():
				walk(*t.left)
				walk(*t.right)
			}
		}
		walk(t)
	}
	switch a := l.(type) {
	case RelAtom:
		for _, t := range a.Args {
			add(t)
		}
	case ClassAtom:
		add(a.Arg)
	case CmpAtom:
		add(a.Left.Term)
		add(a.Right.Term)
	case MemberAtom:
		for _, e := range a.Elems {
			add(e.Term)
		}
		add(a.Set.Term)
	case EntailAtom:
		add(a.Left.Term)
		add(a.Right.Term)
	case NotAtom:
		for _, t := range a.Atom.Args {
			add(t)
		}
	case TemporalAtom:
		add(a.Left.Term)
		add(a.Right.Term)
	}
	return out
}

// TemporalRel names an Allen-style temporal relation usable in
// TemporalAtom. The paper expresses temporal conditions through
// entailment only; these operators are the interval-based vocabulary of
// related systems (VideoStar's equals/before/…) provided as an extension,
// evaluated on the same canonical generalized intervals.
type TemporalRel string

// The supported temporal relations between two generalized intervals.
const (
	TempBefore   TemporalRel = "before"   // every instant of L precedes every instant of R
	TempAfter    TemporalRel = "after"    // converse of before
	TempMeets    TemporalRel = "meets"    // L before R with a seamless touch
	TempMetBy    TemporalRel = "metby"    // converse of meets
	TempOverlaps TemporalRel = "overlaps" // L and R share an instant
	TempEquals   TemporalRel = "equals"   // same instants
	TempContains TemporalRel = "contains" // L ⊇ R
	TempDuring   TemporalRel = "during"   // L ⊆ R
)

// ParseTemporalRel recognizes a temporal relation keyword.
func ParseTemporalRel(s string) (TemporalRel, bool) {
	switch TemporalRel(s) {
	case TempBefore, TempAfter, TempMeets, TempMetBy, TempOverlaps,
		TempEquals, TempContains, TempDuring:
		return TemporalRel(s), true
	}
	return "", false
}

// TemporalAtom is the constraint "Left rel Right" between temporal
// operands (duration attributes or temporal constants), e.g.
// "G1.duration before G2.duration".
type TemporalAtom struct {
	Rel         TemporalRel
	Left, Right Operand
	Pos         Pos
}

// Temporal builds a temporal relation atom.
func Temporal(left Operand, rel TemporalRel, right Operand) TemporalAtom {
	return TemporalAtom{Rel: rel, Left: left, Right: right}
}

func (a TemporalAtom) binds() bool { return false }

func (a TemporalAtom) collectVars(dst map[string]bool) {
	a.Left.collectVars(dst)
	a.Right.collectVars(dst)
}

// String renders the atom.
func (a TemporalAtom) String() string {
	return fmt.Sprintf("%s %s %s", a.Left, a.Rel, a.Right)
}

// NotAtom is a negated relational atom, "not p(t1, …, tn)". Negation is
// an extension beyond the paper's positive fragment: programs must be
// stratified (no recursion through negation), and the engine evaluates
// strata bottom-up so a negated predicate is complete before it is
// tested. Like constraint atoms, negated atoms are filters: every
// variable they use must be bound by a positive literal.
type NotAtom struct {
	Atom RelAtom
	Pos  Pos
}

// Not negates a relational atom.
func Not(a RelAtom) NotAtom { return NotAtom{Atom: a} }

func (a NotAtom) binds() bool { return false }

func (a NotAtom) collectVars(dst map[string]bool) { a.Atom.collectVars(dst) }

// String renders the atom.
func (a NotAtom) String() string { return "not " + a.Atom.String() }

// Rule is a definite clause H ← L1, …, Ln, c1, …, cm (Definition 10). The
// optional Name labels the rule in errors and explanations.
type Rule struct {
	Name string
	Head RelAtom
	Body []Literal
	Pos  Pos // source position of the rule (its label or head), if parsed
}

// NewRule builds a rule.
func NewRule(head RelAtom, body ...Literal) Rule { return Rule{Head: head, Body: body} }

// Named attaches a name to the rule.
func (r Rule) Named(name string) Rule {
	r.Name = name
	return r
}

// IsConstructive reports whether the head contains a concatenation term.
func (r Rule) IsConstructive() bool {
	for _, t := range r.Head.Args {
		if t.IsConcat() {
			return true
		}
	}
	return false
}

// String renders the rule in the paper's notation.
func (r Rule) String() string {
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	s := r.Head.String() + " :- " + strings.Join(parts, ", ")
	if r.Name != "" {
		s = r.Name + ": " + s
	}
	return s
}

// Validate checks the static conditions on rules: non-empty head
// predicate, range restriction (every variable occurs in a binding body
// literal, Definition 11), and constructive terms only in heads.
func (r Rule) Validate() error {
	if r.Head.Pred == "" {
		return fmt.Errorf("datalog: rule %s: empty head predicate", r.label())
	}
	bound := map[string]bool{}
	for _, l := range r.Body {
		if l.binds() {
			l.collectVars(bound)
		}
	}
	// Equality assignments extend the bound set (fixpoint: chains like
	// O.a = S, S = T resolve in order).
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			cmp, ok := l.(CmpAtom)
			if !ok {
				continue
			}
			for _, as := range cmp.assignments() {
				if bound[as.target] {
					continue
				}
				srcVars := map[string]bool{}
				as.src.collectVars(srcVars)
				ok := true
				for v := range srcVars {
					if !bound[v] {
						ok = false
						break
					}
				}
				if ok {
					bound[as.target] = true
					changed = true
				}
			}
		}
	}
	for _, l := range r.Body {
		switch a := l.(type) {
		case RelAtom:
			for _, t := range a.Args {
				if t.IsConcat() {
					return fmt.Errorf("datalog: rule %s: constructive term %s in body", r.label(), t)
				}
			}
		case NotAtom:
			for _, t := range a.Atom.Args {
				if t.IsConcat() {
					return fmt.Errorf("datalog: rule %s: constructive term %s in body", r.label(), t)
				}
			}
		}
	}
	all := map[string]bool{}
	r.Head.collectVars(all)
	for _, l := range r.Body {
		l.collectVars(all)
	}
	var unbound []string
	for v := range all {
		if !bound[v] {
			unbound = append(unbound, v)
		}
	}
	if len(unbound) > 0 {
		sort.Strings(unbound)
		return fmt.Errorf("datalog: rule %s is not range-restricted: variable(s) %s do not occur in a positive body literal",
			r.label(), strings.Join(unbound, ", "))
	}
	return nil
}

func (r Rule) label() string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("%q", r.Head.String())
}

// Program is a collection of range-restricted rules (Definition 12).
type Program struct {
	Rules []Rule
}

// NewProgram builds a program from rules.
func NewProgram(rules ...Rule) Program { return Program{Rules: rules} }

// Validate validates every rule.
func (p Program) Validate() error {
	for _, r := range p.Rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// IDB returns the sorted set of predicates defined by rule heads.
func (p Program) IDB() []string {
	set := map[string]bool{}
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
	}
	out := make([]string, 0, len(set))
	for pred := range set {
		out = append(out, pred)
	}
	sort.Strings(out)
	return out
}

// Reachable returns the subprogram relevant to answering queries over
// the goal predicate: rules whose head predicate the goal (transitively)
// depends on through positive or negated body atoms, plus — when any kept
// rule reads the Interval class — every constructive rule (they grow the
// Interval extension and therefore influence the goal even if their head
// predicate is never referenced). Evaluating only the reachable
// subprogram yields the same answers for the goal.
func (p Program) Reachable(goal string) Program {
	kept := NewDepGraph(p).ReachableRules(goal)
	var rules []Rule
	for i, r := range p.Rules {
		if kept[i] {
			rules = append(rules, r)
		}
	}
	return Program{Rules: rules}
}

// String renders the program, one rule per line.
func (p Program) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}
