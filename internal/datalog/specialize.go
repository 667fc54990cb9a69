package datalog

import (
	"fmt"
	"strings"
)

// Goal specialization: a query ?p(c̄, Ȳ) whose goal carries constants is
// answered from a rewritten program instead of p's whole extent. The goal
// becomes a fresh predicate p#n(Ȳ) whose rules are p's rules with the
// constants unified into their heads; the rewrite repeats for body atoms
// over non-recursive IDB predicates that become bound. The constants then
// sit in body atoms, where the executor's pushdown scans the store under
// them (edbFiltered), so the probe touches only matching facts.
//
// A predicate may have stored facts as well as rules (seedEDB loads them
// into its relation), so every fresh predicate also gets the rule
// p#n(Ȳ) :- p(c̄, Ȳ). Once p's own rules are pruned away p is extensional
// in the rewritten program and that rule is a pushdown scan of its stored
// facts; when p is still needed unspecialized elsewhere, the rule reads
// p's derived relation, a superset that the binds narrow the same way.
//
// The rewrite keeps the unspecialized path when the goal has no
// constants, when the goal predicate is recursive (the specialized rules
// would need the rest of the recursion anyway), and when one of its rules
// has a ⊕ head (created objects must not depend on the goal).

// Specialization is the program a query goal is answered from.
type Specialization struct {
	Program Program // pruned to Goal's predicate
	Goal    RelAtom // the atom to query: the goal itself on fallback
	// Fallback says why the goal kept the unspecialized path ("" when it
	// was rewritten).
	Fallback string
}

// SpecializeGoal rewrites the program for the goal as described above,
// or prunes it to the goal's predicate when a fallback applies. The
// answers to Goal over Program equal the goal's answers over prog.
func SpecializeGoal(prog Program, goal RelAtom) Specialization {
	g := NewDepGraph(prog)
	fallback := ""
	switch {
	case !hasConstant(goal.Args):
		fallback = "no constants in the goal"
	case g.recursive(goal.Pred):
		fallback = goal.Pred + " is recursive"
	case g.constructive(goal.Pred):
		fallback = goal.Pred + " has a ⊕ head"
	}
	if fallback != "" {
		return Specialization{Program: prog.Reachable(goal.Pred), Goal: goal, Fallback: fallback}
	}

	s := &specializer{g: g, taken: map[string]bool{}, fresh: map[string]string{}}
	for _, p := range g.Preds() {
		s.taken[p] = true
	}
	top := s.atom(goal)
	for len(s.queue) > 0 {
		d := s.queue[0]
		s.queue = s.queue[1:]
		s.define(d.pred, d.atom)
	}

	// Keep the original rules the specialized ones still need. The
	// stored-facts rules are left out of the reachability walk: they must
	// not pull back the rules of the predicate they scan.
	var derived []Rule
	for i, r := range s.rules {
		if !s.stored[i] {
			derived = append(derived, r)
		}
	}
	withOrig := NewProgram(append(derived, prog.Rules...)...)
	kept := NewDepGraph(withOrig).ReachableRules(top.Pred)
	out := s.rules
	for i, r := range prog.Rules {
		if kept[len(derived)+i] {
			out = append(out, r)
		}
	}
	return Specialization{Program: NewProgram(out...), Goal: top}
}

type specializer struct {
	g      *DepGraph
	taken  map[string]bool   // predicate names in use
	fresh  map[string]string // bound-atom pattern -> fresh predicate
	queue  []pendingDef      // fresh predicates whose rules are not built yet
	rules  []Rule            // the fresh predicates' rules, in creation order
	stored []bool            // aligned with rules: the stored-facts rule
}

type pendingDef struct {
	pred string
	atom RelAtom
}

// atom returns the replacement for a bound atom: its fresh predicate
// over the atom's distinct variables. Atoms with the same pattern share
// one fresh predicate.
func (s *specializer) atom(a RelAtom) RelAtom {
	key := patternKey(a)
	name, ok := s.fresh[key]
	if !ok {
		for n := 1; ; n++ {
			name = fmt.Sprintf("%s#%d", a.Pred, n)
			if !s.taken[name] {
				break
			}
		}
		s.taken[name] = true
		s.fresh[key] = name
		s.queue = append(s.queue, pendingDef{pred: name, atom: a})
	}
	return RelAtom{Pred: name, Args: varTerms(distinctVars(a.Args)), Pos: a.Pos}
}

// define builds the fresh predicate's rules: one per rule of the atom's
// predicate whose head unifies with it, plus the stored-facts rule.
func (s *specializer) define(pred string, a RelAtom) {
	vars := distinctVars(a.Args)
	for _, i := range s.g.definers[a.Pred] {
		r := s.g.prog.Rules[i]
		sub, head, ok := unifyHead(r.Head, a, vars)
		if !ok {
			continue
		}
		body := make([]Literal, len(r.Body))
		for j, l := range r.Body {
			l = sub.literal(l)
			if ra, isRel := l.(RelAtom); isRel && s.specializable(ra) {
				l = s.atom(ra)
			}
			body[j] = l
		}
		s.add(Rule{Name: r.Name, Head: RelAtom{Pred: pred, Args: head, Pos: r.Head.Pos}, Body: body, Pos: r.Pos}, false)
	}
	s.add(NewRule(Rel(pred, varTerms(vars)...), a), true)
}

func (s *specializer) add(r Rule, stored bool) {
	s.rules = append(s.rules, r)
	s.stored = append(s.stored, stored)
}

// specializable reports whether a body atom is rewritten too: it is bound
// and its predicate is a non-recursive IDB predicate without ⊕ heads.
func (s *specializer) specializable(a RelAtom) bool {
	return s.g.IDB(a.Pred) && hasConstant(a.Args) && !s.g.recursive(a.Pred) && !s.g.constructive(a.Pred)
}

// recursive reports whether the predicate depends on itself, directly or
// through the Interval class growth of a constructive rule.
func (g *DepGraph) recursive(pred string) bool {
	for _, e := range g.byPred[pred] {
		if g.depPath(e.To, pred) != nil {
			return true
		}
	}
	return false
}

// constructive reports whether some rule defining the predicate has a ⊕
// head.
func (g *DepGraph) constructive(pred string) bool {
	for _, i := range g.definers[pred] {
		if g.prog.Rules[i].IsConstructive() {
			return true
		}
	}
	return false
}

// hasConstant reports whether the arguments include a constant and no
// constructive term (a ⊕ goal is an error the engine reports).
func hasConstant(args []Term) bool {
	found := false
	for _, t := range args {
		switch {
		case t.IsConcat():
			return false
		case !t.IsVar():
			found = true
		}
	}
	return found
}

// distinctVars returns the variables of the arguments in first-occurrence
// order.
func distinctVars(args []Term) []string {
	var out []string
	seen := map[string]bool{}
	for _, t := range args {
		if t.IsVar() && !seen[t.Name()] {
			seen[t.Name()] = true
			out = append(out, t.Name())
		}
	}
	return out
}

func varTerms(vars []string) []Term {
	out := make([]Term, len(vars))
	for i, v := range vars {
		out[i] = Var(v)
	}
	return out
}

// patternKey renders a bound atom up to variable renaming: constants by
// kind and value, variables by first-occurrence index (so repeated
// variables keep their equality in the key).
func patternKey(a RelAtom) string {
	var b strings.Builder
	b.WriteString(a.Pred)
	idx := map[string]int{}
	for _, t := range a.Args {
		b.WriteByte('\x00')
		if !t.IsVar() {
			fmt.Fprintf(&b, "=%d:%s", t.Value().Kind(), t)
			continue
		}
		if _, ok := idx[t.Name()]; !ok {
			idx[t.Name()] = len(idx)
		}
		fmt.Fprintf(&b, "$%d", idx[t.Name()])
	}
	return b.String()
}

// subst is a substitution over a rule's variables.
type subst map[string]Term

func (s subst) walk(t Term) Term {
	for t.IsVar() {
		u, ok := s[t.Name()]
		if !ok {
			break
		}
		t = u
	}
	return t
}

func (s subst) unify(x, y Term) bool {
	x, y = s.walk(x), s.walk(y)
	switch {
	case x.IsVar():
		if !y.IsVar() || y.Name() != x.Name() {
			s[x.Name()] = y
		}
		return true
	case y.IsVar():
		s[y.Name()] = x
		return true
	default:
		return x.Value().Equal(y.Value())
	}
}

// unifyHead unifies a rule head with a bound atom. The atom's variables
// live apart from the rule's (they may share names); the returned head
// lists, per atom variable in vars, the rule-side term it stands for.
func unifyHead(head, a RelAtom, vars []string) (subst, []Term, bool) {
	if len(head.Args) != len(a.Args) {
		return nil, nil, false
	}
	s := subst{}
	goal := map[string]Term{} // atom variable -> rule-side term
	for i, t := range a.Args {
		h := head.Args[i]
		if !t.IsVar() {
			if !s.unify(t, h) {
				return nil, nil, false
			}
			continue
		}
		if prev, ok := goal[t.Name()]; ok {
			if !s.unify(prev, h) {
				return nil, nil, false
			}
			continue
		}
		goal[t.Name()] = h
	}
	out := make([]Term, len(vars))
	for i, v := range vars {
		out[i] = s.walk(goal[v])
	}
	return s, out, true
}

func (s subst) operand(o Operand) Operand { return Operand{Term: s.walk(o.Term), Attr: o.Attr} }

func (s subst) relAtom(a RelAtom) RelAtom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.walk(t)
	}
	return RelAtom{Pred: a.Pred, Args: args, Pos: a.Pos}
}

// literal applies the substitution to every term of a body literal.
func (s subst) literal(l Literal) Literal {
	switch a := l.(type) {
	case RelAtom:
		return s.relAtom(a)
	case NotAtom:
		return NotAtom{Atom: s.relAtom(a.Atom), Pos: a.Pos}
	case ClassAtom:
		a.Arg = s.walk(a.Arg)
		return a
	case CmpAtom:
		a.Left, a.Right = s.operand(a.Left), s.operand(a.Right)
		return a
	case MemberAtom:
		elems := make([]Operand, len(a.Elems))
		for i, e := range a.Elems {
			elems[i] = s.operand(e)
		}
		a.Elems, a.Set = elems, s.operand(a.Set)
		return a
	case EntailAtom:
		a.Left, a.Right = s.operand(a.Left), s.operand(a.Right)
		return a
	case TemporalAtom:
		a.Left, a.Right = s.operand(a.Left), s.operand(a.Right)
		return a
	}
	return l
}
