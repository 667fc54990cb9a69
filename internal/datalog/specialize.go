package datalog

import (
	"fmt"
	"strings"
)

// Goal specialization: a query ?p(c̄, Ȳ) whose goal carries constants is
// answered from a rewritten program instead of p's whole extent. The goal
// becomes a fresh predicate p#n(Ȳ) whose rules are p's rules with the
// constants unified into their heads; the rewrite repeats for body atoms
// over IDB predicates that become bound, recursive ones included, one
// fresh predicate per bound pattern. The constants then sit in body
// atoms, where the executor's pushdown scans the store under them
// (edbFiltered), so the probe touches only matching facts.
//
// Each fresh predicate is defined by all of its source predicate's rules
// with the pattern unified into their heads, so over T_P rounds it holds
// exactly σ_pattern of the source's least fixpoint. Through recursion
// that gives reach#1(Z) :- reach#1(Y), co(Y, Z) for ?reach(a, X) over a
// left-linear closure: only a's closure is derived. Patterns range over
// the finitely many constants of the goal and the rules, so the rewrite
// terminates.
//
// A predicate may have stored facts as well as rules (seedEDB loads them
// into its relation), so every fresh predicate also gets the rule
// p#n(Ȳ) :- p(c̄, Ȳ). Once p's own rules are pruned away p is extensional
// in the rewritten program and that rule is a pushdown scan of its stored
// facts; when p is still needed unspecialized elsewhere, the rule reads
// p's derived relation, a superset that the binds narrow the same way,
// and p#n keeps that rule alone: its specialized copies would derive the
// same slice a second time.
//
// A recursion need not carry the constants: for right-linear
// r(X, Z) :- e(X, Y), r(Y, Z) the goal r(a, X) leaves r(Y, Z) free, so
// the rewritten program would run the whole recursion plus a specialized
// copy. When the kept original rules still include a rule of a
// specialized recursive component, that component is not specialized:
// the goal's own component falls back to the unspecialized path, any
// other is left unrewritten and the rewrite rebuilt. The unspecialized
// path is also kept when the goal has no constants and when one of the
// goal predicate's rules has a ⊕ head (created objects must not depend
// on the goal).

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
	case g.constructive(goal.Pred):
		fallback = goal.Pred + " has a ⊕ head"
	}
	// A component whose recursion does not carry its pattern is blocked
	// and the rewrite rebuilt. Blocking turns its fresh atoms back into
	// atoms over rules that were already kept, so the second pass finds
	// no uncarried component.
	var blocked map[string]bool
	for fallback == "" {
		s := &specializer{g: g, blocked: blocked, taken: map[string]bool{}, fresh: map[string]string{}}
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
		// stored-facts rules are left out of the reachability walk: they
		// must not pull back the rules of the predicate they scan.
		var derived []Rule
		for i, r := range s.rules {
			if s.orig[i] >= 0 {
				derived = append(derived, r)
			}
		}
		wg := NewDepGraph(NewProgram(append(derived, prog.Rules...)...))
		kept := wg.ReachableRules(top.Pred)[len(derived):]
		uncarried := s.uncarried(kept)
		if len(uncarried) == 0 {
			return Specialization{Program: s.program(kept, top.Pred), Goal: top}
		}
		for _, p := range uncarried {
			if g.sameComponent(p, goal.Pred) {
				fallback = s.uncarriedReason(goal.Pred, wg)
			}
			if blocked == nil {
				blocked = map[string]bool{}
			}
			for _, q := range g.Preds() {
				if g.sameComponent(p, q) {
					blocked[q] = true
				}
			}
		}
	}
	return Specialization{Program: prog.Reachable(goal.Pred), Goal: goal, Fallback: fallback}
}

type specializer struct {
	g       *DepGraph
	blocked map[string]bool   // predicates whose recursion did not carry a pattern
	taken   map[string]bool   // predicate names in use
	fresh   map[string]string // bound-atom pattern -> fresh predicate
	rec     []string          // recursive predicates with a fresh predicate
	queue   []pendingDef      // fresh predicates whose rules are not built yet
	rules   []Rule            // the fresh predicates' rules, in creation order
	orig    []int             // aligned with rules: the original rule, -1 for the stored-facts rule
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
		if s.g.recursive(a.Pred) {
			s.rec = append(s.rec, a.Pred)
		}
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
		s.add(Rule{Name: r.Name, Head: RelAtom{Pred: pred, Args: head, Pos: r.Head.Pos}, Body: body, Pos: r.Pos}, i)
	}
	s.add(NewRule(Rel(pred, varTerms(vars)...), a), -1)
}

// program assembles the rewrite: the fresh predicates' rules, then the
// kept original rules (kept is aligned with the original program's
// rules). A fresh predicate whose source keeps its rules gets only its
// stored-facts rule, which reads the source's derived relation; its
// specialized copies would derive the same slice a second time. Fresh
// predicates only those copies read are pruned with them.
func (s *specializer) program(kept []bool, goal string) Program {
	orig := s.g.prog.Rules
	keptSource := map[string]bool{}
	for i, r := range orig {
		if kept[i] {
			keptSource[r.Head.Pred] = true
		}
	}
	var out []Rule
	dropped := false
	for i, r := range s.rules {
		if o := s.orig[i]; o >= 0 && keptSource[orig[o].Head.Pred] {
			dropped = true
			continue
		}
		out = append(out, r)
	}
	for i, r := range orig {
		if kept[i] {
			out = append(out, r)
		}
	}
	if dropped {
		return NewProgram(out...).Reachable(goal)
	}
	return NewProgram(out...)
}

func (s *specializer) add(r Rule, orig int) {
	s.rules = append(s.rules, r)
	s.orig = append(s.orig, orig)
}

// specializable reports whether a body atom is rewritten too: it is bound
// and its predicate is an IDB predicate without ⊕ heads whose recursion
// has not been blocked.
func (s *specializer) specializable(a RelAtom) bool {
	return s.g.IDB(a.Pred) && hasConstant(a.Args) && !s.blocked[a.Pred] && !s.g.constructive(a.Pred)
}

// uncarried returns the recursive predicates with a fresh predicate
// whose component still has a kept original rule (kept is aligned with
// the original program's rules): their recursion did not carry the
// pattern.
func (s *specializer) uncarried(kept []bool) []string {
	var out []string
	for _, p := range s.rec {
		for i, r := range s.g.prog.Rules {
			if kept[i] && s.g.sameComponent(p, r.Head.Pred) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// uncarriedReason names the goal's fallback when its recursion does not
// carry the constants, citing the first original rule whose rewrite
// still reads the component unspecialized. wg is the graph of the
// rewritten rules, stored-facts rules left out, followed by the original
// program.
func (s *specializer) uncarriedReason(goal string, wg *DepGraph) string {
	reason := goal + "'s recursion does not carry the goal's constants"
	j := 0 // the rule's index in wg
	for _, o := range s.orig {
		if o < 0 {
			continue
		}
		for _, e := range wg.RuleDeps(j) {
			if s.g.sameComponent(goal, e.To) {
				return fmt.Sprintf("%s (rule %s)", reason, s.g.prog.Rules[o])
			}
		}
		j++
	}
	return reason
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

// sameComponent reports whether two predicates are one predicate or each
// depends on the other.
func (g *DepGraph) sameComponent(p, q string) bool {
	return p == q || g.depPath(p, q) != nil && g.depPath(q, p) != nil
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
