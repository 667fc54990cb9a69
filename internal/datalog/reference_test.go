package datalog

import (
	"fmt"
	"sort"
	"strings"

	"videodb/internal/constraint"
	"videodb/internal/object"
	"videodb/internal/store"
	"videodb/internal/temporal"
)

// The reference evaluator: the paper's §6 semantics read straight off the
// definitions, as the oracles' reference. It shares nothing with the
// engine but the syntax (ast.go) and the stratification (stratify.go);
// TestReferenceIsIndependent holds it to that. The answer is the least
// fixpoint of TP over the extended active domain (Definitions 19–22),
// stratum by stratum:
//
//   - an interpretation is a map[string] set of ground tuples per
//     predicate; the stored facts of IDB predicates start in it;
//   - a TP step evaluates every rule body by nested loops in written
//     order against the previous interpretation, delaying each filter and
//     negated atom until its variables are bound;
//   - a class atom ranges over the stored objects of its kind and, for
//     Interval, the intervals ⊕ created before the step;
//   - a ⊕ head yields the interval of the sorted union of its operands'
//     base intervals (I ⊕ I ≡ I, absorption), named by the bases joined
//     with "+";
//   - filters are decided by the constraint, temporal and object packages
//     directly: dense-order comparison and entailment through constraint
//     formulas, Allen relations through the point-based evaluator.
//
// It is slow by design; the oracles run it on small instances.

// refEnv is a valuation of a rule's variables.
type refEnv map[string]object.Value

// refRel is a set of ground tuples.
type refRel struct {
	seen   map[string]bool
	tuples [][]object.Value
}

func (r *refRel) add(t []object.Value) bool {
	if k := refKey(t); !r.seen[k] {
		r.seen[k] = true
		r.tuples = append(r.tuples, t)
		return true
	}
	return false
}

// refEval is one evaluation: the store, the interpretation, and the ⊕
// extension of the interval class.
type refEval struct {
	st      *store.Store
	rels    map[string]*refRel // IDB predicates, and EDB ones once read
	created map[object.OID]*object.Object
	bases   map[object.OID][]string // created oid -> its sorted base intervals
	byBases map[string]object.OID   // bases joined with "+" -> created oid
	order   []object.OID            // created oids, in creation order
	visible int                     // order[:visible] is the class extension this step
}

func newRefEval(st *store.Store) *refEval {
	return &refEval{
		st:      st,
		rels:    map[string]*refRel{},
		created: map[object.OID]*object.Object{},
		bases:   map[object.OID][]string{},
		byBases: map[string]object.OID{},
	}
}

// rel returns pred's tuples: the interpretation's for an IDB predicate,
// the stored facts otherwise.
func (ev *refEval) rel(pred string) *refRel {
	r, ok := ev.rels[pred]
	if !ok {
		r = &refRel{seen: map[string]bool{}}
		for _, f := range ev.st.Facts(pred) {
			r.add(f.Args)
		}
		ev.rels[pred] = r
	}
	return r
}

// refModel returns the least model of p over st: the tuples of every IDB
// predicate, and the intervals ⊕ created, sorted by oid.
func refModel(st *store.Store, p Program) (map[string][][]object.Value, []*object.Object, error) {
	strata, maxStratum, err := stratify(p)
	if err != nil {
		return nil, nil, err
	}
	ev := newRefEval(st)
	for _, pred := range p.IDB() {
		ev.rel(pred)
	}
	for s := 0; s <= maxStratum; s++ {
		var rules []Rule
		for _, r := range p.Rules {
			if strata[r.Head.Pred] == s {
				rules = append(rules, r)
			}
		}
		for grew := true; grew; {
			if grew, err = ev.step(rules); err != nil {
				return nil, nil, err
			}
		}
	}
	ext := map[string][][]object.Value{}
	for _, pred := range p.IDB() {
		ext[pred] = ev.rels[pred].tuples
	}
	sort.Slice(ev.order, func(i, j int) bool { return ev.order[i] < ev.order[j] })
	created := make([]*object.Object, len(ev.order))
	for i, oid := range ev.order {
		created[i] = ev.created[oid]
	}
	return ext, created, nil
}

// step applies TP once: every solution of every rule body over the
// current interpretation instantiates its head, and the new tuples join
// the interpretation afterwards. It reports whether the interpretation
// or the interval class grew.
func (ev *refEval) step(rules []Rule) (bool, error) {
	ev.visible = len(ev.order)
	var preds []string
	var heads [][]object.Value
	for _, r := range rules {
		err := ev.solve(r.Body, refEnv{}, nil, func(env refEnv) error {
			t := make([]object.Value, len(r.Head.Args))
			for i, a := range r.Head.Args {
				if !a.IsConcat() {
					t[i], _ = refTerm(a, env)
					continue
				}
				oid, err := ev.concat(a, env)
				if err != nil {
					return err
				}
				t[i] = object.Ref(oid)
			}
			preds, heads = append(preds, r.Head.Pred), append(heads, t)
			return nil
		})
		if err != nil {
			return false, err
		}
	}
	grew := len(ev.order) > ev.visible
	for i, t := range heads {
		grew = ev.rels[preds[i]].add(t) || grew
	}
	return grew, nil
}

// solve enumerates the valuations satisfying body (and the literals
// already delayed) by nested loops in written order, calling emit for
// each.
func (ev *refEval) solve(body []Literal, env refEnv, delayed []Literal, emit func(refEnv) error) error {
	env, delayed, ok, err := ev.settle(env, delayed)
	if err != nil || !ok {
		return err
	}
	if len(body) == 0 {
		if len(delayed) > 0 {
			return fmt.Errorf("reference: %s: variables never bound", delayed[0])
		}
		return emit(env)
	}
	switch a := body[0].(type) {
	case RelAtom:
		for _, t := range ev.rel(a.Pred).tuples {
			if next, ok := refUnify(a.Args, t, env); ok {
				if err := ev.solve(body[1:], next, delayed, emit); err != nil {
					return err
				}
			}
		}
		return nil
	case ClassAtom:
		if v, ok := refTerm(a.Arg, env); ok {
			if o := ev.object(v); o == nil || o.Kind() != a.Kind {
				return nil
			}
			return ev.solve(body[1:], env, delayed, emit)
		}
		// The extended active domain: stored objects, then created ones.
		for _, oid := range append(ev.st.OIDs(), ev.order[:ev.visible]...) {
			if ev.object(object.Ref(oid)).Kind() != a.Kind {
				continue
			}
			if err := ev.solve(body[1:], refBind(env, a.Arg.Name(), object.Ref(oid)), delayed, emit); err != nil {
				return err
			}
		}
		return nil
	}
	return ev.solve(body[1:], env, append(delayed[:len(delayed):len(delayed)], body[0]), emit)
}

// settle decides every delayed literal whose variables are all bound, and
// lets an equality whose one unbound variable stands alone on a side
// take the other side's value (the binding role of Definition 11). It
// reports false as soon as a decided literal fails, or the value an
// equality would bind is an undefined attribute.
func (ev *refEval) settle(env refEnv, delayed []Literal) (refEnv, []Literal, bool, error) {
	for i := 0; i < len(delayed); i++ {
		vars := map[string]bool{}
		delayed[i].collectVars(vars)
		var unbound []string
		for v := range vars {
			if _, ok := env[v]; !ok {
				unbound = append(unbound, v)
			}
		}
		if len(unbound) == 0 {
			if ok, err := ev.literal(delayed[i], env); err != nil || !ok {
				return nil, nil, false, err
			}
		} else if c, isCmp := delayed[i].(CmpAtom); isCmp && len(unbound) == 1 {
			v, ok := object.Null(), false
			for _, as := range c.assignments() {
				if as.target == unbound[0] {
					v, ok = ev.operand(as.src, env), true
				}
			}
			if !ok {
				continue
			}
			if v.IsNull() {
				return nil, nil, false, nil
			}
			env = refBind(env, unbound[0], v)
		} else {
			continue
		}
		// Decided: drop it, and rescan, since a binding may settle others.
		delayed = append(delayed[:i:i], delayed[i+1:]...)
		i = -1
	}
	return env, delayed, true, nil
}

// literal decides a filter, or a negated atom, under a valuation that
// binds all of its variables.
func (ev *refEval) literal(l Literal, env refEnv) (bool, error) {
	switch a := l.(type) {
	case CmpAtom:
		// An attribute the object does not define holds no value to
		// compare: the atom cannot hold, whatever the operator.
		l, r := ev.operand(a.Left, env), ev.operand(a.Right, env)
		if (a.Left.Attr != "" && l.IsNull()) || (a.Right.Attr != "" && r.IsNull()) {
			return false, nil
		}
		return refCompare(l, a.Op, r), nil
	case MemberAtom:
		set := ev.operand(a.Set, env)
		for _, el := range a.Elems {
			if !set.ContainsElem(ev.operand(el, env)) {
				return false, nil
			}
		}
		return true, nil
	case EntailAtom:
		lt, ok1 := ev.operand(a.Left, env).AsTemporal()
		rt, ok2 := ev.operand(a.Right, env).AsTemporal()
		// X.duration ⇒ Y.duration is entailment between the dense-order
		// formulas of the two durations (§4 Definition 2).
		return ok1 && ok2 && constraint.DurationFormula(lt).Entails(constraint.DurationFormula(rt)), nil
	case TemporalAtom:
		lt, ok1 := ev.operand(a.Left, env).AsTemporal()
		rt, ok2 := ev.operand(a.Right, env).AsTemporal()
		if !ok1 || !ok2 {
			return false, nil
		}
		if a.Rel == TempAfter || a.Rel == TempMetBy || a.Rel == TempDuring {
			lt, rt = rt, lt // the converse relations
		}
		pt := temporal.Constraint{}
		switch a.Rel {
		case TempBefore, TempAfter:
			return !lt.IsEmpty() && !rt.IsEmpty() && pt.Before(lt, rt), nil
		case TempMeets, TempMetBy:
			return temporal.Meets(lt, rt), nil
		case TempOverlaps:
			return pt.Overlaps(lt, rt), nil
		case TempEquals:
			return pt.Equals(lt, rt), nil
		case TempContains, TempDuring:
			return pt.Contains(lt, rt), nil
		}
		return false, fmt.Errorf("reference: unknown temporal relation %q", a.Rel)
	case NotAtom:
		t := make([]object.Value, len(a.Atom.Args))
		for i, arg := range a.Atom.Args {
			t[i], _ = refTerm(arg, env)
		}
		return !ev.rel(a.Atom.Pred).seen[refKey(t)], nil
	}
	return false, fmt.Errorf("reference: %T is not a filter", l)
}

// refCompare decides a comparison: = and ≠ by value equality for any
// kinds, the dense order on numbers as a ground constraint atom, and on
// strings lexically. Values of other kinds are unordered.
func refCompare(l object.Value, op constraint.Op, r object.Value) bool {
	switch op {
	case constraint.Eq:
		return l.Equal(r)
	case constraint.Ne:
		return !l.Equal(r)
	}
	ln, lnum := l.AsNumber()
	rn, rnum := r.AsNumber()
	ls, lstr := l.AsString()
	rs, rstr := r.AsString()
	switch {
	case lnum && rnum:
	case lstr && rstr:
		ln, rn = float64(strings.Compare(ls, rs)), 0
	default:
		return false
	}
	ok, err := constraint.NewAtom(constraint.C(ln), op, constraint.C(rn)).Eval(nil)
	return err == nil && ok
}

// operand resolves a bound operand: its term's value, then the attribute
// if any (null unless the value refers to an object).
func (ev *refEval) operand(o Operand, env refEnv) object.Value {
	v, _ := refTerm(o.Term, env)
	if o.Attr == "" {
		return v
	}
	if obj := ev.object(v); obj != nil {
		return obj.Attr(o.Attr)
	}
	return object.Null()
}

// object resolves a reference: created intervals, then the store.
func (ev *refEval) object(v object.Value) *object.Object {
	oid, ok := v.AsRef()
	if !ok {
		return nil
	}
	if o, ok := ev.created[oid]; ok {
		return o
	}
	return ev.st.Get(oid)
}

// concat evaluates a ⊕ term (Section 6.1) to the interval whose base
// intervals are the union of its operands', creating it if it is new.
func (ev *refEval) concat(t Term, env refEnv) (object.OID, error) {
	if !t.IsConcat() {
		v, _ := refTerm(t, env)
		if o := ev.object(v); o != nil && o.Kind() == object.GenInterval {
			return o.OID(), nil
		}
		return "", fmt.Errorf("reference: ⊕ operand %s is not an interval", v)
	}
	set := map[string]bool{}
	for _, operand := range []*Term{t.left, t.right} {
		oid, err := ev.concat(*operand, env)
		if err != nil {
			return "", err
		}
		bases, ok := ev.bases[oid]
		if !ok {
			bases = []string{string(oid)}
		}
		for _, b := range bases {
			set[b] = true
		}
	}
	var bases []string
	for b := range set {
		bases = append(bases, b)
	}
	sort.Strings(bases)
	if len(bases) == 1 {
		return object.OID(bases[0]), nil // I ⊕ I ≡ I
	}
	name := strings.Join(bases, "+")
	if oid, ok := ev.byBases[name]; ok {
		return oid, nil // absorption: the interval of these bases exists
	}
	oid := object.OID(name)
	for i := 0; ev.object(object.Ref(oid)) != nil; i++ {
		oid = object.OID(fmt.Sprintf("%s#%d", name, i))
	}
	merged := object.New(oid, object.GenInterval)
	for _, b := range bases {
		merged = merged.Merge(ev.st.Get(object.OID(b)), oid)
	}
	ev.created[oid], ev.bases[oid], ev.byBases[name] = merged, bases, oid
	ev.order = append(ev.order, oid)
	return oid, nil
}

// refTerm is a constant's value, or a variable's under the valuation
// (false when it is unbound).
func refTerm(t Term, env refEnv) (object.Value, bool) {
	if t.IsVar() {
		v, ok := env[t.Name()]
		return v, ok
	}
	return t.Value(), true
}

// refUnify matches a tuple against an atom's arguments, extending a copy
// of the valuation.
func refUnify(args []Term, t []object.Value, env refEnv) (refEnv, bool) {
	if len(args) != len(t) {
		return nil, false
	}
	for i, a := range args {
		if v, ok := refTerm(a, env); ok {
			if !v.Equal(t[i]) {
				return nil, false
			}
			continue
		}
		env = refBind(env, a.Name(), t[i])
	}
	return env, true
}

// refBind returns a copy of env with name bound to v.
func refBind(env refEnv, name string, v object.Value) refEnv {
	next := make(refEnv, len(env)+1)
	for k, w := range env {
		next[k] = w
	}
	next[name] = v
	return next
}

// refKey identifies a ground tuple by its values' kinds and renderings,
// so values of different kinds that render alike stay distinct.
func refKey(t []object.Value) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprintf("%d:%s", v.Kind(), v)
	}
	return strings.Join(parts, "\x1f")
}
