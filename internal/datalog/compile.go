package datalog

import (
	"fmt"
	"strings"

	"videodb/internal/interval"
	"videodb/internal/object"
)

// Rule compilation. The seed evaluator re-planned every rule body on every
// (rule, delta) task of every round and carried bindings in a map with
// delete-undo churn. This file compiles each rule once, at NewEngine time,
// into an execution form:
//
//   - a per-rule variable numbering (name -> slot), so bindings live in a
//     flat frame indexed by slot instead of a map;
//   - one ordered step list per delta position (plus -1 for the full
//     round), with every literal classified at compile time: relational
//     scan, class enumeration, class membership check, equality
//     assignment, or filter;
//   - for relational steps, the argument positions that are statically
//     bound when the step runs — the join-index probe candidates. At run
//     time the kernel probes every candidate position and scans the most
//     selective (shortest) posting list, rather than the first bound
//     position the seed evaluator happened to meet;
//   - precomputed join-index key strings for constant arguments, and a
//     per-slot key cache in the frame so a bound value is rendered at most
//     once per binding, not once per probe.
//
// Compilation is purely a change of representation: the step order is the
// exact order planBody chooses, and every runtime decision that depends on
// data (index selectivity, member-index applicability) is still made at
// run time. WithoutPlanCache re-compiles per evaluation for ablation.

// compiledRule is the execution form of one rule. It is immutable after
// compilation, so engines may share it: the cross-query plan cache hands
// the same compiledRule to every engine evaluating the program.
type compiledRule struct {
	rule         Rule
	nVars        int
	varNames     []string       // slot -> variable name
	varSlots     map[string]int // variable name -> slot
	head         []headSpec
	constructive bool               // head contains ⊕ (precomputed for the hot path)
	plans        map[int][]planStep // delta body position (-1 = full) -> steps
}

// headSpec instantiates one head argument from a frame.
type headSpec struct {
	slot   int          // >= 0: variable slot
	val    object.Value // constant (slot < 0, concat == nil)
	vid    uint64       // interned id of val (streaming head dedup)
	concat *Term        // constructive term (evaluated recursively)
}

type stepKind uint8

const (
	stepRel        stepKind = iota // relational atom: scan or index probe
	stepClassEnum                  // class atom generating candidates
	stepClassCheck                 // class atom with a determined argument
	stepAssign                     // equality atom binding its target
	stepFilter                     // constraint atom with all variables bound
)

// opSpec is a compiled operand: a slot or constant, optionally followed by
// an attribute access.
type opSpec struct {
	slot int // >= 0: variable slot; -1: constant
	val  object.Value
	attr string
	src  Operand // original operand, for error messages
}

// argSpec is a compiled relational-atom argument. Constants carry both
// the rendered join-index key (materializing mode) and the globally
// interned value id (streaming mode); ids are process-stable, so compiled
// plans embedding them are safe to share across engines.
type argSpec struct {
	slot int          // >= 0: variable slot; -1: constant
	val  object.Value // constant value
	key  string       // precomputed join-index key for constants
	vid  uint64       // precomputed interned id for constants
}

// memberSpec is a compiled "elem ∈ V.entities" lookahead: if elem resolves
// to an object reference when the class atom runs, the store's inverted
// entity index narrows the candidate set.
type memberSpec struct {
	elem opSpec
}

// filterFunc evaluates a compiled filter literal against a frame. It takes
// the engine as an argument (rather than capturing it) so that the
// shallow-copied worker engines of parallel evaluation reuse the same
// compiled plans.
type filterFunc func(e *Engine, fr *frame) (bool, error)

// planStep is one step of a compiled plan.
type planStep struct {
	kind     stepKind
	pos      int // body literal index
	useDelta bool

	// stepRel
	pred       string
	args       []argSpec
	probes     []int  // argument positions statically bound at this step
	varProbes  []int  // probes bound by variables (probed after constant pushdown)
	constSig   string // cache key for constant-pushdown scans ("" = no constants)
	freshSlots []int  // slots this step binds (cleared on backtrack)

	// stepClassEnum / stepClassCheck
	classKind   object.Kind
	classArg    argSpec
	memberSpecs []memberSpec
	// window, when set on an Interval enumeration, is the hull of a later
	// solver-decidable guard pinning the variable's duration (G.duration ⇒
	// const): the streaming executor pushes it into the store's interval
	// tree instead of enumerating the whole active domain. The guard still
	// runs, so the pushed scan only needs to over-approximate.
	window *interval.Span

	// stepAssign
	assignSlot int
	assignSrc  opSpec

	// stepFilter
	filter filterFunc
}

// frame is the flat binding store for one rule evaluation: values indexed
// by the rule's compile-time variable numbering, plus a lazily filled
// per-slot cache of join-index keys so a bound value is keyed at most
// once per binding. Interned (streaming) frames cache uint64 ids; string
// frames cache the rendered form. scratch is the head-instantiation
// buffer the streaming executor fills to dedup-check a firing before
// allocating the tuple.
type frame struct {
	vals  []object.Value
	bound []bool

	keys  []string // string-keyed mode
	keyed []bool

	ids  []uint64 // interned mode
	idok []bool

	scratch    row
	scratchIDs []uint64
}

func newFrame(cr *compiledRule, interned bool) *frame {
	n := cr.nVars
	fr := &frame{
		vals:  make([]object.Value, n),
		bound: make([]bool, n),
	}
	if interned {
		fr.ids = make([]uint64, n)
		fr.idok = make([]bool, n)
		fr.scratch = make(row, len(cr.head))
		fr.scratchIDs = make([]uint64, len(cr.head))
	} else {
		fr.keys = make([]string, n)
		fr.keyed = make([]bool, n)
	}
	return fr
}

func (fr *frame) bind(slot int, v object.Value) {
	fr.vals[slot] = v
	fr.bound[slot] = true
	if fr.idok != nil {
		fr.idok[slot] = false
	} else {
		fr.keyed[slot] = false
	}
}

// bindID binds a slot whose interned id is already known (the value came
// from a relation row that carries its ids), pre-filling the frame's id
// cache so later probes and head folds skip the intern-table lookup.
// Interned (streaming) frames only.
func (fr *frame) bindID(slot int, v object.Value, id uint64) {
	fr.vals[slot] = v
	fr.bound[slot] = true
	fr.ids[slot] = id
	fr.idok[slot] = true
}

func (fr *frame) unbind(slot int) {
	fr.bound[slot] = false
	if fr.idok != nil {
		fr.idok[slot] = false
	} else {
		fr.keyed[slot] = false
	}
}

// key returns the join-index key of the bound slot, caching the rendering.
func (fr *frame) key(slot int) string {
	if !fr.keyed[slot] {
		fr.keys[slot] = fr.vals[slot].String()
		fr.keyed[slot] = true
	}
	return fr.keys[slot]
}

// id returns the interned id of the bound slot, caching the intern lookup.
func (fr *frame) id(slot int) uint64 {
	if !fr.idok[slot] {
		fr.ids[slot] = valueID(fr.vals[slot])
		fr.idok[slot] = true
	}
	return fr.ids[slot]
}

// bindingsOf reconstructs a name->value map from the frame (provenance
// tracing only; the hot path never builds it).
func (cr *compiledRule) bindingsOf(fr *frame) bindings {
	b := make(bindings, cr.nVars)
	for s, name := range cr.varNames {
		if fr.bound[s] {
			b[name] = fr.vals[s]
		}
	}
	return b
}

// compileRule builds the execution form of a rule: the variable numbering,
// the head instantiation spec, and one compiled plan per delta position
// the rule can take in its stratum.
func (e *Engine) compileRule(r Rule, stratum int) (*compiledRule, error) {
	cr := compileSkeleton(r)
	deltas := append([]int{-1}, e.deltaPositionsIn(r, stratum)...)
	for _, d := range deltas {
		if _, ok := cr.plans[d]; ok {
			continue
		}
		steps, err := e.compilePlan(cr, r, d)
		if err != nil {
			return nil, fmt.Errorf("datalog: rule %s: %w", r.label(), err)
		}
		cr.plans[d] = steps
	}
	return cr, nil
}

// compileRuleOne builds the execution form with only the plan for one
// delta position — the WithoutPlanCache ablation path, which pays the
// per-evaluation planning cost the seed evaluator paid.
func (e *Engine) compileRuleOne(r Rule, deltaPos int) (*compiledRule, error) {
	cr := compileSkeleton(r)
	steps, err := e.compilePlan(cr, r, deltaPos)
	if err != nil {
		return nil, fmt.Errorf("datalog: rule %s: %w", r.label(), err)
	}
	cr.plans[deltaPos] = steps
	return cr, nil
}

// compileSkeleton numbers the rule's variables and compiles the head spec.
func compileSkeleton(r Rule) *compiledRule {
	cr := &compiledRule{
		rule:     r,
		varSlots: make(map[string]int),
		plans:    make(map[int][]planStep),
	}
	slotOf := func(name string) int {
		if s, ok := cr.varSlots[name]; ok {
			return s
		}
		s := len(cr.varNames)
		cr.varSlots[name] = s
		cr.varNames = append(cr.varNames, name)
		return s
	}
	vars := map[string]bool{}
	for _, l := range r.Body {
		l.collectVars(vars)
	}
	r.Head.collectVars(vars)
	for _, l := range r.Body { // number in body-occurrence order
		for _, v := range VarsOf(l) {
			slotOf(v)
		}
	}
	for v := range vars { // head-only vars (range restriction rejects them later)
		slotOf(v)
	}
	cr.nVars = len(cr.varNames)

	for _, t := range r.Head.Args {
		switch {
		case t.IsConcat():
			tt := t
			cr.constructive = true
			cr.head = append(cr.head, headSpec{slot: -1, concat: &tt})
		case t.IsVar():
			cr.head = append(cr.head, headSpec{slot: slotOf(t.Name())})
		default:
			v := t.Value()
			cr.head = append(cr.head, headSpec{slot: -1, val: v, vid: valueID(v)})
		}
	}
	return cr
}

// compilePlan orders the body with planBody and classifies each literal,
// tracking which slots are bound as the plan progresses.
func (e *Engine) compilePlan(cr *compiledRule, r Rule, deltaPos int) ([]planStep, error) {
	plan, err := planBody(r.Body, deltaPos)
	if err != nil {
		return nil, err
	}
	boundSlots := make([]bool, cr.nVars)
	steps := make([]planStep, 0, len(plan))
	for i, pos := range plan {
		lit := r.Body[pos]
		st := planStep{pos: pos, useDelta: pos == deltaPos}
		switch a := lit.(type) {
		case RelAtom:
			st.kind = stepRel
			st.pred = a.Pred
			st.args = make([]argSpec, len(a.Args))
			seenHere := map[int]bool{}
			for k, t := range a.Args {
				if !t.IsVar() {
					v := t.Value()
					st.args[k] = argSpec{slot: -1, val: v, key: v.String(), vid: valueID(v)}
					st.probes = append(st.probes, k)
					continue
				}
				s := cr.varSlots[t.Name()]
				st.args[k] = argSpec{slot: s}
				switch {
				case boundSlots[s]:
					st.probes = append(st.probes, k)
					st.varProbes = append(st.varProbes, k)
				case !seenHere[s]:
					st.freshSlots = append(st.freshSlots, s)
					seenHere[s] = true
				}
			}
			for _, s := range st.freshSlots {
				boundSlots[s] = true
			}
			// Constant arguments are pushdown candidates: an extensional
			// scan can filter them inside the store instead of copying the
			// full extent and probing an engine-side index. constSig keys
			// the per-engine cache of pushed scans.
			if nc := len(st.probes) - len(st.varProbes); nc > 0 {
				var sig strings.Builder
				sig.WriteString(a.Pred)
				for k, as := range st.args {
					if as.slot < 0 {
						fmt.Fprintf(&sig, "\x00%d\x1f%s", k, as.key)
					}
				}
				st.constSig = sig.String()
			}

		case ClassAtom:
			st.classKind = a.Kind
			if !a.Arg.IsVar() {
				st.kind = stepClassCheck
				st.classArg = argSpec{slot: -1, val: a.Arg.Value()}
				break
			}
			s := cr.varSlots[a.Arg.Name()]
			st.classArg = argSpec{slot: s}
			if boundSlots[s] {
				st.kind = stepClassCheck
				break
			}
			st.kind = stepClassEnum
			st.memberSpecs = e.compileMemberLookahead(cr, r, plan[i+1:], a.Arg.Name(), boundSlots)
			if a.Kind == object.GenInterval {
				st.window = compileWindowLookahead(r, plan[i+1:], a.Arg.Name())
			}
			boundSlots[s] = true

		case CmpAtom:
			target, ok := unboundTarget(cr, a, boundSlots)
			if !ok {
				st.kind = stepFilter
				st.filter = compileFilter(cr, lit)
				break
			}
			src, ok := assignSource(cr, a, target, boundSlots)
			if !ok {
				// No resolvable orientation: evaluate as a filter, which
				// reports the unbound variable exactly as the seed
				// evaluator did.
				st.kind = stepFilter
				st.filter = compileFilter(cr, lit)
				boundSlots[cr.varSlots[target]] = true // mirror planBody's assumption
				break
			}
			st.kind = stepAssign
			st.assignSlot = cr.varSlots[target]
			st.assignSrc = compileOperand(cr, src)
			boundSlots[st.assignSlot] = true

		default:
			st.kind = stepFilter
			st.filter = compileFilter(cr, lit)
		}
		steps = append(steps, st)
	}
	return steps, nil
}

// unboundTarget reports the single unbound plain-variable the equality
// atom could bind, mirroring planBody's assignment placement.
func unboundTarget(cr *compiledRule, a CmpAtom, boundSlots []bool) (string, bool) {
	vars := map[string]bool{}
	a.collectVars(vars)
	target, n := "", 0
	for v := range vars {
		if !boundSlots[cr.varSlots[v]] {
			target = v
			n++
		}
	}
	if n != 1 {
		return "", false
	}
	for _, as := range a.assignments() {
		if as.target == target {
			return target, true
		}
	}
	return "", false
}

// assignSource picks the first assignment orientation whose target is the
// given variable and whose source operand is fully bound.
func assignSource(cr *compiledRule, a CmpAtom, target string, boundSlots []bool) (Operand, bool) {
	for _, as := range a.assignments() {
		if as.target != target {
			continue
		}
		srcVars := map[string]bool{}
		as.src.collectVars(srcVars)
		ok := true
		for v := range srcVars {
			if !boundSlots[cr.varSlots[v]] {
				ok = false
				break
			}
		}
		if ok {
			return as.src, true
		}
	}
	return Operand{}, false
}

// compileMemberLookahead finds later "elem ∈ V.entities" constraints whose
// element is a constant or an already-bound variable; at run time the
// first one resolving to an object reference selects the store's inverted
// entity index.
func (e *Engine) compileMemberLookahead(cr *compiledRule, r Rule, rest []int, classVar string, boundSlots []bool) []memberSpec {
	var specs []memberSpec
	for _, pos := range rest {
		m, ok := r.Body[pos].(MemberAtom)
		if !ok || len(m.Elems) == 0 {
			continue
		}
		if m.Set.Attr != object.AttrEntities || !m.Set.Term.IsVar() || m.Set.Term.Name() != classVar {
			continue
		}
		elem := m.Elems[0]
		if elem.Attr != "" {
			continue
		}
		if elem.Term.IsVar() {
			if !boundSlots[cr.varSlots[elem.Term.Name()]] {
				continue // unbound when the class atom runs; never usable
			}
			specs = append(specs, memberSpec{elem: compileOperand(cr, Operand{Term: elem.Term})})
		} else if !elem.Term.IsConcat() {
			specs = append(specs, memberSpec{elem: compileOperand(cr, Operand{Term: elem.Term})})
		}
	}
	return specs
}

// compileWindowLookahead finds a later solver-decidable guard that pins
// the enumerated interval's duration against a constant temporal value —
// the paper's frame-query shape "G.duration ⇒ (t > a ∧ t < b)" — and
// returns the constant's hull as a pushdown window. Only entailment
// qualifies: its semantics (every instant of G.duration satisfies the
// constant) guarantee that any satisfying nonempty duration lies within
// the hull, so the store's interval-tree scan over-approximates the guard
// (empty durations entail vacuously and are re-added by the executor).
func compileWindowLookahead(r Rule, rest []int, classVar string) *interval.Span {
	for _, pos := range rest {
		a, ok := r.Body[pos].(EntailAtom)
		if !ok {
			continue
		}
		if a.Left.Attr != object.AttrDuration || !a.Left.Term.IsVar() || a.Left.Term.Name() != classVar {
			continue
		}
		if a.Right.Attr != "" || a.Right.Term.IsVar() || a.Right.Term.IsConcat() {
			continue
		}
		rt, ok := a.Right.Term.Value().AsTemporal()
		if !ok || rt.IsEmpty() {
			continue
		}
		w := rt.Hull()
		return &w
	}
	return nil
}

// compileOperand resolves an operand's variable to its slot.
func compileOperand(cr *compiledRule, o Operand) opSpec {
	sp := opSpec{slot: -1, attr: o.Attr, src: o}
	switch {
	case o.Term.IsVar():
		sp.slot = cr.varSlots[o.Term.Name()]
	case o.Term.IsConcat():
		// Constructive terms never appear in bodies (Validate rejects
		// them); keep the null value so evaluation fails cleanly.
	default:
		sp.val = o.Term.Value()
	}
	return sp
}

// resolveOp resolves a compiled operand under the frame: the base value,
// then the attribute projection if any. A null result means "constraint
// cannot hold", matching resolveOperand.
func (e *Engine) resolveOp(sp opSpec, fr *frame) (object.Value, error) {
	var v object.Value
	if sp.slot >= 0 {
		if !fr.bound[sp.slot] {
			return object.Null(), fmt.Errorf("unbound variable %q in constraint operand %s", sp.src.Term.Name(), sp.src)
		}
		v = fr.vals[sp.slot]
	} else {
		v = sp.val
	}
	if sp.attr == "" {
		return v, nil
	}
	oid, isRef := v.AsRef()
	if !isRef {
		return object.Null(), nil
	}
	obj := e.Object(oid)
	if obj == nil {
		return object.Null(), nil
	}
	return obj.Attr(sp.attr), nil
}

// compileFilter builds the evaluator for a filter-position literal.
func compileFilter(cr *compiledRule, l Literal) filterFunc {
	switch a := l.(type) {
	case CmpAtom:
		left, right, op := compileOperand(cr, a.Left), compileOperand(cr, a.Right), a.Op
		return func(e *Engine, fr *frame) (bool, error) {
			lv, err := e.resolveOp(left, fr)
			if err != nil {
				return false, err
			}
			rv, err := e.resolveOp(right, fr)
			if err != nil {
				return false, err
			}
			return compareValues(lv, op, rv), nil
		}

	case MemberAtom:
		set := compileOperand(cr, a.Set)
		elems := make([]opSpec, len(a.Elems))
		for i, el := range a.Elems {
			elems[i] = compileOperand(cr, el)
		}
		return func(e *Engine, fr *frame) (bool, error) {
			sv, err := e.resolveOp(set, fr)
			if err != nil {
				return false, err
			}
			for _, el := range elems {
				ev, err := e.resolveOp(el, fr)
				if err != nil {
					return false, err
				}
				if !sv.ContainsElem(ev) {
					return false, nil
				}
			}
			return true, nil
		}

	case EntailAtom:
		left, right := compileOperand(cr, a.Left), compileOperand(cr, a.Right)
		return func(e *Engine, fr *frame) (bool, error) {
			// One budget step per check, so MaxSolverSteps and
			// cancellation still reach inside the filter.
			if err := e.spendSolver(1); err != nil {
				return false, err
			}
			lv, err := e.resolveOp(left, fr)
			if err != nil {
				return false, err
			}
			rv, err := e.resolveOp(right, fr)
			if err != nil {
				return false, err
			}
			lt, ok1 := lv.AsTemporal()
			rt, ok2 := rv.AsTemporal()
			if !ok1 || !ok2 {
				return false, nil
			}
			// Dense-order entailment between single-variable duration
			// constraints is generalized-interval containment (§4 Def. 2):
			// duration(lt) ⇒ duration(rt) iff lt ⊆ rt. The solver stays
			// the oracle in the differential tests.
			return rt.ContainsGen(lt), nil
		}

	case TemporalAtom:
		left, right, rel := compileOperand(cr, a.Left), compileOperand(cr, a.Right), a.Rel
		return func(e *Engine, fr *frame) (bool, error) {
			if err := e.spendSolver(1); err != nil {
				return false, err
			}
			lv, err := e.resolveOp(left, fr)
			if err != nil {
				return false, err
			}
			rv, err := e.resolveOp(right, fr)
			if err != nil {
				return false, err
			}
			lt, ok1 := lv.AsTemporal()
			rt, ok2 := rv.AsTemporal()
			if !ok1 || !ok2 {
				return false, nil
			}
			return evalTemporalRel(rel, lt, rt), nil
		}

	case NotAtom:
		atom := a.Atom
		args := make([]opSpec, len(atom.Args))
		for i, t := range atom.Args {
			args[i] = compileOperand(cr, Operand{Term: t})
		}
		return func(e *Engine, fr *frame) (bool, error) {
			tuple := make(row, len(args))
			for i, sp := range args {
				if sp.slot >= 0 {
					if !fr.bound[sp.slot] {
						return false, fmt.Errorf("unbound variable %q in negated atom %s", atom.Args[i].Name(), a)
					}
					tuple[i] = fr.vals[sp.slot]
				} else {
					tuple[i] = sp.val
				}
			}
			return !e.hasTuple(atom.Pred, tuple), nil
		}

	default:
		return func(e *Engine, fr *frame) (bool, error) {
			return false, fmt.Errorf("unexpected literal %T in filter position", l)
		}
	}
}

// match unifies a tuple against the step's compiled arguments, binding
// fresh slots in place. On failure the caller clears freshSlots (binding
// is idempotent to clear), so no undo list is allocated.
func (st *planStep) match(fr *frame, tuple row) bool {
	if len(tuple) != len(st.args) {
		return false // arity mismatch: the fact cannot unify
	}
	for k := range st.args {
		a := &st.args[k]
		if a.slot < 0 {
			if !a.val.Equal(tuple[k]) {
				return false
			}
			continue
		}
		if fr.bound[a.slot] {
			if !fr.vals[a.slot].Equal(tuple[k]) {
				return false
			}
			continue
		}
		fr.bind(a.slot, tuple[k])
	}
	return true
}

// matchIDs is match for a tuple that carries its interned value ids:
// fresh slots bind value and id together, so downstream index probes and
// head folds read the frame's id cache instead of the intern table.
// Equality checks are unchanged (ids are a cache, not a semantics); ids
// may be nil or short (rows from sources that don't carry them), in
// which case the affected slots bind lazily like match.
func (st *planStep) matchIDs(fr *frame, tuple row, ids []uint64) bool {
	if len(tuple) != len(st.args) {
		return false // arity mismatch: the fact cannot unify
	}
	withIDs := len(ids) == len(tuple)
	for k := range st.args {
		a := &st.args[k]
		if a.slot < 0 {
			if !a.val.Equal(tuple[k]) {
				return false
			}
			continue
		}
		if fr.bound[a.slot] {
			if !fr.vals[a.slot].Equal(tuple[k]) {
				return false
			}
			continue
		}
		if withIDs {
			fr.bindID(a.slot, tuple[k], ids[k])
		} else {
			fr.bind(a.slot, tuple[k])
		}
	}
	return true
}

// clearFresh unbinds the slots this step binds (backtracking).
func (st *planStep) clearFresh(fr *frame) {
	for _, s := range st.freshSlots {
		fr.unbind(s)
	}
}

// probeKey returns the join-index key for the argument at position k:
// precomputed for constants, cached per binding for variables.
func (st *planStep) probeKey(fr *frame, k int) string {
	a := &st.args[k]
	if a.slot < 0 {
		return a.key
	}
	return fr.key(a.slot)
}

// probeID is probeKey for interned (streaming) evaluation.
func (st *planStep) probeID(fr *frame, k int) uint64 {
	a := &st.args[k]
	if a.slot < 0 {
		return a.vid
	}
	return fr.id(a.slot)
}
