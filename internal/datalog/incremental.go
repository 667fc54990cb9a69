package datalog

import (
	"context"
	"fmt"

	"videodb/internal/object"
	"videodb/internal/store"
)

// Incremental maintenance brings an engine's relations from the fixpoint
// of one database to the fixpoint after a net batch of extensional fact
// changes, without recomputing from scratch. Apply does it in place on
// an engine that has already run with RunAt:
//
//   - Deletions use delete-and-rederive (DRed). An over-deletion pass
//     marks every tuple with a derivation through a deleted fact
//     (evaluating rule bodies with the deletion delta in each position,
//     against the pre-batch extents). The marked tuples are removed in
//     place — swap-removal with key-set and join-index upkeep, no copy.
//     Then only they are re-proved: each rule runs a plan led by its
//     head's over-deleted tuples, against the reduced database, and a
//     tuple still stored as a fact comes back directly. Rederived tuples
//     propagate like insertions.
//   - Insertions propagate semi-naively: the inserted facts form the
//     first delta, and the standard rounds (reusing the compiled plans
//     and the join kernel) run to fixpoint.
//
// The EDB caches move from the pre-batch to the post-batch state by the
// batch itself, between the two. The method is restricted to programs
// this is sound for: positive (negation-free) and non-constructive —
// exactly the monotone fragment where the fixpoint is determined by the
// EDB and DRed's over-delete/rederive theorem applies. Callers fall back
// to a full recompute otherwise (core's maintained views and
// subscriptions do this automatically).

// Extension maps IDB predicates to tuples, in no particular order: the
// net change Apply reports. The tuples are shared, not copied — treat
// them as immutable.
type Extension map[string][][]object.Value

// FactDelta maps predicate names to tuples of extensional facts added or
// removed since the engine last saw the store. Deltas must be net: a
// fact both added and removed since must appear in neither map, an
// inserted fact must be new and a deleted one present — relative to the
// facts the engine last saw.
type FactDelta map[string][][]object.Value

// SupportsIncremental reports whether the program is in the fragment
// Apply maintains: positive (no negation) and non-constructive
// (no ⊕ in rule heads). Such programs are monotone in the EDB, which is
// what delete-and-rederive requires; they also always stratify into the
// single stratum 0.
func (p Program) SupportsIncremental() bool {
	for _, r := range p.Rules {
		if r.IsConstructive() {
			return false
		}
		for _, l := range r.Body {
			if _, ok := l.(NotAtom); ok {
				return false
			}
		}
	}
	return true
}

// Apply maintains an engine that has already run in place: it brings the
// relations from the fixpoint over the facts the engine last saw to the
// fixpoint after the net fact changes (ins, del), and returns the net
// change of every IDB predicate — plus holds the tuples that entered,
// minus those that left. The engine must have run with RunAt, so its
// EDB caches hold every extent its plans read;
// Apply brings them to the post-batch state from the batch itself and
// never reads the store's facts, so it cannot tear against concurrent
// writers. Deltas must be net against that state (see FactDelta).
//
// ctx bounds this call (nil: no cancellation). Apply must not run
// concurrently with any other call on the engine. On error the
// relations are undefined and further Apply calls fail: discard the
// engine. Stats afterwards describe this call's work.
func (e *Engine) Apply(ctx context.Context, ins, del FactDelta) (plus, minus Extension, err error) {
	switch {
	case !e.ran || e.runErr != nil:
		return nil, nil, fmt.Errorf("datalog: Apply needs an engine whose run succeeded")
	case !e.together:
		return nil, nil, fmt.Errorf("datalog: Apply needs an engine whose extents loaded together (RunAt), and none failed an Apply since")
	}
	if err := e.maintainable(); err != nil {
		return nil, nil, err
	}
	e.ctx = ctx
	e.stats = RunStats{}
	err = e.runGuarded(func() error {
		var err error
		plus, minus, err = e.applyBatch(deltaRows(ins), deltaRows(del))
		return err
	})
	if err != nil {
		e.together = false
		return nil, nil, err
	}
	return plus, minus, nil
}

// maintainable reports why the engine cannot be maintained
// incrementally, if it cannot.
func (e *Engine) maintainable() error {
	switch {
	case e.trace:
		return fmt.Errorf("datalog: incremental maintenance does not record provenance (use a fresh traced run)")
	case e.eager || e.naive:
		return fmt.Errorf("datalog: incremental maintenance requires the default semi-naive evaluator")
	case !e.prog.SupportsIncremental():
		return fmt.Errorf("datalog: program is outside the incrementally maintainable fragment (negation or constructive rules)")
	}
	return nil
}

// planKey names a plan incremental maintenance adds to a compiled rule.
type planKey struct{ rule, delta int }

// applyBatch is Apply's DRed body. On entry the relations hold the fixpoint over the pre-batch facts, and the
// EDB caches and base sets hold the pre-batch state.
func (e *Engine) applyBatch(insRows, delRows map[string][]row) (plus, minus Extension, err error) {
	e.compileIncPlans()

	// Phase 1: DRed over-deletion against the pre-batch state.
	deleted, err := e.overDelete(delRows)
	if err != nil {
		return nil, nil, err
	}

	// Phase 2: remove the over-deleted tuples in place, keeping the
	// relation's own rows and ids: they are the rederivation candidates.
	// Everything after this only appends, so rows[kept:] is what the rest
	// of the batch adds.
	removed := make(map[string][]row, len(e.delTuples))
	removedIDs := make(map[string][][]uint64, len(e.delTuples))
	for pred, ts := range e.delTuples {
		rel := e.derived[pred]
		for _, t := range ts {
			own, ids := rel.removeRow(t)
			if own == nil {
				continue
			}
			removed[pred] = append(removed[pred], own)
			if ids != nil {
				removedIDs[pred] = append(removedIDs[pred], ids)
			}
		}
	}
	e.delSet, e.delTuples = nil, nil
	kept := make(map[string]int, len(e.derived))
	for pred, rel := range e.derived {
		kept[pred] = len(rel.rows)
	}

	// The EDB caches and stored IDB facts move to the post-batch state;
	// every later join reads it.
	e.shiftEDB(insRows, delRows)

	// Phase 3: rederive. Each over-deleted tuple is re-proved against the
	// reduced extents: a rule whose head lost tuples runs its rederivation
	// plan, led by those tuples (read as the head relation's delta), and a
	// tuple still stored as a fact comes back directly. Rederived tuples
	// become deltas at the next round boundary and propagate like
	// insertions.
	for pred, ts := range removed {
		rel := e.derived[pred]
		rel.delta, rel.deltaVids = ts, nil
		if len(removedIDs[pred]) == len(ts) {
			rel.deltaVids = removedIDs[pred]
		}
	}
	for ri, r := range e.prog.Rules {
		if len(removed[r.Head.Pred]) > 0 {
			if err := e.evalRule(ri, rederivePos); err != nil {
				return nil, nil, err
			}
		}
	}
	for pred, ts := range removed {
		if b := e.base[pred]; b != nil {
			rel := e.derived[pred]
			for _, t := range ts {
				if b.has(t) {
					rel.propose(t)
				}
			}
		}
	}

	// Phase 4: insertion propagation. Inserted facts on IDB predicates
	// join the proposals; inserted facts on extensional predicates form
	// one EDB delta round. From there the standard semi-naive rounds run
	// to fixpoint.
	for pred, rows := range insRows {
		if rel, ok := e.derived[pred]; ok {
			for _, t := range rows {
				rel.propose(t)
			}
		}
	}
	e.advance()
	e.edbDelta = make(map[string][]row)
	for pred, rows := range insRows {
		if !e.idb[pred] && len(rows) > 0 {
			e.edbDelta[pred] = rows
		}
	}
	var round1 []evalTask
	for ri, r := range e.prog.Rules {
		for pos, l := range r.Body {
			a, ok := l.(RelAtom)
			if !ok {
				continue
			}
			n := 0
			if e.idb[a.Pred] {
				n = len(e.derived[a.Pred].delta)
			} else {
				n = len(e.edbDelta[a.Pred])
			}
			if n > 0 {
				round1 = append(round1, evalTask{ruleIdx: ri, delta: pos})
			}
		}
	}
	changed := false
	if len(round1) > 0 {
		changed, err = e.runRound(round1, 0, false)
	}
	e.edbDelta = nil
	if err != nil {
		return nil, nil, err
	}
	for changed {
		var tasks []evalTask
		for ri, r := range e.prog.Rules {
			for _, p := range e.deltaPositionsIn(r, 0) {
				tasks = append(tasks, evalTask{ruleIdx: ri, delta: p})
			}
		}
		if changed, err = e.runRound(tasks, 0, true); err != nil {
			return nil, nil, err
		}
	}

	// The net change: appended tuples that were not over-deleted entered;
	// removed tuples that did not come back left.
	plus, minus = make(Extension), make(Extension)
	for pred, rel := range e.derived {
		dels := deleted[pred]
		for _, t := range rel.rows[kept[pred]:] {
			if dels == nil || !dels.has(t) {
				plus[pred] = append(plus[pred], t)
			}
		}
		for _, t := range removed[pred] {
			if !rel.keys.has(t) {
				minus[pred] = append(minus[pred], t)
			}
		}
	}
	return plus, minus, nil
}

// compileIncPlans compiles, once per engine, the plans maintenance adds
// to the compiled rules: each extensional body position taking a delta
// (compiled plans cover the IDB ones), and each rule's rederivation plan.
// They live on the engine, not the compiled rules other engines share.
// A rule that failed to compile
// keeps no plan here, so evalRule surfaces its error.
func (e *Engine) compileIncPlans() {
	if e.incPlans != nil {
		return
	}
	e.incPlans = make(map[planKey][]planStep)
	for ri, r := range e.prog.Rules {
		cr := e.compiled[ri]
		if cr == nil {
			continue
		}
		positions := []int{rederivePos}
		for pos, l := range r.Body {
			if a, ok := l.(RelAtom); ok && !e.idb[a.Pred] {
				positions = append(positions, pos)
			}
		}
		for _, pos := range positions {
			if _, ok := cr.plans[pos]; ok {
				continue
			}
			if steps, err := e.compilePlan(cr, r, pos); err == nil {
				e.incPlans[planKey{ri, pos}] = steps
			}
		}
	}
}

// loadExtents loads every extensional extent a run can read: the whole
// relation of each extensional predicate a rule body (negated included)
// or registered goal mentions, and each constant-filtered scan the
// executor pushes down, recorded in edbScans so maintenance reaches it.
// Runs before any evaluation, so nothing is cached yet.
func (e *Engine) loadExtents() {
	e.warmEDBCaches()
	for _, r := range e.prog.Rules {
		for _, l := range r.Body {
			a, ok := l.(RelAtom)
			if !ok || e.idb[a.Pred] {
				continue
			}
			sig, binds := constScan(a)
			if sig == "" {
				continue
			}
			if _, ok := e.edbCache[sig]; ok {
				continue
			}
			if e.edbScans == nil {
				e.edbScans = make(map[string][]edbScan)
			}
			rel := e.scanFiltered(a.Pred, sig, binds)
			e.edbScans[a.Pred] = append(e.edbScans[a.Pred], edbScan{rel: rel, binds: binds})
		}
	}
}

// warmEDBCaches loads the rows of every extensional predicate a rule
// body or registered query goal reads, and the negation key sets of
// negated extensional predicates.
func (e *Engine) warmEDBCaches() {
	for _, r := range e.prog.Rules {
		for _, l := range r.Body {
			switch a := l.(type) {
			case RelAtom:
				if !e.idb[a.Pred] {
					e.edbRows(a.Pred)
				}
			case NotAtom:
				if !e.idb[a.Atom.Pred] {
					e.hasTuple(a.Atom.Pred, nil)
				}
			}
		}
	}
	e.warmGoalPreds()
}

// edbScan is one constant-filtered EDB cache: the relation and the
// bindings its facts match.
type edbScan struct {
	rel   *relation
	binds []store.ArgBind
}

// loadBase records the stored facts of each IDB predicate that has any:
// DRed rederives an over-deleted tuple that is still a stored fact.
func (e *Engine) loadBase() {
	for pred := range e.derived {
		if e.src.FactCount(pred) == 0 {
			continue
		}
		facts := e.src.Facts(pred)
		set := newKeySet(e.in, len(facts))
		for _, f := range facts {
			set.add(row(f.Args))
		}
		if e.base == nil {
			e.base = make(map[string]*keySet)
		}
		e.base[pred] = &set
	}
}

// shiftEDB moves the EDB caches and the stored IDB facts by one batch:
// the rows of drop leave, the rows of add enter, in place: Apply shifts
// them to the post-batch state.
func (e *Engine) shiftEDB(add, drop map[string][]row) {
	shift := func(pred string, add, drop []row) {
		if e.idb[pred] {
			b := e.base[pred]
			for _, t := range drop {
				if b != nil {
					b.remove(t)
				}
			}
			for _, t := range add {
				if b == nil {
					ns := newKeySet(e.in, len(add))
					b = &ns
					if e.base == nil {
						e.base = make(map[string]*keySet)
					}
					e.base[pred] = b
				}
				b.add(t)
			}
			return
		}
		if rel, ok := e.edbCache[pred]; ok {
			for _, t := range drop {
				rel.removeRow(t)
			}
			for _, t := range add {
				rel.appendRow(t, nil)
			}
		}
		for _, sc := range e.edbScans[pred] {
			for _, t := range drop {
				if (store.Fact{Args: t}).Matches(sc.binds) {
					sc.rel.removeRow(t)
				}
			}
			for _, t := range add {
				if (store.Fact{Args: t}).Matches(sc.binds) {
					sc.rel.appendRow(t, nil)
				}
			}
		}
		delete(e.edbKeys, pred)
	}
	for pred, rows := range drop {
		shift(pred, add[pred], rows)
	}
	for pred, rows := range add {
		if _, done := drop[pred]; !done {
			shift(pred, rows, nil)
		}
	}
}

// overDelete runs the DRed over-deletion pass: starting from the deleted
// base facts, it iterates "which maintained tuples have a one-step
// derivation through the current deletion delta" to fixpoint, against
// the pre-batch extents (relations still hold the full prior extension;
// changed EDB predicates are pinned to their pre-batch rows). Returns
// the per-predicate key sets of over-deleted tuples.
func (e *Engine) overDelete(delRows map[string][]row) (map[string]*keySet, error) {
	e.delMode = true
	e.delSet = make(map[string]*keySet)
	e.delTuples = make(map[string][]row)
	defer func() {
		e.delMode = false
		e.delNext = nil
		e.edbDelta = nil
	}()

	// Seed deltas. A deleted fact on an IDB predicate is itself part of
	// the maintained extent and loses its base support outright.
	cur := make(map[string][]row)
	for pred, rows := range delRows {
		if !e.idb[pred] {
			if len(rows) > 0 {
				cur[pred] = rows
			}
			continue
		}
		rel := e.derived[pred]
		set := e.delSet[pred]
		if set == nil {
			ns := newKeySet(e.in, len(rows))
			set = &ns
			e.delSet[pred] = set
		}
		for _, t := range rows {
			if rel.keys.has(t) && set.add(t) {
				cur[pred] = append(cur[pred], t)
				e.delTuples[pred] = append(e.delTuples[pred], t)
			}
		}
		if len(cur[pred]) == 0 {
			delete(cur, pred)
		}
	}

	for len(cur) > 0 {
		if err := e.checkCancel(); err != nil {
			return nil, err
		}
		e.stats.Rounds++
		e.edbDelta = make(map[string][]row)
		for pred, rows := range cur {
			if e.idb[pred] {
				// The deletion delta replaces the relation's own: drop the
				// carried ids so the executor re-interns lazily rather than
				// reading ids aligned with the displaced delta.
				e.derived[pred].delta, e.derived[pred].deltaVids = rows, nil
			} else {
				e.edbDelta[pred] = rows
			}
		}
		e.delNext = make(map[string][]row)
		for ri, r := range e.prog.Rules {
			for pos, l := range r.Body {
				if a, ok := l.(RelAtom); ok && len(cur[a.Pred]) > 0 {
					if err := e.evalRule(ri, pos); err != nil {
						return nil, err
					}
				}
			}
		}
		for pred := range cur {
			if e.idb[pred] {
				e.derived[pred].delta, e.derived[pred].deltaVids = nil, nil
			}
		}
		cur = e.delNext
		e.delNext = nil
		e.publishStats()
	}
	return e.delSet, nil
}

// deltaRows converts a FactDelta to internal rows, dropping empty
// entries.
func deltaRows(d FactDelta) map[string][]row {
	out := make(map[string][]row, len(d))
	for pred, tuples := range d {
		if len(tuples) == 0 {
			continue
		}
		rows := make([]row, len(tuples))
		for i, t := range tuples {
			rows[i] = row(t)
		}
		out[pred] = rows
	}
	return out
}
