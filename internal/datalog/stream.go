package datalog

import (
	"fmt"

	"videodb/internal/object"
	"videodb/internal/store"
)

// Streaming execution: the engine pulls tuples through a rule's compiled
// plan with composable iterator operators. Each plan step becomes an
// operator with open/next/close behavior over a shared frame:
//
//   scan/index-probe (stepRel)   — cursor over an extent, delta, or a
//                                  constant-pushdown store scan, probing
//                                  the interned join index when bound
//                                  positions make it selective;
//   class enumeration            — cursor over the class's candidate
//                                  oids, narrowed by the entity index or
//                                  a pushed interval window;
//   check/assign/filter          — one-shot operators that pass or fail
//                                  the current binding.
//
// The pipeline is demand-driven: a tuple flows to the head as soon as
// every operator accepts it, so no per-literal intermediate relation is
// materialized, and cancellation (tick) cuts mid-stream. The
// differential oracle (TestEngineMatchesReference) holds its fixpoints to
// the reference evaluator's.

// opState is the runtime state of one operator.
type opState struct {
	step *planStep

	// stepRel cursor
	rows   []row
	vids   [][]uint64 // carried value ids, aligned with rows (may be nil)
	ids    []int      // posting list when probing the join index
	one    [1]int     // backing of a one-row exact lookup
	useIDs bool
	i      int

	// stepClassEnum cursor
	oids []object.OID

	// one-shot operators
	done bool
}

// runPipeline evaluates one (rule, delta) task by pulling tuples through
// the compiled steps.
func (e *Engine) runPipeline(cr *compiledRule, steps []planStep, fr *frame) error {
	n := len(steps)
	if n == 0 {
		return e.fireHead(cr, fr)
	}
	ops := make([]opState, n)
	for i := range ops {
		ops[i].step = &steps[i]
	}
	d := 0
	e.openOp(&ops[0], fr)
	for d >= 0 {
		ok, err := e.nextOp(cr, &ops[d], fr)
		if err != nil {
			return err
		}
		if !ok {
			d--
			continue
		}
		if d == n-1 {
			if err := e.fireHead(cr, fr); err != nil {
				return err
			}
			continue
		}
		d++
		e.openOp(&ops[d], fr)
	}
	return nil
}

// openOp (re)initializes an operator for the current outer binding.
func (e *Engine) openOp(op *opState, fr *frame) {
	st := op.step
	op.i = 0
	op.done = false
	op.useIDs = false
	op.ids = nil
	switch st.kind {
	case stepRel:
		var rows []row
		var vids [][]uint64
		var rel *relation
		probes := st.probes
		if st.constSig != "" && !st.useDelta && !e.idb[st.pred] {
			// Constant pushdown: scan the store once with the constant
			// bindings applied inside its lock, and cache the (much
			// smaller) result relation; only variable-bound positions are
			// probe candidates on it.
			rel = e.edbFiltered(st)
			rows, vids = rel.rows, rel.vids
			probes = st.varProbes
		} else {
			rows, vids, rel = e.relAccessIDs(st.pred, st.useDelta)
		}
		op.rows, op.vids = rows, vids
		if st.exact && rel != nil {
			// Rederivation probes one fully bound tuple: look it up by key
			// (serial, so the cache may build its key positions here).
			rel.locate()
			op.ids = op.one[:0]
			if i, ok := rel.exactRow(st, fr); ok {
				op.ids = append(op.ids, i)
			}
			op.useIDs = true
		} else if e.useJoinIndex && rel != nil && len(rows) >= 16 && len(probes) > 0 {
			// Probe every bound position and scan the most selective
			// (shortest) posting list.
			var ids []int
			for pi, k := range probes {
				cand := rel.lookup64(k, st.probeID(fr, k))
				if pi == 0 || len(cand) < len(ids) {
					ids = cand
					if len(ids) == 0 {
						break
					}
				}
			}
			op.ids = ids
			op.useIDs = true
		}

	case stepClassEnum:
		op.oids = e.classEnumCandidates(st, fr)
	}
}

// nextOp advances an operator; it reports whether a new binding is
// available. Exhausted operators restore the frame (unbinding what they
// bound) before reporting false, so the caller just pops to the previous
// operator.
func (e *Engine) nextOp(cr *compiledRule, op *opState, fr *frame) (bool, error) {
	st := op.step
	switch st.kind {
	case stepRel:
		for {
			var t row
			var tids []uint64
			if op.useIDs {
				if op.i >= len(op.ids) {
					st.clearFresh(fr)
					return false, nil
				}
				ri := op.ids[op.i]
				t = op.rows[ri]
				if ri < len(op.vids) {
					tids = op.vids[ri]
				}
			} else {
				if op.i >= len(op.rows) {
					st.clearFresh(fr)
					return false, nil
				}
				if op.i < len(op.vids) {
					tids = op.vids[op.i]
				}
				t = op.rows[op.i]
			}
			op.i++
			if err := e.tick(); err != nil {
				return false, err
			}
			st.clearFresh(fr)
			if st.matchIDs(fr, t, tids) {
				return true, nil
			}
		}

	case stepClassEnum:
		slot := st.classArg.slot
		if op.i >= len(op.oids) {
			fr.unbind(slot)
			return false, nil
		}
		if err := e.tick(); err != nil {
			return false, err
		}
		fr.bind(slot, object.Ref(op.oids[op.i]))
		op.i++
		return true, nil

	case stepClassCheck:
		if op.done {
			return false, nil
		}
		op.done = true
		v := st.classArg.val
		if st.classArg.slot >= 0 {
			v = fr.vals[st.classArg.slot]
		}
		return e.isKind(v, st.classKind), nil

	case stepAssign:
		if op.done {
			fr.unbind(st.assignSlot)
			return false, nil
		}
		op.done = true
		v, err := e.resolveOp(st.assignSrc, fr)
		if err != nil {
			return false, fmt.Errorf("datalog: rule %s: %w", cr.rule.label(), err)
		}
		if v.IsNull() {
			return false, nil // undefined attribute: the atom cannot hold
		}
		fr.bind(st.assignSlot, v)
		return true, nil

	default: // stepFilter
		if op.done {
			return false, nil
		}
		op.done = true
		ok, err := st.filter(e, fr)
		if err != nil {
			return false, fmt.Errorf("datalog: rule %s: %w", cr.rule.label(), err)
		}
		return ok, nil
	}
}

// edbFiltered returns the extensional relation restricted to the step's
// constant arguments, scanned through the store's pushdown API and cached
// under the step's constant signature.
func (e *Engine) edbFiltered(st *planStep) *relation {
	if rel, ok := e.edbCache[st.constSig]; ok {
		return rel
	}
	return e.scanFiltered(st.pred, st.constSig, st.constBinds)
}

// scanFiltered scans the facts of pred matching binds into a relation
// and caches it under sig.
func (e *Engine) scanFiltered(pred, sig string, binds []store.ArgBind) *relation {
	rel := newRelation(e.in)
	e.src.ScanFacts(pred, binds, func(f store.Fact) bool {
		rel.rows = append(rel.rows, row(f.Args))
		rel.vids = append(rel.vids, vidsOf(row(f.Args)))
		return true
	})
	e.edbCache[sig] = rel
	return rel
}
