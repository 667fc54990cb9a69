package datalog

import (
	"fmt"

	"videodb/internal/object"
)

// Result is one answer to a query: the tuple of values matching the query
// atom's argument positions.
type Result struct {
	Values []object.Value
}

// String renders the result tuple.
func (r Result) String() string { return RowKey(r.Values) }

// noteGoal registers a query-goal predicate. Goals registered before Run
// are pre-warmed into the EDB cache (warmGoalPreds); goals that appear
// only later fall back to the locked accessor below.
func (e *Engine) noteGoal(pred string) {
	e.goalMu.Lock()
	e.goalPreds[pred] = true
	e.goalMu.Unlock()
}

// edbRowsShared reads EDB rows under the goal lock: queries may run
// concurrently once Run has completed, and a goal predicate that was not
// pre-warmed must not lazily write the shared cache unsynchronized.
func (e *Engine) edbRowsShared(pred string) []row {
	e.goalMu.Lock()
	defer e.goalMu.Unlock()
	return e.edbRows(pred)
}

// Rows returns every tuple of the predicate (extensional facts plus
// derived tuples) in canonical order, computing the fixpoint first if
// necessary.
func (e *Engine) Rows(pred string) ([][]object.Value, error) {
	e.noteGoal(pred)
	if err := e.Run(); err != nil {
		return nil, err
	}
	rows := SortRows(e.relRows(pred))
	n := 0
	for _, t := range rows {
		n += len(t)
	}
	slab := make([]object.Value, 0, n)
	out := make([][]object.Value, len(rows))
	for i, t := range rows {
		slab = append(slab, t...)
		out[i] = slab[len(slab)-len(t) : len(slab) : len(slab)]
	}
	return out, nil
}

// Tuples returns the derived relation of pred (its stored facts
// included) in the relation's own order, and whether the program derives
// pred at all. The slice is a copy; the tuples are shared with the
// engine, which never mutates a tuple in place — treat them as
// immutable. Call it after the run, never concurrently with Apply.
func (e *Engine) Tuples(pred string) ([][]object.Value, bool) {
	rel, ok := e.derived[pred]
	if !ok {
		return nil, false
	}
	out := make([][]object.Value, len(rel.rows))
	for i, t := range rel.rows {
		out[i] = t
	}
	return out, true
}

// Query answers a query ?q(s) (Definition 13): the pattern's constants
// must match and its variables are projected out. Repeated variables in
// the pattern enforce equality. Results are distinct tuples of the
// pattern's variable bindings in first-occurrence order, canonically
// sorted.
//
// When the pattern's arguments are pairwise-distinct variables the
// relation's sorted tuples already are that answer: the relation holds
// each tuple once and the projection is the identity. Every other
// pattern unifies, deduplicates and sorts.
func (e *Engine) Query(q RelAtom) ([]Result, error) {
	e.noteGoal(q.Pred)
	if err := e.Run(); err != nil {
		return nil, err
	}
	for _, t := range q.Args {
		if t.IsConcat() {
			return nil, fmt.Errorf("datalog: constructive terms are not allowed in queries")
		}
	}
	if q.DistinctVars() {
		return e.answerAll(q.Pred, len(q.Args)), nil
	}
	var varOrder []string
	seenVar := map[string]bool{}
	for _, t := range q.Args {
		if t.IsVar() && !seenVar[t.Name()] {
			seenVar[t.Name()] = true
			varOrder = append(varOrder, t.Name())
		}
	}

	var out []row
	seen := map[string]bool{}
	b := make(bindings)
	for _, tuple := range e.relRows(q.Pred) {
		if len(tuple) != len(q.Args) {
			continue
		}
		undo, ok := unifyArgs(q.Args, tuple, b)
		if ok {
			vals := make(row, len(varOrder))
			for i, v := range varOrder {
				vals[i] = b[v]
			}
			if k := RowKey(vals); !seen[k] {
				seen[k] = true
				out = append(out, vals)
			}
		}
		for _, v := range undo {
			delete(b, v)
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	out = SortRows(out)
	res := make([]Result, len(out))
	for i, t := range out {
		res[i] = Result{Values: t}
	}
	return res, nil
}

// relRows returns the predicate's tuples (extensional facts plus derived
// tuples) in the relation's own order. The tuples are the relation's:
// callers copy before handing them out.
func (e *Engine) relRows(pred string) []row {
	if rel, ok := e.derived[pred]; ok {
		return rel.rows // EDB facts were seeded into the relation
	}
	return e.edbRowsShared(pred)
}

// answerAll is Query for a pattern of arity pairwise-distinct variables:
// the predicate's sorted tuples of that arity, copied into one backing
// slab.
func (e *Engine) answerAll(pred string, arity int) []Result {
	rows := SortRows(e.relRows(pred))
	if len(rows) == 0 {
		return nil
	}
	out := make([]Result, 0, len(rows))
	slab := make([]object.Value, 0, len(rows)*arity)
	for _, t := range rows {
		if len(t) != arity {
			continue
		}
		slab = append(slab, t...)
		out = append(out, Result{Values: slab[len(slab)-arity : len(slab) : len(slab)]})
	}
	return out
}

// QueryOIDs runs Query and extracts single-column object references,
// failing if the query has a different shape.
func (e *Engine) QueryOIDs(q RelAtom) ([]object.OID, error) {
	res, err := e.Query(q)
	if err != nil {
		return nil, err
	}
	out := make([]object.OID, 0, len(res))
	for _, r := range res {
		if len(r.Values) != 1 {
			return nil, fmt.Errorf("datalog: QueryOIDs needs a single-variable query, got %d columns", len(r.Values))
		}
		oid, ok := r.Values[0].AsRef()
		if !ok {
			return nil, fmt.Errorf("datalog: QueryOIDs: non-reference answer %s", r.Values[0])
		}
		out = append(out, oid)
	}
	return out, nil
}

// Ask reports whether the (possibly ground) query has at least one
// answer.
func (e *Engine) Ask(q RelAtom) (bool, error) {
	res, err := e.Query(q)
	if err != nil {
		return false, err
	}
	return len(res) > 0, nil
}
