package datalog

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"videodb/internal/object"
	"videodb/internal/store"
)

// referenceQuery is the general answer algorithm every goal once took:
// unify each sorted row with the pattern, project the variables,
// deduplicate by rendered key, and sort the answers by that key. Query
// must agree with it, row for row and in order, on every goal whose
// answers render distinctly.
func referenceQuery(e *Engine, q RelAtom) ([]Result, error) {
	var varOrder []string
	seenVar := map[string]bool{}
	for _, t := range q.Args {
		if t.IsVar() && !seenVar[t.Name()] {
			seenVar[t.Name()] = true
			varOrder = append(varOrder, t.Name())
		}
	}
	rows, err := e.Rows(q.Pred)
	if err != nil {
		return nil, err
	}
	var out []Result
	seen := map[string]bool{}
	b := make(bindings)
	for _, tuple := range rows {
		if len(tuple) != len(q.Args) {
			continue
		}
		undo, ok := unifyArgs(q.Args, tuple, b)
		if ok {
			vals := make([]object.Value, len(varOrder))
			for i, v := range varOrder {
				vals[i] = b[v]
			}
			if k := RowKey(vals); !seen[k] {
				seen[k] = true
				out = append(out, Result{Values: vals})
			}
		}
		for _, v := range undo {
			delete(b, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return RowKey(out[i].Values) < RowKey(out[j].Values) })
	return out, nil
}

// oracleGoals derives goals over pred from its rows: the all-variable
// goal, one with the first column bound to a value that occurs, one
// bound to a value that does not, and — for binary and wider
// predicates — a repeated variable.
func oracleGoals(pred string, rows [][]object.Value) []RelAtom {
	if len(rows) == 0 {
		return []RelAtom{Rel(pred, Var("A"))}
	}
	arity := len(rows[0])
	vars := func(first Term) []Term {
		args := []Term{first}
		for i := 1; i < arity; i++ {
			args = append(args, Var(fmt.Sprintf("V%d", i)))
		}
		return args
	}
	goals := []RelAtom{
		Rel(pred, vars(Var("V0"))...),
		Rel(pred, vars(Const(rows[len(rows)/2][0]))...),
		Rel(pred, vars(Const(object.Str("absent")))...),
	}
	if arity >= 2 {
		args := vars(Var("V0"))
		args[1] = Var("V0")
		goals = append(goals, Rel(pred, args...))
		args = vars(Var("V0"))
		args[0], args[1] = args[1], args[0] // distinct variables, permuted
		goals = append(goals, Rel(pred, args...))
	}
	return goals
}

func sameResults(got, want []Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i].Values, want[i].Values
		if len(g) != len(w) {
			return fmt.Errorf("answer %d: arity %d, reference %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j].Kind() != w[j].Kind() || !g[j].Equal(w[j]) {
				return fmt.Errorf("answer %d: %s, reference %s", i, RowKey(g), RowKey(w))
			}
		}
	}
	return nil
}

// TestQueryMatchesReference is the oracle for Query's answer paths: over
// random instances — EDB and IDB predicates, recursive relations, ⊕
// created intervals — every goal shape (all-variable, permuted
// variables, bound, unmatched constant, repeated variable) answers
// exactly the reference's rows in the reference's order.
func TestQueryMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, p := randomInstance(r)
		e := mustEngine(t, s, p)
		preds := append([]string{"edge"}, p.IDB()...)
		for _, pred := range preds {
			rows, err := e.Rows(pred)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, q := range oracleGoals(pred, rows) {
				got, err := e.Query(q)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, q, err)
				}
				want, err := referenceQuery(e, q)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, q, err)
				}
				if err := sameResults(got, want); err != nil {
					t.Fatalf("seed %d ?- %s: %v", seed, q, err)
				}
			}
		}
	}
}

// TestQueryFastPathCoversCreated checks the oracle above is not vacuous
// where it matters most: some instance answers an all-variable goal
// over ⊕-created intervals with many rows.
func TestQueryFastPathCoversCreated(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		s, p := randomInstance(rand.New(rand.NewSource(seed)))
		e := mustEngine(t, s, p)
		res, err := e.Query(Rel("merged", Var("G")))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 1 && len(e.Created()) > 0 {
			return
		}
	}
	t.Fatal("no random instance answers merged(G) with created intervals")
}

// TestQueryKeepsDistinctValuesThatRenderAlike pins the answer semantics
// when two different values render the same key: Ref("1") and Num(1)
// both render as 1. The relation identifies tuples by their values, so
// an all-variable goal answers both, numbers before references
// (Value.Compare breaks the tie). The key-deduplicating general path
// merges them into one answer; so would the reference above.
func TestQueryKeepsDistinctValuesThatRenderAlike(t *testing.T) {
	s := store.New()
	s.AddFact(store.NewFact("a", object.Ref("1")))
	s.AddFact(store.NewFact("b", object.Num(1)))
	p := NewProgram(
		NewRule(Rel("p", Var("X")), Rel("a", Var("X"))),
		NewRule(Rel("p", Var("X")), Rel("b", Var("X"))),
	)
	e := mustEngine(t, s, p)
	res, err := e.Query(Rel("p", Var("X")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("p(X): %d answers %v, want Num(1) and Ref(1)", len(res), res)
	}
	if res[0].Values[0].Kind() != object.KindNumber || res[1].Values[0].Kind() != object.KindRef {
		t.Fatalf("p(X): kinds %s, %s; want number then ref",
			res[0].Values[0].Kind(), res[1].Values[0].Kind())
	}
	ref, err := referenceQuery(e, Rel("p", Var("X")))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 1 {
		t.Fatalf("reference: %d answers, want the one the key dedup keeps", len(ref))
	}
}
