package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"videodb/internal/object"
	"videodb/internal/store"
)

// closureProgram is the transitive-closure program used throughout the
// incremental tests: reach is recursive, hop2 a non-recursive join.
func closureProgram() Program {
	return NewProgram(
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("Y"), Var("Z"))),
		NewRule(Rel("hop2", Var("X"), Var("Z")),
			Rel("edge", Var("X"), Var("Y")), Rel("edge", Var("Y"), Var("Z"))),
	)
}

func edgeFact(a, b string) store.Fact {
	return store.NewFact("edge", object.Str(a), object.Str(b))
}

// runFull evaluates the program from scratch on the store's current
// contents and returns the engine.
func runFull(t *testing.T, s *store.Store, p Program, opts ...Option) *Engine {
	t.Helper()
	e := mustEngine(t, s, p, opts...)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

// runAt evaluates the program with RunAt, so Apply can maintain it.
func runAt(t *testing.T, s *store.Store, p Program, opts ...Option) *Engine {
	t.Helper()
	e := mustEngine(t, s, p, opts...)
	if err := e.RunAt(nil); err != nil {
		t.Fatal(err)
	}
	return e
}

// mustApply applies a net batch, failing the test on error.
func mustApply(t *testing.T, e *Engine, ins, del FactDelta) {
	t.Helper()
	if _, _, err := e.Apply(context.Background(), ins, del); err != nil {
		t.Fatal(err)
	}
}

// assertSameRows compares every IDB predicate of two engines.
func assertSameRows(t *testing.T, p Program, got, want *Engine, label string) {
	t.Helper()
	for _, pred := range p.IDB() {
		g, err1 := got.Rows(pred)
		w, err2 := want.Rows(pred)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v %v", label, err1, err2)
		}
		gk := make([]string, len(g))
		wk := make([]string, len(w))
		for i, r := range g {
			gk[i] = RowKey(r)
		}
		for i, r := range w {
			wk[i] = RowKey(r)
		}
		sort.Strings(gk)
		sort.Strings(wk)
		if len(gk) != len(wk) {
			t.Fatalf("%s: %s has %d tuples, want %d\ngot  %v\nwant %v",
				label, pred, len(gk), len(wk), gk, wk)
		}
		for i := range gk {
			if gk[i] != wk[i] {
				t.Fatalf("%s: %s row %d: got %q want %q", label, pred, i, gk[i], wk[i])
			}
		}
	}
}

func TestIncrementalInsertPropagates(t *testing.T) {
	s := store.New()
	s.AddFact(edgeFact("a", "b"))
	s.AddFact(edgeFact("b", "c"))
	p := closureProgram()

	inc := runAt(t, s, p)

	// Insert an edge that extends every chain: d closes c→d and opens
	// transitive reach from a, b, c.
	s.AddFact(edgeFact("c", "d"))
	mustApply(t, inc, FactDelta{"edge": {{object.Str("c"), object.Str("d")}}}, nil)
	assertSameRows(t, p, inc, runFull(t, s, p), "insert")

	rows, err := inc.Rows("reach")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // ab ac ad bc bd cd
		t.Fatalf("reach has %d tuples, want 6", len(rows))
	}
}

func TestIncrementalDeleteRederivesDiamond(t *testing.T) {
	// Diamond a→b→d, a→c→d: deleting b→d over-deletes reach(a,d) and
	// reach(b,d), but reach(a,d) must be rederived through c.
	s := store.New()
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		s.AddFact(edgeFact(e[0], e[1]))
	}
	p := closureProgram()
	inc := runAt(t, s, p)

	if !s.DeleteFact(edgeFact("b", "d")) {
		t.Fatal("delete failed")
	}
	mustApply(t, inc, nil, FactDelta{"edge": {{object.Str("b"), object.Str("d")}}})
	assertSameRows(t, p, inc, runFull(t, s, p), "diamond delete")

	res, err := inc.Query(Rel("reach", Const(object.Str("a")), Const(object.Str("d"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("reach(a,d) lost despite alternative derivation through c")
	}
	res, err = inc.Query(Rel("reach", Const(object.Str("b")), Const(object.Str("d"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("reach(b,d) survived though its only derivation was deleted")
	}
}

func TestIncrementalDeleteCascades(t *testing.T) {
	// Chain a→b→c→d: deleting a→b must cascade away reach(a,*).
	s := store.New()
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		s.AddFact(edgeFact(e[0], e[1]))
	}
	p := closureProgram()
	inc := runAt(t, s, p)

	s.DeleteFact(edgeFact("a", "b"))
	mustApply(t, inc, nil, FactDelta{"edge": {{object.Str("a"), object.Str("b")}}})
	assertSameRows(t, p, inc, runFull(t, s, p), "cascade delete")

	rows, err := inc.Rows("reach")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[0].String() == object.Str("a").String() {
			t.Fatalf("reach(a,%s) survived the cascade", r[1])
		}
	}
}

func TestIncrementalMixedBatch(t *testing.T) {
	// A batch with both kinds: delete b→c, insert b→e and e→c. The
	// closure is the same set of sources but rerouted through e.
	s := store.New()
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		s.AddFact(edgeFact(e[0], e[1]))
	}
	p := closureProgram()
	inc := runAt(t, s, p)

	s.DeleteFact(edgeFact("b", "c"))
	s.AddFact(edgeFact("b", "e"))
	s.AddFact(edgeFact("e", "c"))
	ins := FactDelta{"edge": {{object.Str("b"), object.Str("e")}, {object.Str("e"), object.Str("c")}}}
	del := FactDelta{"edge": {{object.Str("b"), object.Str("c")}}}
	mustApply(t, inc, ins, del)
	assertSameRows(t, p, inc, runFull(t, s, p), "mixed batch")
}

// TestIncrementalRandomOracle is the differential oracle at the datalog
// layer: on random graphs and random mutation batches, incremental
// maintenance must agree with from-scratch evaluation.
func TestIncrementalRandomOracle(t *testing.T) {
	p := closureProgram()
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := store.New()
		nodes := make([]string, 4+r.Intn(5))
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%d", i)
		}
		present := make(map[[2]string]bool)
		addRandom := func() ([2]string, bool) {
			e := [2]string{nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]}
			if present[e] {
				return e, false
			}
			s.AddFact(edgeFact(e[0], e[1]))
			present[e] = true
			return e, true
		}
		for i := 0; i < 8+r.Intn(8); i++ {
			addRandom()
		}

		inc := runAt(t, s, p)
		before := make(map[[2]string]bool, len(present))
		for e := range present {
			before[e] = true
		}

		// Random mutations: each either inserts a missing edge or deletes
		// a present one. The same edge may flip twice (add then delete or
		// vice versa) — the net delta below must cancel those out, which
		// is exactly the contract FactDelta states.
		for i := 0; i < 1+r.Intn(6); i++ {
			if r.Intn(2) == 0 || len(present) == 0 {
				addRandom()
				continue
			}
			var keys [][2]string
			for e := range present {
				keys = append(keys, e)
			}
			sort.Slice(keys, func(i, j int) bool {
				return keys[i][0]+keys[i][1] < keys[j][0]+keys[j][1]
			})
			e := keys[r.Intn(len(keys))]
			s.DeleteFact(edgeFact(e[0], e[1]))
			delete(present, e)
		}

		// Net delta = symmetric difference of the before/after edge sets.
		ins := FactDelta{}
		del := FactDelta{}
		for e := range present {
			if !before[e] {
				ins["edge"] = append(ins["edge"], []object.Value{object.Str(e[0]), object.Str(e[1])})
			}
		}
		for e := range before {
			if !present[e] {
				del["edge"] = append(del["edge"], []object.Value{object.Str(e[0]), object.Str(e[1])})
			}
		}

		if _, _, err := inc.Apply(context.Background(), ins, del); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertSameRows(t, p, inc, runFull(t, s, p), fmt.Sprintf("seed %d", seed))
	}
}

// The incremental fragment's guards: programs with negation or a ⊕ head
// run with RunAt but Apply refuses to maintain them, and a canceled
// initial RunAt surfaces as ErrCanceled and leaves nothing to maintain.
func TestRunIncrementalGuards(t *testing.T) {
	s := store.New()
	s.AddFact(edgeFact("a", "b"))
	p := closureProgram()

	// Negation and ⊕ heads are outside the fragment.
	neg := NewProgram(
		NewRule(Rel("lonely", Var("X")), Rel("edge", Var("X"), Var("Y")),
			Not(Rel("edge", Var("Y"), Var("X")))),
	)
	cons := NewProgram(
		NewRule(Rel("joined", Concat(Var("G1"), Var("G2"))),
			Rel("edge", Var("G1"), Var("G2")), Interval(Var("G1")), Interval(Var("G2"))),
	)
	for _, out := range []struct {
		label string
		p     Program
	}{{"negation", neg}, {"constructive head", cons}} {
		if out.p.SupportsIncremental() {
			t.Fatalf("%s reported as incrementally maintainable", out.label)
		}
		e := mustEngine(t, s, out.p)
		if err := e.RunAt(nil); err != nil {
			t.Fatalf("%s: %v", out.label, err)
		}
		if _, _, err := e.Apply(context.Background(), FactDelta{"edge": {{object.Str("b"), object.Str("a")}}}, nil); err == nil {
			t.Fatalf("Apply accepted a program with a %s", out.label)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ce := mustEngine(t, s, p, WithContext(ctx))
	if err := ce.RunAt(nil); !IsCanceled(err) {
		t.Fatalf("want cancellation error, got %v", err)
	}
	if _, _, err := ce.Apply(context.Background(), nil, nil); err == nil {
		t.Fatal("Apply accepted an engine whose RunAt was canceled")
	}
}

func TestIncrementalQueryServesMaintainedExtension(t *testing.T) {
	// After Apply, Query and Rows must serve the maintained state exactly
	// like a normal run's.
	s := store.New()
	s.AddFact(edgeFact("a", "b"))
	p := closureProgram()
	inc := runAt(t, s, p)

	s.AddFact(edgeFact("b", "c"))
	mustApply(t, inc, FactDelta{"edge": {{object.Str("b"), object.Str("c")}}}, nil)
	res, err := inc.Query(Rel("reach", Const(object.Str("a")), Var("Y")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("reach(a,Y) returned %d rows, want 2", len(res))
	}
}
