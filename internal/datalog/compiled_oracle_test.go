package datalog

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"videodb/internal/constraint"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// Differential oracle for the compiled evaluator: the default engine
// (compiled rule plans) must produce exactly the fixpoint of the reference
// evaluator (per-evaluation planning) and of the naive evaluator,
// including under parallel evaluation. Caching and compilation are
// representation changes only — any observable difference is a bug.

// oracleCase is one store+program instance for differential comparison.
type oracleCase struct {
	name string
	st   *store.Store
	prog Program
}

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase

	// Structured instances covering each literal kind the compiler
	// classifies: relational recursion, negation, class enumeration with
	// the member-index lookahead, attribute assignment, comparison
	// filters, temporal atoms, entailment, and constructive heads.
	{
		s := store.New()
		for i := 0; i < 12; i++ {
			s.AddFact(store.NewFact("next",
				object.Str(fmt.Sprintf("n%02d", i)), object.Str(fmt.Sprintf("n%02d", i+1))))
		}
		cases = append(cases, oracleCase{"chain-recursion", s, NewProgram(
			NewRule(Rel("reach", Var("X"), Var("Y")), Rel("next", Var("X"), Var("Y"))),
			NewRule(Rel("reach", Var("X"), Var("Z")),
				Rel("reach", Var("X"), Var("Y")), Rel("next", Var("Y"), Var("Z"))),
		)})
	}
	{
		s := store.New()
		edges := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"d", "a"}}
		for _, e := range edges {
			s.AddFact(store.NewFact("edge", object.Str(e[0]), object.Str(e[1])))
		}
		cases = append(cases, oracleCase{"stratified-negation", s, NewProgram(
			NewRule(Rel("node", Var("X")), Rel("edge", Var("X"), Var("Y"))),
			NewRule(Rel("node", Var("Y")), Rel("edge", Var("X"), Var("Y"))),
			NewRule(Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("X"), Var("Y"))),
			NewRule(Rel("reach", Var("X"), Var("Z")),
				Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("Y"), Var("Z"))),
			NewRule(Rel("unreached", Var("X"), Var("Y")),
				Rel("node", Var("X")), Rel("node", Var("Y")),
				Not(Rel("reach", Var("X"), Var("Y")))),
		)})
	}
	{
		s := store.New()
		var ents []object.OID
		for i := 0; i < 5; i++ {
			oid := object.OID(fmt.Sprintf("e%d", i))
			ents = append(ents, oid)
			s.Put(object.NewEntity(oid).Set("n", object.Num(float64(i))))
		}
		for i := 0; i < 6; i++ {
			lo := float64(i * 7)
			s.Put(object.NewInterval(object.OID(fmt.Sprintf("g%d", i)),
				interval.FromPairs(lo, lo+10)).
				Set(object.AttrEntities, object.RefSet(ents[i%len(ents)], ents[(i+1)%len(ents)])))
		}
		// Non-convex, point and empty durations for the entailment guard.
		// They carry no entities, so the constructive rule's closure over
		// shared entities stays as small as it was.
		for i, d := range []interval.Generalized{
			interval.FromPairs(1, 3, 8, 9),    // two spans inside g0
			interval.FromPairs(0, 10, 14, 24), // g0 ∪ g2
			interval.New(interval.Point(8)),
			interval.Empty(),
		} {
			s.Put(object.NewInterval(object.OID(fmt.Sprintf("h%d", i)), d))
		}
		cases = append(cases, oracleCase{"intervals-constraints", s, NewProgram(
			// Class enumeration + member-index lookahead.
			NewRule(Rel("appears", Var("O"), Var("G")),
				ObjectAtom(Var("O")), Interval(Var("G")),
				Member(TermOp(Var("O")), AttrOp(Var("G"), "entities"))),
			// Attribute assignment + comparison filter.
			NewRule(Rel("popular", Var("O"), Var("N")),
				ObjectAtom(Var("O")),
				Cmp(TermOp(Var("N")), constraint.Eq, AttrOp(Var("O"), "n")),
				Cmp(TermOp(Var("N")), constraint.Ge, TermOp(Const(object.Num(2))))),
			// Temporal atom + entailment (interval containment).
			NewRule(Rel("covers", Var("G1"), Var("G2")),
				Interval(Var("G1")), Interval(Var("G2")),
				Entails(AttrOp(Var("G2"), "duration"), AttrOp(Var("G1"), "duration"))),
			NewRule(Rel("precedes", Var("G1"), Var("G2")),
				Interval(Var("G1")), Interval(Var("G2")),
				Temporal(AttrOp(Var("G1"), "duration"), TempBefore, AttrOp(Var("G2"), "duration"))),
			// Constructive head (extended active domain).
			NewRule(Rel("merged", Concat(Var("G1"), Var("G2"))),
				Interval(Var("G1")), Interval(Var("G2")), ObjectAtom(Var("O")),
				Member(TermOp(Var("O")), AttrOp(Var("G1"), "entities")),
				Member(TermOp(Var("O")), AttrOp(Var("G2"), "entities"))),
		)})
	}

	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, p := randomInstance(r)
		cases = append(cases, oracleCase{fmt.Sprintf("random-%d", seed), s, p})
	}
	return cases
}

// fixpointOf runs an engine and returns every IDB extent (keyed rows),
// the created objects, and the run stats.
func fixpointOf(t *testing.T, e *Engine, prog Program) (map[string][]string, []*object.Object, RunStats) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ext := make(map[string][]string)
	for _, pred := range prog.IDB() {
		rows, err := e.Rows(pred)
		if err != nil {
			t.Fatalf("Rows(%s): %v", pred, err)
		}
		keys := make([]string, len(rows))
		for i, r := range rows {
			keys[i] = rowKey(r)
		}
		ext[pred] = keys
	}
	return ext, e.Created(), e.Stats()
}

func sameExtents(t *testing.T, name, label string, got, want map[string][]string) {
	t.Helper()
	for pred, w := range want {
		g := got[pred]
		if len(g) != len(w) {
			t.Fatalf("%s: %s: %s has %d vs %d tuples", name, label, pred, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %s: %s row %d: %q vs %q", name, label, pred, i, g[i], w[i])
			}
		}
	}
}

func sameCreated(t *testing.T, name, label string, got, want []*object.Object) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s: created %d vs %d objects", name, label, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: %s: created object %d differs: %v vs %v", name, label, i, got[i], want[i])
		}
	}
}

// TestCompiledMatchesSeedEvaluator compares the default engine against
// the reference configuration (plan cache off) on extents, created
// objects, and RunStats.Derived, and against the naive evaluator on
// extents.
func TestCompiledMatchesSeedEvaluator(t *testing.T) {
	for _, tc := range oracleCases(t) {
		ref := mustEngine(t, tc.st, tc.prog, WithoutPlanCache())
		refExt, refCreated, refStats := fixpointOf(t, ref, tc.prog)

		def := mustEngine(t, tc.st, tc.prog)
		defExt, defCreated, defStats := fixpointOf(t, def, tc.prog)
		sameExtents(t, tc.name, "compiled vs reference", defExt, refExt)
		sameCreated(t, tc.name, "compiled vs reference", defCreated, refCreated)
		if defStats.Derived != refStats.Derived {
			t.Fatalf("%s: Derived %d vs %d", tc.name, defStats.Derived, refStats.Derived)
		}
		if defStats.Created != refStats.Created {
			t.Fatalf("%s: Created %d vs %d", tc.name, defStats.Created, refStats.Created)
		}

		nv := mustEngine(t, tc.st, tc.prog, Naive())
		nvExt, nvCreated, _ := fixpointOf(t, nv, tc.prog)
		sameExtents(t, tc.name, "compiled vs naive", defExt, nvExt)
		sameCreated(t, tc.name, "compiled vs naive", defCreated, nvCreated)
	}
}

// TestCompiledMatchesUnderParallel repeats the comparison with worker
// pools of several sizes (run with -race in the Makefile's race target).
func TestCompiledMatchesUnderParallel(t *testing.T) {
	for _, tc := range oracleCases(t) {
		ref := mustEngine(t, tc.st, tc.prog, WithoutPlanCache())
		refExt, refCreated, refStats := fixpointOf(t, ref, tc.prog)
		nvExt, _, _ := fixpointOf(t, mustEngine(t, tc.st, tc.prog, Naive()), tc.prog)
		for _, workers := range []int{2, 4} {
			par := mustEngine(t, tc.st, tc.prog, Parallel(workers))
			parExt, parCreated, parStats := fixpointOf(t, par, tc.prog)
			label := fmt.Sprintf("parallel(%d) vs reference", workers)
			sameExtents(t, tc.name, label, parExt, refExt)
			sameCreated(t, tc.name, label, parCreated, refCreated)
			if parStats.Derived != refStats.Derived {
				t.Fatalf("%s: %s: Derived %d vs %d", tc.name, label, parStats.Derived, refStats.Derived)
			}
			sameExtents(t, tc.name, fmt.Sprintf("parallel(%d) vs naive", workers), parExt, nvExt)
		}
	}
}

// TestParallelFirstErrorDeterministic checks the runTasks contract: when
// several tasks fail in one parallel round, the error of the earliest
// task in queue order is reported, independent of goroutine scheduling.
// Two rules' compiled plans are replaced with steps that always error;
// badA precedes badB in rule (and therefore queue) order, so badA's
// error must win on every trial.
func TestParallelFirstErrorDeterministic(t *testing.T) {
	s := store.New()
	for i := 0; i < 8; i++ {
		s.AddFact(store.NewFact("next",
			object.Str(fmt.Sprintf("n%02d", i)), object.Str(fmt.Sprintf("n%02d", i+1))))
	}
	prog := NewProgram(
		NewRule(Rel("badA", Var("X")), Rel("next", Var("X"), Var("Y"))),
		NewRule(Rel("p1", Var("X")), Rel("next", Var("X"), Var("Y"))),
		NewRule(Rel("badB", Var("X")), Rel("next", Var("X"), Var("Y"))),
		NewRule(Rel("p2", Var("X")), Rel("next", Var("X"), Var("Y"))),
	)
	poison := func(msg string) []planStep {
		return []planStep{{kind: stepFilter, filter: func(*Engine, *frame) (bool, error) {
			return false, fmt.Errorf("%s", msg)
		}}}
	}
	for trial := 0; trial < 20; trial++ {
		e := mustEngine(t, s, prog, Parallel(4))
		e.compiled[0].plans[-1] = poison("boom badA")
		e.compiled[2].plans[-1] = poison("boom badB")
		err := e.Run()
		if err == nil {
			t.Fatal("expected an evaluation error")
		}
		if !strings.Contains(err.Error(), "boom badA") {
			t.Fatalf("trial %d: expected badA's error first, got: %v", trial, err)
		}
	}
}

// TestConcurrentQueriesRaceFree exercises the warmed EDB caches: queries
// over predicates referenced only as goals (never in a rule body) run
// concurrently after a parallel fixpoint without any goroutine lazily
// writing a shared map. Meaningful under -race.
func TestConcurrentQueriesRaceFree(t *testing.T) {
	s := store.New()
	for i := 0; i < 10; i++ {
		s.AddFact(store.NewFact("next",
			object.Str(fmt.Sprintf("n%02d", i)), object.Str(fmt.Sprintf("n%02d", i+1))))
		s.AddFact(store.NewFact("standalone", object.Num(float64(i))))
		s.AddFact(store.NewFact("lonely", object.Num(float64(i)), object.Num(float64(i*2))))
	}
	prog := NewProgram(
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("next", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("next", Var("Y"), Var("Z"))),
	)
	e := mustEngine(t, s, prog, Parallel(4))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mix of derived, body-EDB, and goal-only-EDB predicates; the
			// goal-only ones hit the locked lazy-fill path concurrently.
			if _, err := e.Rows("standalone"); err != nil {
				t.Error(err)
			}
			if _, err := e.Rows("lonely"); err != nil {
				t.Error(err)
			}
			if _, err := e.Query(Rel("reach", Var("X"), Var("Y"))); err != nil {
				t.Error(err)
			}
			if _, err := e.Query(Rel("next", Var("X"), Var("Y"))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}
