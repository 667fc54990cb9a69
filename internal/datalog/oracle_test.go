package datalog

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"videodb/internal/constraint"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// Differential oracle for the engine: on every oracle case its fixpoint
// (extents, created objects) must equal the least model the reference
// evaluator (reference_test.go) computes straight from §6, the fixpoint
// of the naive strategy, and the fixpoint with the join and member indexes
// off. The reference shares no planner, join
// index, pushdown or interner with the engine, so a fault in any of them
// shows on one side only.

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

	{
		// Access paths: a relation large enough for the join index, two
		// scans of one relation whose constants overlap (each pushed down
		// and cached on its own), and a non-strict order comparison that
		// holds with equality.
		s := store.New()
		for i := 0; i < 20; i++ {
			n := func(j int) object.Value { return object.Str(fmt.Sprintf("n%02d", j%20)) }
			s.AddFact(store.NewFact("link", n(i), n(i+1)))
			if i%4 == 0 {
				s.AddFact(store.NewFact("link", n(i), n(i+7)))
			}
			s.AddFact(store.NewFact("score", n(i), object.Num(float64(i%6))))
		}
		cases = append(cases, oracleCase{"access-paths", s, NewProgram(
			NewRule(Rel("two_hop", Var("X"), Var("Z")),
				Rel("link", Var("X"), Var("Y")), Rel("link", Var("Y"), Var("Z"))),
			NewRule(Rel("first_hop", Var("Y")),
				Rel("link", Const(object.Str("n00")), Const(object.Str("n01"))),
				Rel("link", Const(object.Str("n01")), Var("Y"))),
			NewRule(Rel("from_start", Var("Y")), Rel("link", Const(object.Str("n00")), Var("Y"))),
			NewRule(Rel("low", Var("N")),
				Rel("score", Var("N"), Var("V")),
				Cmp(TermOp(Var("V")), constraint.Le, TermOp(Const(object.Num(3))))),
			NewRule(Rel("above", Var("N"), Var("M")),
				Rel("score", Var("N"), Var("V")), Rel("score", Var("M"), Var("W")),
				Rel("link", Var("N"), Var("M")),
				Cmp(TermOp(Var("V")), constraint.Ge, TermOp(Var("W")))),
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
			keys[i] = RowKey(r)
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

// referenceExtents runs the reference on a case and returns its extents
// in the engine's answer order, its created objects, and how many tuples
// it derived beyond the stored facts of IDB predicates.
func referenceExtents(t *testing.T, tc oracleCase) (map[string][]string, []*object.Object, int) {
	t.Helper()
	ext, created, err := refModel(tc.st, tc.prog)
	if err != nil {
		t.Fatalf("%s: reference: %v", tc.name, err)
	}
	keys := make(map[string][]string, len(ext))
	derived := 0
	for pred, tuples := range ext {
		rows := make([]row, len(tuples))
		for i, tu := range tuples {
			rows[i] = row(tu)
		}
		for _, r := range SortRows(rows) {
			keys[pred] = append(keys[pred], RowKey(r))
		}
		seeded := map[string]bool{}
		for _, f := range tc.st.Facts(pred) {
			seeded[refKey(f.Args)] = true
		}
		derived += len(rows) - len(seeded)
	}
	return keys, created, derived
}

// TestEngineMatchesReference compares the engine against the reference
// on extents, created objects and the number of derived tuples.
func TestEngineMatchesReference(t *testing.T) {
	for _, tc := range oracleCases(t) {
		refExt, refCreated, refDerived := referenceExtents(t, tc)

		def := mustEngine(t, tc.st, tc.prog)
		defExt, defCreated, defStats := fixpointOf(t, def, tc.prog)
		sameExtents(t, tc.name, "engine vs reference", defExt, refExt)
		sameCreated(t, tc.name, "engine vs reference", defCreated, refCreated)
		if defStats.Derived != refDerived {
			t.Fatalf("%s: Derived %d, reference derives %d", tc.name, defStats.Derived, refDerived)
		}
		if defStats.Created != len(refCreated) {
			t.Fatalf("%s: Created %d, reference creates %d", tc.name, defStats.Created, len(refCreated))
		}
	}
}

// TestCompiledMatchesSeedEvaluator holds the default semi-naive engine to
// the naive strategy, which re-evaluates every rule against the full
// extents each round, on extents, created objects, Derived and Created.
func TestCompiledMatchesSeedEvaluator(t *testing.T) {
	for _, tc := range oracleCases(t) {
		def := mustEngine(t, tc.st, tc.prog)
		defExt, defCreated, defStats := fixpointOf(t, def, tc.prog)

		nv := mustEngine(t, tc.st, tc.prog, Naive())
		nvExt, nvCreated, nvStats := fixpointOf(t, nv, tc.prog)
		sameExtents(t, tc.name, "engine vs naive", defExt, nvExt)
		sameCreated(t, tc.name, "engine vs naive", defCreated, nvCreated)
		if defStats.Derived != nvStats.Derived {
			t.Fatalf("%s: Derived %d vs naive %d", tc.name, defStats.Derived, nvStats.Derived)
		}
		if defStats.Created != nvStats.Created {
			t.Fatalf("%s: Created %d vs naive %d", tc.name, defStats.Created, nvStats.Created)
		}
	}
}

// TestStreamingMatchesMaterializing holds the pipeline's indexed access
// paths (join-index probes, member-index class narrowing) to the same
// pipeline with both indexes off, where every relation step scans its
// whole extent and every class step its whole class. The plans and the
// matching order are the same, so extents, created objects, Derived,
// Firings and Created must all be identical.
func TestStreamingMatchesMaterializing(t *testing.T) {
	for _, tc := range oracleCases(t) {
		idx := mustEngine(t, tc.st, tc.prog)
		idxExt, idxCreated, idxStats := fixpointOf(t, idx, tc.prog)

		scan := mustEngine(t, tc.st, tc.prog, WithoutJoinIndex(), WithoutMemberIndex())
		scanExt, scanCreated, scanStats := fixpointOf(t, scan, tc.prog)
		sameExtents(t, tc.name, "indexed vs scan", idxExt, scanExt)
		sameCreated(t, tc.name, "indexed vs scan", idxCreated, scanCreated)
		if idxStats.Derived != scanStats.Derived {
			t.Fatalf("%s: Derived %d vs scan %d", tc.name, idxStats.Derived, scanStats.Derived)
		}
		if idxStats.Firings != scanStats.Firings {
			t.Fatalf("%s: Firings %d vs scan %d", tc.name, idxStats.Firings, scanStats.Firings)
		}
		if idxStats.Created != scanStats.Created {
			t.Fatalf("%s: Created %d vs scan %d", tc.name, idxStats.Created, scanStats.Created)
		}
	}
}

// TestReferenceIsIndependent holds the reference to its contract: it
// names no package-level identifier declared outside ast.go and
// stratify.go (the syntax and the stratification), and calls no method
// other files declare on the syntax types.
func TestReferenceIsIndependent(t *testing.T) {
	allowed := map[string]bool{"ast.go": true, "stratify.go": true}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == "datalog" {
			files[path] = f
		}
	}
	ref := files["reference_test.go"]
	if ref == nil {
		t.Fatal("reference_test.go not found")
	}
	astTypes := map[string]bool{}
	for path := range allowed {
		for _, d := range files[path].Decls {
			if g, ok := d.(*ast.GenDecl); ok {
				for _, sp := range g.Specs {
					if ts, ok := sp.(*ast.TypeSpec); ok {
						astTypes[ts.Name.Name] = true
					}
				}
			}
		}
	}
	foreign := map[string]string{} // identifier -> the file declaring it
	methods := map[string]string{} // method on a syntax type -> its file
	for path, f := range files {
		if allowed[path] || f == ref {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					foreign[d.Name.Name] = path
				} else if recvType(d.Recv.List[0].Type) != "" && astTypes[recvType(d.Recv.List[0].Type)] {
					methods[d.Name.Name] = path
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						foreign[sp.Name.Name] = path
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							foreign[n.Name] = path
						}
					}
				}
			}
		}
	}
	var check func(n ast.Node) bool
	check = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if file, ok := methods[n.Sel.Name]; ok {
				t.Errorf("%s: calls %s, declared in %s", fset.Position(n.Pos()), n.Sel.Name, file)
			}
			ast.Inspect(n.X, check)
			return false
		case *ast.Ident:
			if file, ok := foreign[n.Name]; ok {
				t.Errorf("%s: names %s, declared in %s", fset.Position(n.Pos()), n.Name, file)
			}
		}
		return true
	}
	ast.Inspect(ref, check)
}

// recvType is the base type name of a method receiver.
func recvType(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestConcurrentQueriesRaceFree is the caller goalMu and runOnce serve:
// several goroutines query one engine after its Run. The goal-only
// predicates (never in a rule body, not registered before Run) load
// through edbRowsShared while other goroutines register goals and read
// derived rows. Meaningful under -race.
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
	e := mustEngine(t, s, prog)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
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
