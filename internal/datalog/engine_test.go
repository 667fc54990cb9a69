package datalog

import (
	"fmt"
	"testing"

	"videodb/internal/constraint"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// ropeStore builds the worked example of Section 5.2: the movie "The
// Rope" with generalized intervals gi1 (the murder) and gi2 (the party),
// semantic objects o1…o9, and the in(o1, o4, gi) facts.
func ropeStore(t testing.TB) *store.Store {
	t.Helper()
	s := store.New()
	put := func(o *object.Object) {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	put(object.NewInterval("gi1", interval.New(interval.Open(0, 30))).
		Set(object.AttrEntities, object.RefSet("o1", "o2", "o3", "o4")).
		Set("subject", object.Str("murder")).
		Set("victim", object.Ref("o1")).
		Set("murderer", object.RefSet("o2", "o3")))
	put(object.NewInterval("gi2", interval.New(interval.Open(40, 80))).
		Set(object.AttrEntities, object.RefSet("o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8", "o9")).
		Set("subject", object.Str("Giving a party")).
		Set("host", object.RefSet("o2", "o3")).
		Set("guest", object.RefSet("o5", "o6", "o7", "o8", "o9")))
	put(object.NewEntity("o1").Set("name", object.Str("David")).Set("role", object.Str("Victim")))
	put(object.NewEntity("o2").Set("name", object.Str("Philip")).
		Set("realname", object.Str("Farley Granger")).Set("role", object.Str("Murderer")))
	put(object.NewEntity("o3").Set("name", object.Str("Brandon")).
		Set("realname", object.Str("John Dall")).Set("role", object.Str("Murderer")))
	put(object.NewEntity("o4").Set("identification", object.Str("Chest")))
	put(object.NewEntity("o5").Set("name", object.Str("Janet")).
		Set("realname", object.Str("Joan Chandler")))
	put(object.NewEntity("o6").Set("name", object.Str("Kenneth")).
		Set("realname", object.Str("Douglas Dick")))
	put(object.NewEntity("o7").Set("name", object.Str("Mr.Kentley")).
		Set("realname", object.Str("Cedric Hardwicke")))
	put(object.NewEntity("o8").Set("name", object.Str("Mrs.Atwater")).
		Set("realname", object.Str("Constance Collier")))
	put(object.NewEntity("o9").Set("name", object.Str("Rupert Cadell")).
		Set("realname", object.Str("James Stewart")))
	s.AddFact(store.RefFact("in", "o1", "o4", "gi1"))
	s.AddFact(store.RefFact("in", "o1", "o4", "gi2"))
	return s
}

func mustEngine(t testing.TB, s *store.Store, p Program, opts ...Option) *Engine {
	t.Helper()
	e, err := NewEngine(s, p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func oidResults(t testing.TB, e *Engine, q RelAtom) []object.OID {
	t.Helper()
	oids, err := e.QueryOIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	return oids
}

func wantOIDs(t *testing.T, got []object.OID, want ...object.OID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestRopeExampleQueries reproduces the six example queries of Section
// 6.1 against the Rope database (experiment E4).
func TestRopeExampleQueries(t *testing.T) {
	s := ropeStore(t)

	t.Run("q1 objects in a given sequence", func(t *testing.T) {
		// q(O) :- Interval(gi1), Object(O), O in gi1.entities
		p := NewProgram(NewRule(
			Rel("q", Var("O")),
			Interval(Oid("gi1")),
			ObjectAtom(Var("O")),
			Member(TermOp(Var("O")), AttrOp(Oid("gi1"), "entities")),
		))
		e := mustEngine(t, s, p)
		wantOIDs(t, oidResults(t, e, Rel("q", Var("O"))), "o1", "o2", "o3", "o4")
	})

	t.Run("q2 intervals where object appears", func(t *testing.T) {
		// q(G) :- Interval(G), Object(o1), o1 in G.entities
		p := NewProgram(NewRule(
			Rel("q", Var("G")),
			Interval(Var("G")),
			ObjectAtom(Oid("o1")),
			Member(TermOp(Oid("o1")), AttrOp(Var("G"), "entities")),
		))
		e := mustEngine(t, s, p)
		wantOIDs(t, oidResults(t, e, Rel("q", Var("G"))), "gi1", "gi2")
	})

	t.Run("q3 object within temporal frame", func(t *testing.T) {
		// q(o1) :- Interval(G), Object(o1), o1 in G.entities,
		//          G.duration => (t > -5 and t < 35)
		frame := object.Temporal(interval.New(interval.Open(-5, 35)))
		p := NewProgram(NewRule(
			Rel("q", Oid("o1")),
			Interval(Var("G")),
			ObjectAtom(Oid("o1")),
			Member(TermOp(Oid("o1")), AttrOp(Var("G"), "entities")),
			Entails(AttrOp(Var("G"), "duration"), TermOp(Const(frame))),
		))
		e := mustEngine(t, s, p)
		ok, err := e.Ask(Rel("q", Oid("o1")))
		if err != nil || !ok {
			t.Errorf("o1 should appear in frame (-5,35): %v %v", ok, err)
		}
		// A frame covering neither interval completely.
		frame2 := object.Temporal(interval.New(interval.Open(10, 20)))
		p2 := NewProgram(NewRule(
			Rel("q", Oid("o1")),
			Interval(Var("G")),
			Member(TermOp(Oid("o1")), AttrOp(Var("G"), "entities")),
			Entails(AttrOp(Var("G"), "duration"), TermOp(Const(frame2))),
		))
		e2 := mustEngine(t, s, p2)
		ok, err = e2.Ask(Rel("q", Oid("o1")))
		if err != nil || ok {
			t.Errorf("no interval fits inside (10,20): %v %v", ok, err)
		}
	})

	t.Run("q4 two objects together", func(t *testing.T) {
		// Both formulations of the paper: two membership atoms, and a
		// set-inclusion atom; they must agree.
		p1 := NewProgram(NewRule(
			Rel("q", Var("G")),
			Interval(Var("G")),
			Member(TermOp(Oid("o1")), AttrOp(Var("G"), "entities")),
			Member(TermOp(Oid("o5")), AttrOp(Var("G"), "entities")),
		))
		p2 := NewProgram(NewRule(
			Rel("q", Var("G")),
			Interval(Var("G")),
			SubsetAtom(AttrOp(Var("G"), "entities"), TermOp(Oid("o1")), TermOp(Oid("o5"))),
		))
		e1 := mustEngine(t, s, p1)
		e2 := mustEngine(t, s, p2)
		wantOIDs(t, oidResults(t, e1, Rel("q", Var("G"))), "gi2")
		wantOIDs(t, oidResults(t, e2, Rel("q", Var("G"))), "gi2")
	})

	t.Run("q5 pairs in relation within interval", func(t *testing.T) {
		// q(O1,O2,G) :- Interval(G), Object(O1), Object(O2),
		//               O1 in G.entities, O2 in G.entities, in(O1,O2,G)
		p := NewProgram(NewRule(
			Rel("q", Var("O1"), Var("O2"), Var("G")),
			Interval(Var("G")),
			ObjectAtom(Var("O1")),
			ObjectAtom(Var("O2")),
			Member(TermOp(Var("O1")), AttrOp(Var("G"), "entities")),
			Member(TermOp(Var("O2")), AttrOp(Var("G"), "entities")),
			Rel("in", Var("O1"), Var("O2"), Var("G")),
		))
		e := mustEngine(t, s, p)
		res, err := e.Query(Rel("q", Var("O1"), Var("O2"), Var("G")))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 {
			t.Fatalf("results = %v", res)
		}
		if res[0].String() != "o1\x1fo4\x1fgi1" || res[1].String() != "o1\x1fo4\x1fgi2" {
			t.Errorf("results = %v", res)
		}
	})

	t.Run("q6 interval containing object with attribute value", func(t *testing.T) {
		// q(G) :- Interval(G), Object(O), O in G.entities, O.name = "David"
		p := NewProgram(NewRule(
			Rel("q", Var("G")),
			Interval(Var("G")),
			ObjectAtom(Var("O")),
			Member(TermOp(Var("O")), AttrOp(Var("G"), "entities")),
			Cmp(AttrOp(Var("O"), "name"), constraint.Eq, TermOp(Const(object.Str("David")))),
		))
		e := mustEngine(t, s, p)
		wantOIDs(t, oidResults(t, e, Rel("q", Var("G"))), "gi1", "gi2")
	})
}

// TestRopeDerivedRelations reproduces the rules of Section 6.2.
func TestRopeDerivedRelations(t *testing.T) {
	s := ropeStore(t)
	// Add a third interval nested inside gi1's period.
	if err := s.Put(object.NewInterval("gi3", interval.New(interval.Open(5, 25))).
		Set(object.AttrEntities, object.RefSet("o2", "o3"))); err != nil {
		t.Fatal(err)
	}

	t.Run("contains", func(t *testing.T) {
		// contains(G1,G2) :- Interval(G1), Interval(G2),
		//                    G2.duration => G1.duration
		p := NewProgram(NewRule(
			Rel("contains", Var("G1"), Var("G2")),
			Interval(Var("G1")),
			Interval(Var("G2")),
			Entails(AttrOp(Var("G2"), "duration"), AttrOp(Var("G1"), "duration")),
		))
		e := mustEngine(t, s, p)
		rows, err := e.Rows("contains")
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, r := range rows {
			got[RowKey(r)] = true
		}
		want := []string{
			"gi1\x1fgi1", "gi2\x1fgi2", "gi3\x1fgi3", // reflexive
			"gi1\x1fgi3", // (5,25) inside (0,30)
		}
		if len(got) != len(want) {
			t.Fatalf("contains = %v", rows)
		}
		for _, w := range want {
			if !got[w] {
				t.Errorf("missing %q in %v", w, rows)
			}
		}
	})

	t.Run("same-object-in", func(t *testing.T) {
		p := NewProgram(NewRule(
			Rel("same_object_in", Var("G1"), Var("G2"), Var("O")),
			Interval(Var("G1")),
			Interval(Var("G2")),
			ObjectAtom(Var("O")),
			Member(TermOp(Var("O")), AttrOp(Var("G1"), "entities")),
			Member(TermOp(Var("O")), AttrOp(Var("G2"), "entities")),
		))
		e := mustEngine(t, s, p)
		res, err := e.Query(Rel("same_object_in", Oid("gi1"), Oid("gi3"), Var("O")))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 {
			t.Fatalf("results = %v", res)
		}
		wantOIDs(t, oidResults(t, e, Rel("same_object_in", Oid("gi1"), Oid("gi3"), Var("O"))), "o2", "o3")
	})
}

func TestRecursionTransitiveClosure(t *testing.T) {
	s := store.New()
	const n = 20
	for i := 0; i < n; i++ {
		s.AddFact(store.NewFact("next",
			object.Str(fmt.Sprintf("n%02d", i)), object.Str(fmt.Sprintf("n%02d", i+1))))
	}
	p := NewProgram(
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("next", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("next", Var("Y"), Var("Z"))),
	)
	e := mustEngine(t, s, p)
	rows, err := e.Rows("reach")
	if err != nil {
		t.Fatal(err)
	}
	want := n * (n + 1) / 2
	if len(rows) != want {
		t.Errorf("reach has %d tuples, want %d", len(rows), want)
	}
	st := e.Stats()
	if st.Rounds < n {
		t.Errorf("a length-%d chain needs at least %d rounds, got %d", n, n, st.Rounds)
	}
	// Ask a specific pair.
	ok, err := e.Ask(Rel("reach", Const(object.Str("n00")), Const(object.Str("n20"))))
	if err != nil || !ok {
		t.Errorf("n00 should reach n20: %v %v", ok, err)
	}
	ok, err = e.Ask(Rel("reach", Const(object.Str("n05")), Const(object.Str("n03"))))
	if err != nil || ok {
		t.Errorf("n05 should not reach n03: %v %v", ok, err)
	}
}

func TestAttributeComparisons(t *testing.T) {
	s := store.New()
	s.Put(object.NewEntity("a").Set("score", object.Num(10)).Set("name", object.Str("alpha")))
	s.Put(object.NewEntity("b").Set("score", object.Num(20)).Set("name", object.Str("beta")))
	s.Put(object.NewEntity("c").Set("score", object.Num(30)))

	// Numeric comparison between attributes of two objects.
	p := NewProgram(NewRule(
		Rel("lt", Var("X"), Var("Y")),
		ObjectAtom(Var("X")),
		ObjectAtom(Var("Y")),
		Cmp(AttrOp(Var("X"), "score"), constraint.Lt, AttrOp(Var("Y"), "score")),
	))
	e := mustEngine(t, s, p)
	res, err := e.Query(Rel("lt", Var("X"), Var("Y")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 { // (a,b), (a,c), (b,c)
		t.Errorf("lt = %v", res)
	}

	// Comparison against a constant; missing attribute never matches.
	p2 := NewProgram(NewRule(
		Rel("named", Var("X")),
		ObjectAtom(Var("X")),
		Cmp(AttrOp(Var("X"), "name"), constraint.Ge, TermOp(Const(object.Str("b")))),
	))
	e2 := mustEngine(t, s, p2)
	wantOIDs(t, oidResults(t, e2, Rel("named", Var("X"))), "b")

	// Ne with missing attribute: an undefined attribute compares under
	// no operator, so c (no name) does not match.
	p3 := NewProgram(NewRule(
		Rel("anon", Var("X")),
		ObjectAtom(Var("X")),
		Cmp(AttrOp(Var("X"), "name"), constraint.Ne, TermOp(Const(object.Str("alpha")))),
	))
	e3 := mustEngine(t, s, p3)
	wantOIDs(t, oidResults(t, e3, Rel("anon", Var("X"))), "b")
}

func TestQueryAPI(t *testing.T) {
	s := ropeStore(t)
	p := NewProgram(NewRule(
		Rel("q", Var("G"), Var("O")),
		Interval(Var("G")),
		ObjectAtom(Var("O")),
		Member(TermOp(Var("O")), AttrOp(Var("G"), "entities")),
	))
	e := mustEngine(t, s, p)

	// Repeated variables enforce equality: q(X, X) has no answers here.
	res, err := e.Query(Rel("q", Var("X"), Var("X")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("q(X,X) = %v", res)
	}

	// Ground query.
	ok, err := e.Ask(Rel("q", Oid("gi1"), Oid("o4")))
	if err != nil || !ok {
		t.Errorf("Ask ground = %v %v", ok, err)
	}
	ok, err = e.Ask(Rel("q", Oid("gi1"), Oid("o5")))
	if err != nil || ok {
		t.Errorf("Ask false ground = %v %v", ok, err)
	}

	// Unknown predicate: empty, no error (it is an empty EDB relation).
	res, err = e.Query(Rel("nosuch", Var("X")))
	if err != nil || len(res) != 0 {
		t.Errorf("unknown predicate = %v %v", res, err)
	}

	// Constructive term in query rejected.
	if _, err := e.Query(Rel("q", Concat(Var("A"), Var("B")), Var("O"))); err == nil {
		t.Error("constructive query should be rejected")
	}

	// QueryOIDs shape errors.
	if _, err := e.QueryOIDs(Rel("q", Var("G"), Var("O"))); err == nil {
		t.Error("QueryOIDs with two variables should fail")
	}

	// EDB facts of an IDB predicate are part of the answers.
	p2 := NewProgram(NewRule(
		Rel("in", Var("O"), Oid("o4"), Oid("gi1")),
		Rel("in", Var("O"), Oid("o4"), Oid("gi2")),
	))
	e2 := mustEngine(t, s, p2)
	rows, err := e2.Rows("in")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // o1 already in gi1; derived tuple is a duplicate
		t.Errorf("in rows = %v", rows)
	}
}

func TestEngineUnsafeFilterPlan(t *testing.T) {
	// Filters whose variables are never bound are rejected at validation.
	p := NewProgram(NewRule(
		Rel("q", Oid("x")),
		Cmp(TermOp(Var("A")), constraint.Lt, TermOp(Const(object.Num(3)))),
	))
	if _, err := NewEngine(store.New(), p); err == nil {
		t.Error("expected validation error")
	}
}

func TestEngineArityMismatchTolerated(t *testing.T) {
	s := store.New()
	s.AddFact(store.NewFact("r", object.Num(1)))
	s.AddFact(store.NewFact("r", object.Num(1), object.Num(2)))
	p := NewProgram(NewRule(Rel("q", Var("X")), Rel("r", Var("X"))))
	e := mustEngine(t, s, p)
	res, err := e.Query(Rel("q", Var("X")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("only the unary fact should match: %v", res)
	}
}

func TestMemberIndexOnOff(t *testing.T) {
	// The inverted-index plan and the scan plan must return identical
	// answers.
	s := ropeStore(t)
	p := NewProgram(NewRule(
		Rel("q", Var("G")),
		Interval(Var("G")),
		Member(TermOp(Oid("o5")), AttrOp(Var("G"), "entities")),
	))
	e1 := mustEngine(t, s, p)
	e2 := mustEngine(t, s, p, WithoutMemberIndex())
	wantOIDs(t, oidResults(t, e1, Rel("q", Var("G"))), "gi2")
	wantOIDs(t, oidResults(t, e2, Rel("q", Var("G"))), "gi2")
}

func TestEngineStats(t *testing.T) {
	s := ropeStore(t)
	p := NewProgram(NewRule(
		Rel("q", Var("G")),
		Interval(Var("G")),
	))
	e := mustEngine(t, s, p)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Derived != 2 || st.Created != 0 || st.Rounds < 1 {
		t.Errorf("stats = %+v", st)
	}
	// Run is idempotent.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Stats() != st {
		t.Error("second Run should be a no-op")
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	s := store.New()
	for i := 0; i < 5; i++ {
		s.AddFact(store.NewFact("next",
			object.Str(fmt.Sprintf("n%d", i)), object.Str(fmt.Sprintf("n%d", i+1))))
	}
	p := NewProgram(
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("next", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("next", Var("Y"), Var("Z"))),
	)
	e := mustEngine(t, s, p, MaxRounds(2))
	if err := e.Run(); err == nil {
		t.Error("MaxRounds(2) should trip on a 5-step chain")
	}
	// Generous bound converges normally.
	e2 := mustEngine(t, s, p, MaxRounds(100))
	if err := e2.Run(); err != nil {
		t.Errorf("generous MaxRounds failed: %v", err)
	}
}
