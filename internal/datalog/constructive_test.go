package datalog

import (
	"fmt"
	"testing"

	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// TestConstructiveConcatenation reproduces the concatenate_Gintervals
// rule of Section 6.2: build the concatenation of every pair of intervals
// sharing the objects o1 and o2.
func TestConstructiveConcatenation(t *testing.T) {
	s := ropeStore(t)
	// o1 is in gi1 and gi2; o2 is in gi1 and gi2 as well.
	p := NewProgram(NewRule(
		Rel("concatenate", Concat(Var("G1"), Var("G2"))),
		Interval(Var("G1")),
		Interval(Var("G2")),
		ObjectAtom(Oid("o1")),
		ObjectAtom(Oid("o2")),
		SubsetAtom(AttrOp(Var("G1"), "entities"), TermOp(Oid("o1")), TermOp(Oid("o2"))),
		SubsetAtom(AttrOp(Var("G2"), "entities"), TermOp(Oid("o1")), TermOp(Oid("o2"))),
	))
	e := mustEngine(t, s, p)
	rows, err := e.Rows("concatenate")
	if err != nil {
		t.Fatal(err)
	}
	// Answers: gi1 (gi1⊕gi1), gi2, and gi1+gi2; the fixpoint terminates
	// even though the created object itself satisfies the body again
	// (absorption).
	got := map[string]bool{}
	for _, r := range rows {
		got[RowKey(r)] = true
	}
	for _, w := range []string{"gi1", "gi2", "gi1+gi2"} {
		if !got[w] {
			t.Errorf("missing %q in %v", w, rows)
		}
	}
	if len(got) != 3 {
		t.Errorf("concatenate = %v", rows)
	}
	if st := e.Stats(); st.Created != 1 {
		t.Errorf("created = %d, want 1", st.Created)
	}

	// The created object merges durations, entities and other attributes.
	created := e.Created()
	if len(created) != 1 {
		t.Fatalf("Created() = %v", created)
	}
	c := created[0]
	if c.OID() != "gi1+gi2" {
		t.Errorf("created oid = %s", c.OID())
	}
	wantDur := interval.New(interval.Open(0, 30), interval.Open(40, 80))
	if !c.Duration().Equal(wantDur) {
		t.Errorf("created duration = %v, want %v", c.Duration(), wantDur)
	}
	if got := c.Attr(object.AttrEntities); !got.Equal(
		object.RefSet("o1", "o2", "o3", "o4", "o5", "o6", "o7", "o8", "o9")) {
		t.Errorf("created entities = %v", got)
	}
	if got := c.Attr("subject"); !got.Equal(object.Set(object.Str("murder"), object.Str("Giving a party"))) {
		t.Errorf("created subject = %v", got)
	}
	// The created object participates in queries via Object().
	if e.Object("gi1+gi2") == nil {
		t.Error("created object should resolve")
	}
}

// TestConstructiveTermination checks that a rule concatenating every pair
// of intervals terminates with the union-closure of the base intervals
// (experiment E7's correctness side).
func TestConstructiveTermination(t *testing.T) {
	s := store.New()
	const n = 4
	for i := 0; i < n; i++ {
		s.Put(object.NewInterval(object.OID(fmt.Sprintf("b%d", i)),
			interval.FromPairs(float64(i*10), float64(i*10+5))).
			Set(object.AttrEntities, object.RefSet("x")))
	}
	p := NewProgram(NewRule(
		Rel("all", Concat(Var("G1"), Var("G2"))),
		Interval(Var("G1")),
		Interval(Var("G2")),
	))
	e := mustEngine(t, s, p)
	rows, err := e.Rows("all")
	if err != nil {
		t.Fatal(err)
	}
	// The closure of {b0..b3} under union is all non-empty subsets: 2^4-1,
	// every one reachable as a pairwise concatenation of smaller ones
	// except the singletons, which appear via G ⊕ G.
	want := 1<<n - 1
	if len(rows) != want {
		t.Errorf("closure size = %d, want %d", len(rows), want)
	}
	if st := e.Stats(); st.Created != want-n {
		t.Errorf("created = %d, want %d", st.Created, want-n)
	}
}

func TestConstructiveNestedConcat(t *testing.T) {
	s := store.New()
	s.Put(object.NewInterval("a", interval.FromPairs(0, 1)))
	s.Put(object.NewInterval("b", interval.FromPairs(2, 3)))
	s.Put(object.NewInterval("c", interval.FromPairs(4, 5)))
	p := NewProgram(NewRule(
		Rel("triple", Concat(Concat(Oid("a"), Oid("b")), Oid("c"))),
		Interval(Oid("a")),
	))
	e := mustEngine(t, s, p)
	rows, err := e.Rows("triple")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("triple = %v", rows)
	}
	oid, _ := rows[0][0].AsRef()
	if oid != "a+b+c" {
		t.Errorf("oid = %s", oid)
	}
	obj := e.Object(oid)
	if !obj.Duration().Equal(interval.FromPairs(0, 1, 2, 3, 4, 5)) {
		t.Errorf("duration = %v", obj.Duration())
	}
	// The intermediate a+b is also materialized.
	if e.Object("a+b") == nil {
		t.Error("intermediate concatenation should exist")
	}
}

func TestConcatAssociativityOfAttributes(t *testing.T) {
	// (a⊕b)⊕c and a⊕(b⊕c) must be the same object with the same
	// attribute tuple.
	build := func(t *testing.T, term Term) *object.Object {
		t.Helper()
		s := store.New()
		s.Put(object.NewInterval("a", interval.FromPairs(0, 1)).Set("k", object.Str("x")))
		s.Put(object.NewInterval("b", interval.FromPairs(2, 3)).Set("k", object.Str("y")))
		s.Put(object.NewInterval("c", interval.FromPairs(4, 5)).Set("m", object.Num(1)))
		p := NewProgram(NewRule(Rel("r", term), Interval(Oid("a"))))
		e := mustEngine(t, s, p)
		rows, err := e.Rows("r")
		if err != nil || len(rows) != 1 {
			t.Fatalf("rows = %v, %v", rows, err)
		}
		oid, _ := rows[0][0].AsRef()
		return e.Object(oid)
	}
	left := build(t, Concat(Concat(Oid("a"), Oid("b")), Oid("c")))
	right := build(t, Concat(Oid("a"), Concat(Oid("b"), Oid("c"))))
	if !left.Equal(right) {
		t.Errorf("association changed the object:\n%v\n%v", left, right)
	}
}

func TestConstructiveErrors(t *testing.T) {
	s := store.New()
	s.Put(object.NewEntity("e1"))
	s.Put(object.NewInterval("g1", interval.FromPairs(0, 1)))

	// Concatenating an entity is an evaluation error.
	p := NewProgram(NewRule(
		Rel("bad", Concat(Oid("e1"), Oid("g1"))),
		Interval(Oid("g1")),
	))
	e := mustEngine(t, s, p)
	if err := e.Run(); err == nil {
		t.Error("concatenating an entity should fail")
	}

	// Concatenating a missing object is an evaluation error.
	p2 := NewProgram(NewRule(
		Rel("bad", Concat(Oid("nosuch"), Oid("g1"))),
		Interval(Oid("g1")),
	))
	e2 := mustEngine(t, s, p2)
	if err := e2.Run(); err == nil {
		t.Error("concatenating a missing object should fail")
	}
}

func TestMaxCreatedGuard(t *testing.T) {
	s := store.New()
	for i := 0; i < 8; i++ {
		s.Put(object.NewInterval(object.OID(fmt.Sprintf("b%d", i)),
			interval.FromPairs(float64(2*i), float64(2*i+1))))
	}
	p := NewProgram(NewRule(
		Rel("all", Concat(Var("G1"), Var("G2"))),
		Interval(Var("G1")),
		Interval(Var("G2")),
	))
	e := mustEngine(t, s, p, MaxCreated(10))
	if err := e.Run(); err == nil {
		t.Error("expected MaxCreated to trip (closure of 8 intervals is 255)")
	}
}

func TestEagerExtension(t *testing.T) {
	// Under Definition 19 the extended domain contains every pairwise
	// concatenation, so Interval(G) can bind to objects no constructive
	// rule built. The query below has no constructive rule at all, yet
	// with eager extension it finds the combined interval covering both
	// fragments.
	s := store.New()
	s.Put(object.NewInterval("g1", interval.FromPairs(0, 10)).
		Set(object.AttrEntities, object.RefSet("x")))
	s.Put(object.NewInterval("g2", interval.FromPairs(20, 30)).
		Set(object.AttrEntities, object.RefSet("x")))
	window := object.Temporal(interval.FromPairs(0, 30))
	p := NewProgram(NewRule(
		Rel("covers", Var("G")),
		Interval(Var("G")),
		Entails(TermOp(Const(object.Temporal(interval.FromPairs(0, 10, 20, 30)))),
			AttrOp(Var("G"), "duration")),
		Entails(AttrOp(Var("G"), "duration"), TermOp(Const(window))),
	))

	plain := mustEngine(t, s, p)
	got, err := plain.QueryOIDs(Rel("covers", Var("G")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("without eager extension: %v", got)
	}

	eager := mustEngine(t, s, p, EagerExtension())
	got, err = eager.QueryOIDs(Rel("covers", Var("G")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "g1+g2" {
		t.Errorf("with eager extension: %v", got)
	}
}
