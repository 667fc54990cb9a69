package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// TestNaiveEquivalentToSeminaive is the differential-testing oracle for
// the evaluator: on randomly generated stores and programs, naive and
// semi-naive evaluation must produce identical fixpoints (same derived
// relations, same created objects).
func TestNaiveEquivalentToSeminaive(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, p := randomInstance(r)
		e1, err := NewEngine(s, p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e2, err := NewEngine(s, p, Naive())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := e1.Run(); err != nil {
			t.Fatalf("seed %d semi-naive: %v", seed, err)
		}
		if err := e2.Run(); err != nil {
			t.Fatalf("seed %d naive: %v", seed, err)
		}
		for _, pred := range p.IDB() {
			r1, err1 := e1.Rows(pred)
			r2, err2 := e2.Rows(pred)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: %v %v", seed, err1, err2)
			}
			if len(r1) != len(r2) {
				t.Fatalf("seed %d: %s has %d vs %d tuples\nprogram:\n%s",
					seed, pred, len(r1), len(r2), p)
			}
			for i := range r1 {
				if RowKey(r1[i]) != RowKey(r2[i]) {
					t.Fatalf("seed %d: %s row %d: %s vs %s", seed, pred, i, RowKey(r1[i]), RowKey(r2[i]))
				}
			}
		}
		c1, c2 := e1.Created(), e2.Created()
		if len(c1) != len(c2) {
			t.Fatalf("seed %d: created %d vs %d", seed, len(c1), len(c2))
		}
		for i := range c1 {
			if !c1[i].Equal(c2[i]) {
				t.Fatalf("seed %d: created object %d differs: %v vs %v", seed, i, c1[i], c2[i])
			}
		}
	}
}

// randomInstance builds a small random store and a random (valid) program
// exercising class atoms, membership constraints, entailment, derived
// relations, recursion and occasionally constructive heads.
func randomInstance(r *rand.Rand) (*store.Store, Program) {
	s := store.New()
	nEnt := 2 + r.Intn(4)
	nInt := 2 + r.Intn(4)
	var ents []object.OID
	for i := 0; i < nEnt; i++ {
		oid := object.OID(fmt.Sprintf("e%d", i))
		ents = append(ents, oid)
		s.Put(object.NewEntity(oid).Set("n", object.Num(float64(r.Intn(5)))))
	}
	for i := 0; i < nInt; i++ {
		oid := object.OID(fmt.Sprintf("g%d", i))
		lo := float64(r.Intn(50))
		var members []object.OID
		for _, e := range ents {
			if r.Intn(2) == 0 {
				members = append(members, e)
			}
		}
		s.Put(object.NewInterval(oid, interval.FromPairs(lo, lo+float64(5+r.Intn(20)))).
			Set(object.AttrEntities, object.RefSet(members...)))
	}
	// Random binary EDB facts over entities.
	for i := 0; i < 3+r.Intn(5); i++ {
		s.AddFact(store.RefFact("edge", ents[r.Intn(nEnt)], ents[r.Intn(nEnt)]))
	}

	rules := []Rule{
		// Derived relation over intervals and entities.
		NewRule(Rel("appears", Var("O"), Var("G")),
			Interval(Var("G")), ObjectAtom(Var("O")),
			Member(TermOp(Var("O")), AttrOp(Var("G"), "entities"))),
		// Recursion through a derived relation.
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("Y"), Var("Z"))),
		// Join between derived relations.
		NewRule(Rel("together", Var("O1"), Var("O2"), Var("G")),
			Rel("appears", Var("O1"), Var("G")),
			Rel("appears", Var("O2"), Var("G"))),
		// Temporal entailment between intervals.
		NewRule(Rel("contains", Var("G1"), Var("G2")),
			Interval(Var("G1")), Interval(Var("G2")),
			Entails(AttrOp(Var("G2"), "duration"), AttrOp(Var("G1"), "duration"))),
	}
	if r.Intn(2) == 0 {
		// A constructive rule: concatenate intervals sharing an entity.
		rules = append(rules, NewRule(
			Rel("merged", Concat(Var("G1"), Var("G2"))),
			Interval(Var("G1")), Interval(Var("G2")), ObjectAtom(Var("O")),
			Member(TermOp(Var("O")), AttrOp(Var("G1"), "entities")),
			Member(TermOp(Var("O")), AttrOp(Var("G2"), "entities"))))
	}
	return s, NewProgram(rules...)
}

func TestSeminaiveDoesLessWorkThanNaive(t *testing.T) {
	// On a recursion-heavy instance semi-naive should fire far fewer rule
	// instantiations than naive while deriving the same result.
	s := store.New()
	const n = 30
	for i := 0; i < n; i++ {
		s.AddFact(store.NewFact("next",
			object.Str(fmt.Sprintf("n%02d", i)), object.Str(fmt.Sprintf("n%02d", i+1))))
	}
	p := NewProgram(
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("next", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("next", Var("Y"), Var("Z"))),
	)
	semi := mustEngine(t, s, p)
	naive := mustEngine(t, s, p, Naive())
	if err := semi.Run(); err != nil {
		t.Fatal(err)
	}
	if err := naive.Run(); err != nil {
		t.Fatal(err)
	}
	r1, _ := semi.Rows("reach")
	r2, _ := naive.Rows("reach")
	if len(r1) != len(r2) {
		t.Fatalf("fixpoints differ: %d vs %d", len(r1), len(r2))
	}
	if semi.Stats().Firings >= naive.Stats().Firings {
		t.Errorf("semi-naive fired %d, naive %d — expected strictly less",
			semi.Stats().Firings, naive.Stats().Firings)
	}
}
