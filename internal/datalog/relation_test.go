package datalog

import (
	"testing"

	"videodb/internal/object"
)

func TestRelationProposeAdvance(t *testing.T) {
	t.Run("interned", func(t *testing.T) {
		r := newRelation(newPairInterner())
		a := row{object.Num(1), object.Str("x")}
		if !r.propose(a) {
			t.Error("first propose should be new")
		}
		if r.propose(row{object.Num(1), object.Str("x")}) {
			t.Error("duplicate propose should be rejected")
		}
		if len(r.rows) != 0 {
			t.Error("proposals must not be visible before advance")
		}
		if !r.advance() {
			t.Error("advance with pending proposals should report change")
		}
		if len(r.rows) != 1 || len(r.delta) != 1 {
			t.Errorf("rows=%d delta=%d", len(r.rows), len(r.delta))
		}
		if r.advance() {
			t.Error("advance with nothing pending should report no change")
		}
		if len(r.delta) != 0 {
			t.Error("delta should drain")
		}
	})
}

// lookupVal probes position pos for the value through the join index.
func lookupVal(r *relation, pos int, v object.Value) []int {
	return r.lookup64(pos, valueID(v))
}

func TestRelationLookup(t *testing.T) {
	t.Run("interned", func(t *testing.T) {
		r := newRelation(newPairInterner())
		for i := 0; i < 10; i++ {
			r.propose(row{object.Num(float64(i % 3)), object.Num(float64(i))})
		}
		r.advance()
		hits := lookupVal(r, 0, object.Num(1))
		want := 0
		for i := 0; i < 10; i++ {
			if i%3 == 1 {
				want++
			}
		}
		if len(hits) != want {
			t.Errorf("lookup(0, 1) = %d hits, want %d", len(hits), want)
		}
		for _, ri := range hits {
			if n, _ := r.rows[ri][0].AsNumber(); n != 1 {
				t.Errorf("row %d has key %v", ri, r.rows[ri][0])
			}
		}
		// Index extends over rows added later.
		r.propose(row{object.Num(1), object.Num(100)})
		r.advance()
		if got := lookupVal(r, 0, object.Num(1)); len(got) != want+1 {
			t.Errorf("after growth: %d hits, want %d", len(got), want+1)
		}
		// Secondary position and misses.
		if got := lookupVal(r, 1, object.Num(100)); len(got) != 1 {
			t.Errorf("lookup(1, 100) = %d hits", len(got))
		}
		if got := lookupVal(r, 0, object.Num(99)); len(got) != 0 {
			t.Errorf("miss returned %d hits", len(got))
		}
		// Out-of-range position is safe.
		if got := lookupVal(r, 7, object.Str("x")); len(got) != 0 {
			t.Errorf("out-of-range position returned %d hits", len(got))
		}
	})
}

func TestJoinIndexAblationEquivalence(t *testing.T) {
	s := ropeStore(t)
	p := NewProgram(
		NewRule(Rel("appears", Var("O"), Var("G")),
			Interval(Var("G")), ObjectAtom(Var("O")),
			Member(TermOp(Var("O")), AttrOp(Var("G"), "entities"))),
		NewRule(Rel("pair", Var("A"), Var("B")),
			Rel("appears", Var("A"), Var("G")),
			Rel("appears", Var("B"), Var("G"))),
	)
	with := mustEngine(t, s, p)
	without := mustEngine(t, s, p, WithoutJoinIndex())
	r1, err1 := with.Rows("pair")
	r2, err2 := without.Rows("pair")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("with %d vs without %d", len(r1), len(r2))
	}
	for i := range r1 {
		if RowKey(r1[i]) != RowKey(r2[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}
