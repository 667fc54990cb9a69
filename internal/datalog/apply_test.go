package datalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"videodb/internal/object"
	"videodb/internal/store"
)

// applyRuleBank is the pool TestApplyMatchesRecompute draws its random
// positive programs from. reach (recursive, with join-index probes on
// both reach and edge) is always in; the others add constant-filtered
// EDB atoms, a repeated variable, a join through a second extensional
// predicate and an IDB predicate fed from another.
var applyRuleBank = []Rule{
	NewRule(Rel("hop2", Var("X"), Var("Z")),
		Rel("edge", Var("X"), Var("Y")), Rel("edge", Var("Y"), Var("Z"))),
	NewRule(Rel("fromA", Var("Y")), Rel("edge", Const(object.Str("n0")), Var("Y"))),
	NewRule(Rel("red", Var("X"), Var("Y")),
		Rel("reach", Var("X"), Var("Y")), Rel("color", Var("Y"), Const(object.Str("red")))),
	NewRule(Rel("loop", Var("X")), Rel("edge", Var("X"), Var("X"))),
	NewRule(Rel("loop", Var("X")), Rel("reach", Var("X"), Var("X"))),
	NewRule(Rel("tagged", Var("X"), Var("C")),
		Rel("fromA", Var("X")), Rel("color", Var("X"), Var("C"))),
}

func applyProgram(r *rand.Rand) Program {
	rules := []Rule{
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("Y"), Var("Z"))),
	}
	for _, rule := range applyRuleBank {
		if r.Intn(3) > 0 {
			rules = append(rules, rule)
		}
	}
	return NewProgram(rules...)
}

// applyFacts is the random fact universe: edges between a handful of
// nodes, node colors, and reach facts stored directly (extensional
// facts of an IDB predicate).
func applyFact(r *rand.Rand, nodes int) store.Fact {
	n := func() object.Value { return object.Str(fmt.Sprintf("n%d", r.Intn(nodes))) }
	switch k := r.Intn(10); {
	case k < 6:
		return store.NewFact("edge", n(), n())
	case k < 8:
		return store.NewFact("color", n(), object.Str([]string{"red", "blue"}[r.Intn(2)]))
	default:
		return store.NewFact("reach", n(), n())
	}
}

// snapshotRows renders every IDB predicate's tuples as a key set.
func snapshotRows(t *testing.T, p Program, e *Engine) map[string]map[string]bool {
	t.Helper()
	out := make(map[string]map[string]bool)
	for _, pred := range p.IDB() {
		rows, err := e.Rows(pred)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[string]bool, len(rows))
		for _, r := range rows {
			set[RowKey(r)] = true
		}
		out[pred] = set
	}
	return out
}

// sameSet compares an Extension entry against an exact set difference.
func sameSet(t *testing.T, got [][]object.Value, want map[string]bool, label string) {
	t.Helper()
	g := make([]string, len(got))
	seen := make(map[string]bool, len(got))
	for i, r := range got {
		g[i] = RowKey(r)
		if seen[g[i]] {
			t.Fatalf("%s: %q reported twice", label, g[i])
		}
		seen[g[i]] = true
	}
	w := make([]string, 0, len(want))
	for k := range want {
		w = append(w, k)
	}
	sort.Strings(g)
	sort.Strings(w)
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s:\ngot  %v\nwant %v", label, g, w)
	}
}

// TestApplyMatchesRecompute is the oracle for in-place maintenance: on
// random positive programs and random fact batches, an engine maintained
// by Apply must hold exactly the relations a fresh Run computes after
// every batch, and report as plus/minus exactly the set differences.
func TestApplyMatchesRecompute(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		for seed := int64(0); seed < 12; seed++ {
			r := rand.New(rand.NewSource(seed))
			p := applyProgram(r)
			nodes := 5 + r.Intn(4)
			s := store.New()
			for i := 0; i < 12+r.Intn(12); i++ {
				s.AddFact(applyFact(r, nodes))
			}
			eng := mustEngine(t, s, p)
			if err := eng.RunAt(nil); err != nil {
				t.Fatal(err)
			}
			prev := snapshotRows(t, p, runFull(t, s, p))
			for batch := 0; batch < 20; batch++ {
				// A net batch: every fact flips at most once.
				ins, del := FactDelta{}, FactDelta{}
				flipped := map[string]bool{}
				for i := 0; i < 1+r.Intn(5); i++ {
					f := applyFact(r, nodes)
					if flipped[f.Key()] {
						continue
					}
					flipped[f.Key()] = true
					if s.HasFact(f) && r.Intn(2) == 0 {
						s.DeleteFact(f)
						del[f.Name] = append(del[f.Name], f.Args)
					} else if !s.HasFact(f) {
						s.AddFact(f)
						ins[f.Name] = append(ins[f.Name], f.Args)
					}
				}
				label := fmt.Sprintf("seed %d batch %d", seed, batch)
				plus, minus, err := eng.Apply(context.Background(), ins, del)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fresh := runFull(t, s, p)
				assertSameRows(t, p, eng, fresh, label)
				cur := snapshotRows(t, p, fresh)
				for _, pred := range p.IDB() {
					entered, left := map[string]bool{}, map[string]bool{}
					for k := range cur[pred] {
						if !prev[pred][k] {
							entered[k] = true
						}
					}
					for k := range prev[pred] {
						if !cur[pred][k] {
							left[k] = true
						}
					}
					sameSet(t, plus[pred], entered, label+" plus "+pred)
					sameSet(t, minus[pred], left, label+" minus "+pred)
				}
				prev = cur
			}
		}
	})
}

// panicSource fails any fact read: an engine maintained in place must
// never reach it.
type panicSource struct{ t *testing.T }

func (p panicSource) Facts(string) []store.Fact {
	p.t.Fatal("Apply read the store's facts")
	return nil
}

func (p panicSource) FactCount(string) int {
	p.t.Fatal("Apply read the store's fact counts")
	return 0
}

func (p panicSource) ScanFacts(string, []store.ArgBind, func(store.Fact) bool) {
	p.t.Fatal("Apply scanned the store")
}

// An engine that ran with RunAt is maintained from the batch alone: with
// its store taken away after the run, Apply still brings it to the
// fixpoint of the mutated database.
func TestApplyNeverReadsStore(t *testing.T) {
	p := NewProgram(append([]Rule{
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("Y"), Var("Z"))),
	}, applyRuleBank...)...)
	s := store.New()
	for _, e := range [][2]string{{"n0", "n1"}, {"n1", "n2"}, {"n2", "n0"}, {"n2", "n2"}} {
		s.AddFact(edgeFact(e[0], e[1]))
	}
	s.AddFact(store.NewFact("color", object.Str("n1"), object.Str("red")))
	eng := mustEngine(t, s, p)
	if err := eng.RunAt(nil); err != nil {
		t.Fatal(err)
	}
	eng.st, eng.src = nil, panicSource{t}

	s.AddFact(edgeFact("n2", "n3"))
	s.DeleteFact(edgeFact("n1", "n2"))
	s.AddFact(store.NewFact("color", object.Str("n3"), object.Str("red")))
	ins := FactDelta{
		"edge":  {{object.Str("n2"), object.Str("n3")}},
		"color": {{object.Str("n3"), object.Str("red")}},
	}
	del := FactDelta{"edge": {{object.Str("n1"), object.Str("n2")}}}
	if _, _, err := eng.Apply(context.Background(), ins, del); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, p, eng, runFull(t, s, p), "after Apply")
}

// Apply refuses engines it cannot maintain, and a failed Apply retires
// the engine.
func TestApplyGuards(t *testing.T) {
	s := store.New()
	s.AddFact(edgeFact("a", "b"))
	p := closureProgram()

	plain := runFull(t, s, p)
	if _, _, err := plain.Apply(context.Background(), nil, nil); err == nil {
		t.Fatal("Apply accepted an engine whose extents were read lazily (Run)")
	}
	fresh := mustEngine(t, s, p)
	if _, _, err := fresh.Apply(context.Background(), nil, nil); err == nil {
		t.Fatal("Apply accepted an engine that never ran")
	}

	eng := mustEngine(t, s, p)
	if err := eng.RunAt(nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.AddFact(edgeFact("b", "c"))
	_, _, err := eng.Apply(ctx, FactDelta{"edge": {{object.Str("b"), object.Str("c")}}}, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Apply under a canceled context: %v", err)
	}
	if _, _, err := eng.Apply(context.Background(), nil, nil); err == nil {
		t.Fatal("Apply accepted an engine whose previous Apply failed")
	}
}
