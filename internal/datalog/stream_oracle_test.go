package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"videodb/internal/object"
	"videodb/internal/store"
)

// TestStreamingIncrementalMatches runs randomized insert/delete batches
// through Apply and compares each against a from-scratch fixpoint of the
// mutated store.
func TestStreamingIncrementalMatches(t *testing.T) {
	p := NewProgram(
		NewRule(Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("X"), Var("Y"))),
		NewRule(Rel("reach", Var("X"), Var("Z")),
			Rel("reach", Var("X"), Var("Y")), Rel("edge", Var("Y"), Var("Z"))),
	)
	edge := func(a, b string) store.Fact {
		return store.NewFact("edge", object.Str(a), object.Str(b))
	}
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := store.New()
		nodes := make([]string, 4+r.Intn(4))
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%d", i)
		}
		present := map[[2]string]bool{}
		for i := 0; i < 8+r.Intn(6); i++ {
			e := [2]string{nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]}
			if !present[e] {
				s.AddFact(edge(e[0], e[1]))
				present[e] = true
			}
		}
		// The engine runs on the pre-batch store and applies the batch in
		// place.
		eng := mustEngine(t, s, p)
		if err := eng.RunAt(nil); err != nil {
			t.Fatal(err)
		}
		before := make(map[[2]string]bool, len(present))
		for e := range present {
			before[e] = true
		}
		for i := 0; i < 2+r.Intn(5); i++ {
			e := [2]string{nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]}
			if present[e] {
				s.DeleteFact(edge(e[0], e[1]))
				delete(present, e)
			} else {
				s.AddFact(edge(e[0], e[1]))
				present[e] = true
			}
		}
		ins, del := FactDelta{}, FactDelta{}
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

		want := mustEngine(t, s, p)
		wantExt, _, _ := fixpointOf(t, want, p)
		if _, _, err := eng.Apply(context.Background(), ins, del); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rows, err := eng.Rows("reach")
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(rows))
		for i, row := range rows {
			keys[i] = RowKey(row)
		}
		got := map[string][]string{"reach": keys}
		sameExtents(t, fmt.Sprintf("seed-%d", seed), "incremental vs recompute",
			got, map[string][]string{"reach": wantExt["reach"]})
	}
}

// trippingContext fails Err() after a fixed number of checks — it drives
// cancellation to trigger *mid-pipeline*, between the engine's periodic
// tick checks, rather than before the run starts.
type trippingContext struct {
	checks  atomic.Int64
	tripAt  int64
	tripped atomic.Bool
}

func (c *trippingContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *trippingContext) Done() <-chan struct{}       { return nil }
func (c *trippingContext) Value(any) any               { return nil }
func (c *trippingContext) Err() error {
	if c.checks.Add(1) > c.tripAt {
		c.tripped.Store(true)
		return context.Canceled
	}
	return nil
}

// TestStreamingMidStreamCancellation verifies that the pull pipeline
// observes cancellation between tuples of a large join — not just at
// round boundaries.
func TestStreamingMidStreamCancellation(t *testing.T) {
	s := store.New()
	const n = 120 // n^2 candidate pairs per round ≫ cancelCheckInterval
	for i := 0; i < n; i++ {
		s.AddFact(store.NewFact("a", object.Num(float64(i))))
		s.AddFact(store.NewFact("b", object.Num(float64(i))))
	}
	p := NewProgram(
		NewRule(Rel("pair", Var("X"), Var("Y")), Rel("a", Var("X")), Rel("b", Var("Y"))),
	)
	ctx := &trippingContext{tripAt: 3} // survives the run preamble, dies inside the join
	e := mustEngine(t, s, p, WithContext(ctx))
	err := e.Run()
	if !IsCanceled(err) {
		t.Fatalf("want cancellation error, got %v", err)
	}
	if !ctx.tripped.Load() {
		t.Fatal("context never tripped")
	}
	// The run died mid-join: strictly between zero and n^2 pairs fired.
	if f := e.Stats().Firings; f >= n*n {
		t.Fatalf("run completed (%d firings) despite cancellation", f)
	}
}
