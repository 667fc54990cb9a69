package constraint

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestNilBudgetIsFree(t *testing.T) {
	var b *Budget
	for i := 0; i < 10; i++ {
		if err := b.Spend(1 << 40); err != nil {
			t.Fatalf("nil budget Spend: %v", err)
		}
	}
}

func TestUnlimitedBudgetNeverExhausts(t *testing.T) {
	b := NewBudget(0, nil)
	if err := b.Spend(1 << 40); err != nil {
		t.Fatalf("unlimited budget Spend: %v", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	b := NewBudget(10, nil)
	if err := b.Spend(10); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := b.Spend(1); !errors.Is(err, ErrBudget) {
		t.Fatalf("over budget err = %v, want ErrBudget", err)
	}
}

func TestBudgetCancellationCheck(t *testing.T) {
	boom := errors.New("client went away")
	calls := 0
	b := NewBudget(0, func() error {
		calls++
		return boom
	})
	// The check fires within one budgetCheckInterval of steps, not on
	// every Spend.
	var got error
	for i := 0; i < budgetCheckInterval+1 && got == nil; i++ {
		got = b.Spend(1)
	}
	if !errors.Is(got, boom) {
		t.Fatalf("check error = %v, want %v", got, boom)
	}
	if calls != 1 {
		t.Errorf("check called %d times, want 1", calls)
	}
}

func TestFormulaEntailsWithinBudget(t *testing.T) {
	prev := SetMemoEnabled(false)
	defer SetMemoEnabled(prev)

	// A multi-variable entailment that exercises the negation search.
	f := FromAtom(NewAtom(V("x"), Lt, V("y"))).And(FromAtom(NewAtom(V("y"), Lt, V("z"))))
	g := FromAtom(NewAtom(V("x"), Lt, V("z")))

	ok, err := f.EntailsWithin(g, NewBudget(0, nil))
	if err != nil || !ok {
		t.Fatalf("unlimited EntailsWithin = %v, %v; want true", ok, err)
	}
	if ok != f.Entails(g) {
		t.Error("budgeted and unbudgeted verdicts diverge")
	}
	if _, err := f.EntailsWithin(g, NewBudget(1, nil)); !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget err = %v, want ErrBudget", err)
	}
}

func TestFormulaSatisfiableWithinBudget(t *testing.T) {
	prev := SetMemoEnabled(false)
	defer SetMemoEnabled(prev)

	f := FromAtom(VarCmp("x", Gt, 0)).And(FromAtom(VarCmp("x", Lt, 10)))
	ok, err := f.SatisfiableWithin(NewBudget(0, nil))
	if err != nil || !ok {
		t.Fatalf("SatisfiableWithin = %v, %v; want true", ok, err)
	}
	if _, err := f.SatisfiableWithin(NewBudget(1, nil)); !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget err = %v, want ErrBudget", err)
	}
}

func TestSetConjWithinBudget(t *testing.T) {
	prev := SetMemoEnabled(false)
	defer SetMemoEnabled(prev)

	c := SetConj{Member("a", "X"), Subset(SetVar("X"), SetVar("Y"))}
	g := SetConj{Member("a", "Y")}
	ok, err := c.EntailsWithin(g, NewBudget(0, nil))
	if err != nil || !ok {
		t.Fatalf("EntailsWithin = %v, %v; want true", ok, err)
	}
	if ok != c.Entails(g) {
		t.Error("budgeted and unbudgeted verdicts diverge")
	}
	if _, err := c.SatisfiableWithin(NewBudget(1, nil)); !errors.Is(err, ErrBudget) {
		t.Fatalf("tiny budget err = %v, want ErrBudget", err)
	}
}

// TestMemoCountsPerBudget: concurrent callers sharing the process-wide
// memo each see exactly their own lookups through their budget, so the
// per-budget counts add up to the global counter delta (none is counted
// twice, none is lost).
func TestMemoCountsPerBudget(t *testing.T) {
	prev := SetMemoEnabled(true)
	defer SetMemoEnabled(prev)
	ResetMemo()
	before := MemoSnapshot()

	const callers, calls = 4, 200
	budgets := make([]*Budget, callers)
	var wg sync.WaitGroup
	for i := range budgets {
		budgets[i] = NewBudget(0, nil)
		wg.Add(1)
		go func(b *Budget, seed int64) {
			defer wg.Done()
			// A small formula pool, so callers both miss and hit, on their
			// own entries and on each other's.
			r := rand.New(rand.NewSource(seed))
			for j := 0; j < calls; j++ {
				f := Between("t", float64(r.Intn(6)), float64(6+r.Intn(6)))
				g := Between("t", float64(r.Intn(6)), float64(6+r.Intn(6)))
				if _, err := f.EntailsWithin(g, b); err != nil {
					t.Error(err)
					return
				}
			}
		}(budgets[i], int64(i))
	}
	wg.Wait()
	after := MemoSnapshot()

	var sum uint64
	for i, b := range budgets {
		hits, misses := b.MemoCounts()
		if hits+misses != calls {
			t.Errorf("caller %d: %d hits + %d misses, want %d lookups", i, hits, misses, calls)
		}
		sum += hits + misses
	}
	if global := (after.Hits - before.Hits) + (after.Misses - before.Misses); sum != global {
		t.Errorf("per-budget lookups sum to %d, global delta is %d", sum, global)
	}
	if after.Hits == before.Hits {
		t.Error("no memo hits: the workload should repeat formulas")
	}
}

// TestMemoHitIsFree: with the memo on, a cached verdict must not charge
// the budget — a warm server answers repeated constraint checks without
// burning per-request step budgets.
func TestMemoHitIsFree(t *testing.T) {
	prev := SetMemoEnabled(true)
	defer SetMemoEnabled(prev)
	ResetMemo()

	c := Conj{VarCmp("q", Gt, 1), VarCmp("q", Lt, 5)}
	if _, err := conjSatisfiableB(c, nil); err != nil { // warm the memo
		t.Fatal(err)
	}
	b := NewBudget(1, nil)
	if _, err := conjSatisfiableB(c, b); err != nil {
		t.Fatalf("memo hit charged the budget: %v", err)
	}
}
