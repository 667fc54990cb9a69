package constraint

import (
	"errors"
	"sync"
	"sync/atomic"
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

// TestBudgetSharedAcrossGoroutines: parallel evaluation workers share one
// budget, so concurrent Spend calls must neither lose nor double-count a
// step. Under a limit of L steps exactly L single-step spends succeed;
// unlimited, Spent equals the total spent.
func TestBudgetSharedAcrossGoroutines(t *testing.T) {
	const workers, calls, limit = 4, 500, 777
	run := func(b *Budget) int64 {
		var ok atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < calls; j++ {
					if b.Spend(1) == nil {
						ok.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		return ok.Load()
	}
	if got := run(NewBudget(limit, nil)); got != limit {
		t.Errorf("limited budget: %d spends succeeded, want %d", got, limit)
	}
	b := NewBudget(0, nil)
	if got := run(b); got != workers*calls {
		t.Errorf("unlimited budget: %d spends succeeded, want %d", got, workers*calls)
	}
	if got := b.Spent(); got != workers*calls {
		t.Errorf("unlimited budget: Spent() = %d, want %d", got, workers*calls)
	}
}
