package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"videodb/internal/interval"
	"videodb/internal/object"
)

// Write-path tests: tombstone-based fact deletion, the reader-parallel
// range index, and the changelog. The durable write path's failure
// contract is in durable_test.go.

// TestDeleteFactOrderPreserved is the S3 regression test: tombstone-based
// deletion (and the compaction it triggers) must keep Facts returning the
// surviving facts in insertion order, with re-added facts at the end.
func TestDeleteFactOrderPreserved(t *testing.T) {
	s := New()
	var oracle []Fact
	fact := func(i int) Fact { return NewFact("r", object.Num(float64(i))) }
	for i := 0; i < 40; i++ {
		s.AddFact(fact(i))
		oracle = append(oracle, fact(i))
	}
	check := func(step string) {
		t.Helper()
		got := s.Facts("r")
		if len(got) != len(oracle) {
			t.Fatalf("%s: %d facts, want %d", step, len(got), len(oracle))
		}
		for i := range oracle {
			if !got[i].Equal(oracle[i]) {
				t.Fatalf("%s: fact %d = %v, want %v", step, i, got[i], oracle[i])
			}
		}
	}

	// Scattered deletes (below the compaction threshold).
	for _, i := range []int{3, 0, 39, 17, 18} {
		if !s.DeleteFact(fact(i)) {
			t.Fatalf("delete %d reported absent", i)
		}
		for j, f := range oracle {
			if f.Equal(fact(i)) {
				oracle = append(oracle[:j], oracle[j+1:]...)
				break
			}
		}
	}
	check("scattered deletes")

	// Re-adding a deleted fact appends at the end.
	s.AddFact(fact(17))
	oracle = append(oracle, fact(17))
	check("re-add")

	// Enough deletes to force compaction, in shuffled order.
	r := rand.New(rand.NewSource(9))
	for _, i := range r.Perm(36) {
		f := oracle[i%len(oracle)]
		if s.DeleteFact(f) {
			for j := range oracle {
				if oracle[j].Equal(f) {
					oracle = append(oracle[:j], oracle[j+1:]...)
					break
				}
			}
		}
		check("compacting deletes")
	}
}

// TestFindByAttrRangeConcurrent exercises the RLock fast path: many
// readers share the cached index while a writer keeps invalidating it.
// Run with -race; the assertion is that results are always consistent
// snapshots (sorted, within range).
func TestFindByAttrRangeConcurrent(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.Put(object.NewEntity(object.OID(fmt.Sprintf("o%02d", i))).
			Set("score", object.Num(float64(i))))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := s.FindByAttrRange("score", interval.Closed(10, 50))
				for i, id := range got {
					if i > 0 && got[i-1] >= id {
						t.Errorf("unsorted result: %v", got)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s.Put(object.NewEntity(object.OID(fmt.Sprintf("o%02d", i%64))).
			Set("score", object.Num(float64(i%97))))
	}
	close(stop)
	wg.Wait()
}

// TestSubscribeChangelog pins the changelog contract: acknowledged
// mutations emit exactly one event each, in order; rejected or failed
// mutations emit nothing; unsubscribe stops delivery.
func TestSubscribeChangelog(t *testing.T) {
	s := New()
	var got []Event
	cancel := s.Subscribe(func(ev Event) { got = append(got, ev) })

	s.AddFact(RefFact("r", "a", "b"))
	s.AddFact(RefFact("r", "a", "b")) // duplicate: no event
	if err := s.Put(object.NewEntity("e1")); err != nil {
		t.Fatal(err)
	}
	s.DeleteFact(RefFact("r", "a", "b"))
	s.DeleteFact(RefFact("r", "a", "b")) // absent: no event
	s.Delete("e1")
	s.Delete("e1") // absent: no event

	want := []EventKind{EventAddFact, EventPutObject, EventDeleteFact, EventDeleteObject}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(got), len(want), got)
	}
	for i, k := range want {
		if got[i].Kind != k {
			t.Fatalf("event %d kind = %v, want %v", i, got[i].Kind, k)
		}
	}
	if got[0].Fact.Name != "r" || got[1].OID != "e1" {
		t.Fatalf("event payloads wrong: %+v", got[:2])
	}

	cancel()
	s.AddFact(RefFact("r", "x", "y"))
	if len(got) != len(want) {
		t.Fatal("event delivered after unsubscribe")
	}
}
