package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"videodb/internal/object"
)

// Regression test for the Load write-path bug: Load used to take the
// write lock in two separate critical sections (clear, then repopulate),
// so a concurrent AddFact/Query could observe a half-reset store, and it
// never bumped schemaVer, so cached query plans survived a wholesale
// snapshot swap. Run under -race: concurrent Loads, asserts, and reads
// must never see a state that is neither the old nor the new snapshot.
func TestLoadConcurrentWithAsserts(t *testing.T) {
	// Snapshot with a known marker object and fact set.
	base := New()
	if err := base.Put(object.NewEntity("snap")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		base.AddFact(NewFact("loaded", object.Num(float64(i))))
	}
	var snap bytes.Buffer
	if err := base.Save(&snap); err != nil {
		t.Fatal(err)
	}
	data := snap.Bytes()

	s := New()
	verBefore := func() uint64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.schemaVer
	}()

	var wg sync.WaitGroup
	start := make(chan struct{})
	// Writers keep asserting into a scratch relation.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				s.AddFact(NewFact("scratch", object.Str(fmt.Sprintf("w%d-%d", w, i))))
			}
		}(w)
	}
	// Readers scan while the swap happens.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				n := 0
				s.ScanFacts("loaded", nil, func(Fact) bool { n++; return true })
				// A scan must see the relation either absent or complete:
				// never a partially-populated snapshot.
				if n != 0 && n != 50 {
					t.Errorf("observed partially loaded relation: %d facts", n)
					return
				}
				_ = s.TotalFacts()
				_ = s.Stats()
			}
		}()
	}
	// Loaders swap in the snapshot repeatedly.
	for l := 0; l < 2; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				if err := s.Load(bytes.NewReader(data)); err != nil {
					t.Errorf("load: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	// The final state is exactly the last snapshot (every Load clears
	// scratch writes that landed before it; writes after the last Load
	// may remain, but "loaded" must be complete either way).
	if got := s.FactCount("loaded"); got != 50 {
		t.Fatalf("loaded facts after concurrent swap = %d, want 50", got)
	}
	if !s.Has("snap") {
		t.Fatal("snapshot object missing after Load")
	}
	// Load must bump schemaVer so plan caches keyed on it are invalidated.
	s.mu.RLock()
	verAfter := s.schemaVer
	s.mu.RUnlock()
	if verAfter <= verBefore {
		t.Fatalf("schemaVer = %d after Load, want > %d", verAfter, verBefore)
	}
}
