package segment

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"videodb/internal/object"
	"videodb/internal/store"
)

// The backend's error latch (Store.err): after a failed write, every
// mutator refuses and writes nothing, and Close reports the first
// failure. The tables classify every exported method of *Store; one
// missing from them fails the test.

// segmentReads leave the backend's state alone. SetObjectSource is
// open-time wiring: it installs the flush-time object source and writes
// nothing.
var segmentReads = []string{
	"BackendStats", "FactArities", "FactCount", "HasFact", "RecoveredObjects",
	"Relations", "ScanFacts", "SetObjectSource", "TotalFacts",
}

// segmentMutators attempt one durable change each and return its error.
var segmentMutators = map[string]func(*Store) error{
	"AddFact":         func(s *Store) error { f := fact("r", "fresh"); return s.AddFact(f, f.Key()) },
	"DeleteFact":      func(s *Store) error { f := fact("r", "k0"); return s.DeleteFact(f, f.Key()) },
	"LogPutObject":    func(s *Store) error { return s.LogPutObject(object.NewEntity("e9")) },
	"LogDeleteObject": func(s *Store) error { return s.LogDeleteObject("e1") },
	"Flush":           func(s *Store) error { return s.Flush() },
	"Compact":         func(s *Store) error { return s.Compact() },
}

// backendState renders everything a write could change: the visible
// facts, the resident counts, and every file in the directory with its
// size.
func backendState(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	for _, rel := range s.Relations() {
		var keys []string
		s.ScanFacts(rel, nil, func(f store.Fact) bool { keys = append(keys, f.Key()); return true })
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s: %v\n", rel, keys)
	}
	bs := s.BackendStats()
	fmt.Fprintf(&b, "total %d segments %d facts %d tombs %d mem %d flushes %d compactions %d\n",
		s.TotalFacts(), bs.Segments, bs.SegmentFacts, bs.Tombstones, bs.MemtableFacts, bs.Flushes, bs.Compactions)
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d\n", e.Name(), info.Size())
	}
	return b.String()
}

func TestEveryMutatorRefusesAfterFailure(t *testing.T) {
	typ := reflect.TypeOf(&Store{})
	known := map[string]bool{"Close": true}
	for _, name := range segmentReads {
		known[name] = true
	}
	for name := range segmentMutators {
		known[name] = true
	}
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; !known[name] {
			t.Errorf("Store.%s is unclassified: add it to segmentReads or segmentMutators (a mutator must refuse after a failed write)", name)
		}
	}
	if len(known) != typ.NumMethod() {
		t.Errorf("the tables classify %d methods, *Store has %d: remove the stale entries", len(known), typ.NumMethod())
	}

	dir := t.TempDir()
	b, err := Open(dir, WithFlushThreshold(4))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	// One flushed segment (k0..k3), then a memtable add and a tombstone.
	for i := 0; i < 5; i++ {
		if _, err := st.AddFactErr(fact("r", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put(object.NewEntity("e1")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteFactErr(fact("r", "k1")); err != nil {
		t.Fatal(err)
	}

	// Close the tail file behind the backend's back: the next append
	// fails at the OS level.
	b.tail.f.Close()
	f := fact("r", "lost")
	first := b.AddFact(f, f.Key())
	if first == nil {
		t.Fatal("an append onto a closed tail was acknowledged")
	}

	before := backendState(t, b)
	names := make([]string, 0, len(segmentMutators))
	for name := range segmentMutators {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := segmentMutators[name](b); err == nil {
			t.Errorf("%s succeeded after a failed write", name)
		}
		if after := backendState(t, b); after != before {
			t.Fatalf("%s changed a poisoned backend:\nbefore:\n%s\nafter:\n%s", name, before, after)
		}
	}
	// No mutator reaches the latch once it is set, so hand it a later
	// failure directly, as a mutator missing its gate would: the first
	// failure must stay the one Close reports.
	later := errors.New("a later failure")
	b.latch(later)
	if err := b.Close(); !errors.Is(err, first) || errors.Is(err, later) {
		t.Errorf("Close = %v, want the first failure %v", err, first)
	}
}
