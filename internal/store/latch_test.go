package store_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// The error latch (store.Store.backendErr): once a backend write has
// failed, every mutator refuses and changes nothing, and Close reports
// the first failure. The method tables below classify every exported
// method of *store.Store; a method missing from them fails the test, so
// a new mutator cannot skip the latch unnoticed.

// storeReads are the methods that leave the store's state alone.
// Subscribe registers a reader of acknowledged events, not a write; Save
// and SaveFile export the state.
var storeReads = []string{
	"BackendStats", "Entities", "FactArities", "FactCount", "Facts", "ForEach",
	"Get", "GetCopy", "Has", "HasFact", "Intervals",
	"IntervalsContaining", "IntervalsOverlapping", "IntervalsWithin", "Len",
	"OIDs", "OIDsOfKind", "ReadTogether", "Relations", "Save", "SaveFile",
	"ScanFacts", "SchemaVersion", "Stats", "Subscribe", "TotalFacts",
}

// storeMutators attempt one change each and report whether the store
// acknowledged it. Close is checked last, on its own contract.
func storeMutators(snapshot []byte, snapshotFile string) map[string]func(*store.Store) bool {
	fresh := store.RefFact("r", "x", "y")
	held := store.RefFact("r", "a", "b")
	return map[string]func(*store.Store) bool{
		"Put": func(s *store.Store) bool { return s.Put(object.NewEntity("z")) == nil },
		"Update": func(s *store.Store) bool {
			return s.Update("a", func(o *object.Object) error { o.Set("v", object.Num(99)); return nil }) == nil
		},
		"Delete":    func(s *store.Store) bool { return s.Delete("a") },
		"DeleteErr": func(s *store.Store) bool { ok, err := s.DeleteErr("gi1"); return ok || err == nil },
		"AddFact":   func(s *store.Store) bool { return s.AddFact(fresh) },
		"AddFactErr": func(s *store.Store) bool {
			ok, err := s.AddFactErr(fresh)
			return ok || err == nil
		},
		"DeleteFact": func(s *store.Store) bool { return s.DeleteFact(held) },
		"DeleteFactErr": func(s *store.Store) bool {
			ok, err := s.DeleteFactErr(held)
			return ok || err == nil
		},
		"Checkpoint": func(s *store.Store) bool { return s.Checkpoint() == nil },
		"Compact":    func(s *store.Store) bool { return s.Compact() == nil },
		"Load":       func(s *store.Store) bool { return s.Load(bytes.NewReader(snapshot)) == nil },
		"LoadFile":   func(s *store.Store) bool { return s.LoadFile(snapshotFile) == nil },
	}
}

// classified checks that the tables name exactly the exported methods of
// typ: none unclassified, none stale.
func classified(t *testing.T, typ reflect.Type, reads []string, mutators []string, special ...string) {
	t.Helper()
	known := map[string]bool{}
	for _, group := range [][]string{reads, mutators, special} {
		for _, name := range group {
			if known[name] {
				t.Errorf("%s.%s is classified twice", typ, name)
			}
			known[name] = true
		}
	}
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if !known[name] {
			t.Errorf("%s.%s is unclassified: add it to the reads or the mutators (a mutator must refuse on a poisoned store)", typ, name)
		}
		delete(known, name)
	}
	for name := range known {
		t.Errorf("%s has no method %s: remove it from the tables", typ, name)
	}
}

func keys(m map[string]func(*store.Store) bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestEveryMutatorRefusesAfterFailure fails one backend write and then
// calls every mutator of *store.Store. The flaky backend stays healthy
// after its one failure, so only the store's own latch can refuse.
func TestEveryMutatorRefusesAfterFailure(t *testing.T) {
	dir := t.TempDir()
	volatile := store.New()
	volatile.Put(object.NewEntity("q"))
	snapFile := filepath.Join(t.TempDir(), "snap.json")
	if err := volatile.SaveFile(snapFile); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := volatile.Save(&snap); err != nil {
		t.Fatal(err)
	}
	mutators := storeMutators(snap.Bytes(), snapFile)
	classified(t, reflect.TypeOf(&store.Store{}), storeReads, keys(mutators), "Close")

	// Three writes succeed; the fourth fails.
	s := openDurable(t, &flakyBackend{Store: openBackend(t, dir), failAt: 3})
	for _, err := range []error{
		s.Put(object.NewEntity("a").Set("v", object.Num(1))),
		s.Put(object.NewInterval("gi1", interval.FromPairs(0, 10)).Set(object.AttrEntities, object.RefSet("a"))),
		func() error { _, err := s.AddFactErr(store.RefFact("r", "a", "b")); return err }(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, first := s.AddFactErr(store.RefFact("r", "b", "c"))
	if first == nil {
		t.Fatal("the injected write failure was acknowledged")
	}

	var before bytes.Buffer
	if err := s.Save(&before); err != nil {
		t.Fatal(err)
	}
	events := 0
	s.Subscribe(func(store.Event) { events++ })
	for _, name := range keys(mutators) {
		if mutators[name](s) {
			t.Errorf("%s was acknowledged on a store whose backend write failed", name)
		}
		var after bytes.Buffer
		if err := s.Save(&after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("%s changed a poisoned store", name)
		}
	}
	if events != 0 {
		t.Errorf("refused mutations notified %d events", events)
	}
	if err := s.Close(); !errors.Is(err, first) {
		t.Errorf("Close = %v, want the first failure %v", err, first)
	}
}
