package store

import (
	"errors"
	"sync"
	"testing"

	"videodb/internal/interval"
	"videodb/internal/object"
)

func newTestStore(t testing.TB, opts ...Option) *Store {
	t.Helper()
	s := NewWith(opts...)
	objs := []*object.Object{
		object.NewEntity("o1").Set("name", object.Str("David")).Set("role", object.Str("Victim")),
		object.NewEntity("o2").Set("name", object.Str("Philip")).Set("role", object.Str("Murderer")),
		object.NewEntity("o3").Set("name", object.Str("Brandon")).Set("role", object.Str("Murderer")),
		object.NewEntity("o4").Set("identification", object.Str("Chest")),
		object.NewInterval("gi1", interval.FromPairs(0, 10)).
			Set(object.AttrEntities, object.RefSet("o1", "o2", "o3", "o4")).
			Set("subject", object.Str("murder")),
		object.NewInterval("gi2", interval.FromPairs(20, 80)).
			Set(object.AttrEntities, object.RefSet("o1", "o2", "o3", "o4")).
			Set("subject", object.Str("Giving a party")),
		object.NewInterval("gi3", interval.FromPairs(5, 25, 40, 50)).
			Set(object.AttrEntities, object.RefSet("o2")).
			Set("subject", object.Str("murder")),
	}
	for _, o := range objs {
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	s.AddFact(RefFact("in", "o1", "o4", "gi1"))
	s.AddFact(RefFact("in", "o1", "o4", "gi2"))
	return s
}

func oidsEqual(a []object.OID, b ...object.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPutGetDelete(t *testing.T) {
	s := New()
	if err := s.Put(nil); err == nil {
		t.Error("Put(nil) should error")
	}
	if err := s.Put(object.NewEntity("")); err == nil {
		t.Error("Put with empty oid should error")
	}
	o := object.NewEntity("e1").Set("name", object.Str("x"))
	if err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	// Store keeps a private copy: mutating the original must not leak in.
	o.Set("name", object.Str("changed"))
	if got := s.Get("e1").Attr("name"); !got.Equal(object.Str("x")) {
		t.Errorf("store leaked caller mutation: %v", got)
	}
	// GetCopy is isolated the other way.
	c := s.GetCopy("e1")
	c.Set("name", object.Str("other"))
	if got := s.Get("e1").Attr("name"); !got.Equal(object.Str("x")) {
		t.Errorf("GetCopy mutation leaked: %v", got)
	}
	if s.Get("missing") != nil || s.GetCopy("missing") != nil {
		t.Error("missing object should be nil")
	}
	if !s.Has("e1") || s.Has("zz") {
		t.Error("Has")
	}
	if !s.Delete("e1") || s.Delete("e1") {
		t.Error("Delete should report prior presence")
	}
	if s.Len() != 0 {
		t.Error("store should be empty after delete")
	}
}

func TestKindsAndListing(t *testing.T) {
	s := newTestStore(t)
	if got := s.Entities(); !oidsEqual(got, "o1", "o2", "o3", "o4") {
		t.Errorf("Entities = %v", got)
	}
	if got := s.Intervals(); !oidsEqual(got, "gi1", "gi2", "gi3") {
		t.Errorf("Intervals = %v", got)
	}
	if got := s.OIDs(); len(got) != 7 {
		t.Errorf("OIDs = %v", got)
	}
	var n int
	s.ForEach(func(o *object.Object) bool { n++; return true })
	if n != 7 {
		t.Errorf("ForEach visited %d", n)
	}
	n = 0
	s.ForEach(func(o *object.Object) bool { n++; return false })
	if n != 1 {
		t.Errorf("ForEach early stop visited %d", n)
	}
}

func TestUpdate(t *testing.T) {
	s := newTestStore(t)
	err := s.Update("o1", func(o *object.Object) error {
		o.Set("role", object.Str("Ghost"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Get("o1").Attr("role"); !got.Equal(object.Str("Ghost")) {
		t.Errorf("after update: %v", got)
	}
	if err := s.Update("nope", func(*object.Object) error { return nil }); err == nil {
		t.Error("Update of missing oid should error")
	}
	sentinel := errors.New("boom")
	if err := s.Update("o1", func(*object.Object) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("Update should propagate fn error, got %v", err)
	}
	// fn error must not change the object.
	if got := s.Get("o1").Attr("role"); !got.Equal(object.Str("Ghost")) {
		t.Errorf("failed update mutated object: %v", got)
	}
}

func TestEntityIndex(t *testing.T) {
	for _, disabled := range []bool{false, true} {
		var s *Store
		if disabled {
			s = newTestStore(t, WithoutEntityIndex())
		} else {
			s = newTestStore(t)
		}
		if got := s.IntervalsContaining("o1"); !oidsEqual(got, "gi1", "gi2") {
			t.Errorf("disabled=%v: IntervalsContaining(o1) = %v", disabled, got)
		}
		if got := s.IntervalsContaining("o2"); !oidsEqual(got, "gi1", "gi2", "gi3") {
			t.Errorf("disabled=%v: IntervalsContaining(o2) = %v", disabled, got)
		}
		if got := s.IntervalsContaining("nobody"); len(got) != 0 {
			t.Errorf("disabled=%v: IntervalsContaining(nobody) = %v", disabled, got)
		}
		// Index follows updates.
		if err := s.Update("gi3", func(o *object.Object) error {
			o.Set(object.AttrEntities, object.RefSet("o4"))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := s.IntervalsContaining("o2"); !oidsEqual(got, "gi1", "gi2") {
			t.Errorf("disabled=%v: after update = %v", disabled, got)
		}
		if got := s.IntervalsContaining("o4"); !oidsEqual(got, "gi1", "gi2", "gi3") {
			t.Errorf("disabled=%v: o4 after update = %v", disabled, got)
		}
		// Index follows deletes.
		s.Delete("gi1")
		if got := s.IntervalsContaining("o1"); !oidsEqual(got, "gi2") {
			t.Errorf("disabled=%v: after delete = %v", disabled, got)
		}
	}
}

func TestTemporalQueries(t *testing.T) {
	for _, disabled := range []bool{false, true} {
		var s *Store
		if disabled {
			s = newTestStore(t, WithoutTemporalIndex())
		} else {
			s = newTestStore(t)
		}
		// gi1 [0,10], gi2 [20,80], gi3 [5,25] ∪ [40,50]
		if got := s.IntervalsOverlapping(interval.Closed(0, 4)); !oidsEqual(got, "gi1") {
			t.Errorf("disabled=%v: overlap [0,4] = %v", disabled, got)
		}
		if got := s.IntervalsOverlapping(interval.Closed(8, 22)); !oidsEqual(got, "gi1", "gi2", "gi3") {
			t.Errorf("disabled=%v: overlap [8,22] = %v", disabled, got)
		}
		// The gap of gi3 (25,40): its hull covers the window but the exact
		// duration does not, so only gi2 qualifies.
		if got := s.IntervalsOverlapping(interval.Open(30, 39)); !oidsEqual(got, "gi2") {
			t.Errorf("disabled=%v: gap query = %v", disabled, got)
		}
		if got := s.IntervalsOverlapping(interval.Closed(100, 200)); len(got) != 0 {
			t.Errorf("disabled=%v: far query = %v", disabled, got)
		}
		if got := s.IntervalsWithin(interval.Closed(0, 30)); !oidsEqual(got, "gi1") {
			t.Errorf("disabled=%v: within [0,30] = %v", disabled, got)
		}
		if got := s.IntervalsWithin(interval.Closed(0, 100)); !oidsEqual(got, "gi1", "gi2", "gi3") {
			t.Errorf("disabled=%v: within [0,100] = %v", disabled, got)
		}
		// Writes invalidate the lazily built tree.
		s.Put(object.NewInterval("gi4", interval.FromPairs(100, 110)))
		if got := s.IntervalsOverlapping(interval.Closed(100, 200)); !oidsEqual(got, "gi4") {
			t.Errorf("disabled=%v: after insert = %v", disabled, got)
		}
	}
}

func TestStats(t *testing.T) {
	s := newTestStore(t)
	st := s.Stats()
	if st.Objects != 7 || st.Entities != 4 || st.Intervals != 3 {
		t.Errorf("Stats objects = %+v", st)
	}
	if st.Facts != 2 || st.Relations != 1 {
		t.Errorf("Stats facts = %+v", st)
	}
	if st.IndexTerms == 0 {
		t.Error("expected index terms")
	}
}

func TestCheckpointRequiresDurable(t *testing.T) {
	s := New()
	if err := s.Checkpoint(); err == nil {
		t.Error("Checkpoint on in-memory store should fail")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close on in-memory store should be a no-op: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := newTestStore(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				switch j % 4 {
				case 0:
					s.IntervalsContaining("o1")
				case 1:
					s.IntervalsOverlapping(interval.Closed(0, 50))
				case 2:
					s.Put(object.NewEntity(object.OID("tmp")).Set("n", object.Num(float64(i*100+j))))
				default:
					s.Get("o1")
				}
			}
		}(i)
	}
	wg.Wait()
}
