package store

import (
	"testing"

	"videodb/internal/object"
)

func TestFactBasics(t *testing.T) {
	f := RefFact("in", "o1", "o4", "gi1")
	if got := f.String(); got != "in(o1, o4, gi1)" {
		t.Errorf("String = %q", got)
	}
	g := NewFact("in", object.Ref("o1"), object.Ref("o4"), object.Ref("gi1"))
	if !f.Equal(g) {
		t.Error("structurally equal facts should be Equal")
	}
	if f.Equal(RefFact("in", "o1", "o4")) {
		t.Error("arity should matter")
	}
	if f.Equal(RefFact("out", "o1", "o4", "gi1")) {
		t.Error("name should matter")
	}
	if f.Equal(RefFact("in", "o1", "o4", "gi2")) {
		t.Error("args should matter")
	}
}

func TestFactStoreOperations(t *testing.T) {
	s := New()
	f := RefFact("in", "o1", "o4", "gi1")
	if !s.AddFact(f) {
		t.Error("first add should report change")
	}
	if s.AddFact(f) {
		t.Error("duplicate add should report no change")
	}
	if !s.HasFact(f) {
		t.Error("HasFact should find it")
	}
	if s.HasFact(RefFact("in", "o9", "o4", "gi1")) {
		t.Error("HasFact false positive")
	}
	if s.AddFact(Fact{Name: ""}) {
		t.Error("empty relation name should be rejected")
	}
	s.AddFact(RefFact("in", "o1", "o4", "gi2"))
	s.AddFact(RefFact("talks_to", "o2", "o3", "gi2"))

	if got := s.Facts("in"); len(got) != 2 {
		t.Errorf("Facts(in) = %v", got)
	}
	if got := s.Relations(); len(got) != 2 || got[0] != "in" || got[1] != "talks_to" {
		t.Errorf("Relations = %v", got)
	}

	// Mutating the returned slice must not affect the store.
	fs := s.Facts("in")
	fs[0] = RefFact("in", "hacked")
	if got := s.Facts("in")[0]; !got.Equal(f) {
		t.Error("Facts return value is not isolated")
	}

	var seen int
	s.ScanFacts("in", nil, func(Fact) bool { seen++; return true })
	if seen != 2 {
		t.Errorf("ScanFacts visited %d", seen)
	}
	seen = 0
	s.ScanFacts("in", nil, func(Fact) bool { seen++; return false })
	if seen != 1 {
		t.Errorf("ScanFacts early stop visited %d", seen)
	}

	if !s.DeleteFact(f) || s.DeleteFact(f) {
		t.Error("DeleteFact should report prior presence")
	}
	if got := s.Facts("in"); len(got) != 1 {
		t.Errorf("after delete: %v", got)
	}
	// Deleting the last fact of a relation removes the relation.
	s.DeleteFact(RefFact("in", "o1", "o4", "gi2"))
	if got := s.Relations(); len(got) != 1 || got[0] != "talks_to" {
		t.Errorf("Relations after drain = %v", got)
	}
}

func TestFactDedupIgnoresArgSliceIdentity(t *testing.T) {
	s := New()
	args := []object.Value{object.Ref("a"), object.Num(1)}
	f := Fact{Name: "r", Args: args}
	s.AddFact(f)
	// Mutating the caller's slice must not corrupt the stored fact.
	args[0] = object.Ref("z")
	got := s.Facts("r")[0]
	if !got.Equal(NewFact("r", object.Ref("a"), object.Num(1))) {
		t.Errorf("stored fact mutated via caller slice: %v", got)
	}
}
