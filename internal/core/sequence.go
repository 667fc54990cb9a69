package core

import (
	"fmt"
	"sort"

	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// A video archive hosts many video documents; the paper's formal object
// is a single sequence V = (I, O, f, R, Σ, λ1, λ2) (Section 5.1).
// Sequence groups the generalized intervals belonging to one document —
// membership is the part_of(interval, sequence) relation, so it is
// queryable from VideoQL like any other fact — and Tuple materializes the
// seven components for inspection.

// PartOfPred is the relation linking a generalized interval to the video
// sequence (document) it fragments.
const PartOfPred = "part_of"

// SequenceAttr marks a sequence object.
const SequenceAttr = "video_sequence"

// Sequence is a handle on one video document within the database.
type Sequence struct {
	db  *DB
	oid object.OID
}

// CreateSequence registers a video document. The sequence itself is a
// semantic object carrying the given attributes (title, source, …).
func (db *DB) CreateSequence(oid object.OID, attrs map[string]object.Value) (*Sequence, error) {
	o := object.NewEntity(oid)
	for k, v := range attrs {
		o.Set(k, v)
	}
	o.Set(SequenceAttr, object.Str("true"))
	if err := db.st.Put(o); err != nil {
		return nil, err
	}
	return &Sequence{db: db, oid: oid}, nil
}

// OpenSequence returns a handle on an existing sequence object.
func (db *DB) OpenSequence(oid object.OID) (*Sequence, error) {
	o := db.st.Get(oid)
	if o == nil {
		return nil, fmt.Errorf("core: no sequence %q", oid)
	}
	if !o.Attr(SequenceAttr).Equal(object.Str("true")) {
		return nil, fmt.Errorf("core: %q is not a video sequence", oid)
	}
	return &Sequence{db: db, oid: oid}, nil
}

// OID returns the sequence's identity.
func (s *Sequence) OID() object.OID { return s.oid }

// AddInterval stores a generalized interval object and attaches it to
// this sequence.
func (s *Sequence) AddInterval(oid object.OID, duration interval.Generalized, attrs map[string]object.Value) error {
	if err := s.db.PutInterval(oid, duration, attrs); err != nil {
		return err
	}
	s.db.st.AddFact(store.RefFact(PartOfPred, oid, s.oid))
	return nil
}

// Attach links an existing generalized interval to this sequence.
func (s *Sequence) Attach(oid object.OID) error {
	o := s.db.st.Get(oid)
	if o == nil {
		return fmt.Errorf("core: no object %q", oid)
	}
	if o.Kind() != object.GenInterval {
		return fmt.Errorf("core: %q is not a generalized interval", oid)
	}
	s.db.st.AddFact(store.RefFact(PartOfPred, oid, s.oid))
	return nil
}

// Intervals returns the sorted oids of the sequence's generalized
// intervals (the component I).
func (s *Sequence) Intervals() []object.OID {
	var out []object.OID
	s.db.st.ScanFacts(PartOfPred, []store.ArgBind{{Pos: 1, Val: object.Ref(s.oid)}}, func(f store.Fact) bool {
		if len(f.Args) == 2 {
			if gi, ok := f.Args[0].AsRef(); ok {
				out = append(out, gi)
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Tuple is the materialized 7-tuple V = (I, O, f, R, Σ, λ1, λ2) of
// Section 5.1.
type Tuple struct {
	// I: the generalized interval objects of the sequence.
	I []object.OID
	// O: the semantic objects appearing in some interval of the sequence.
	O []object.OID
	// F: the atomic values appearing as (or inside) attribute values of
	// the sequence's objects — the paper's f, the concrete-domain layer.
	F []object.Value
	// R: the relation facts that mention at least one interval of the
	// sequence (the relations on O × I).
	R []store.Fact
	// Sigma: the temporal constraints (canonical generalized intervals)
	// attached to the intervals — the paper's Σ, indexed like I.
	Sigma []interval.Generalized
	// Lambda1 maps each interval to its entities (λ1: I → 2^O).
	Lambda1 map[object.OID][]object.OID
	// Lambda2 maps each interval to its temporal constraint (λ2: I → Σ).
	Lambda2 map[object.OID]interval.Generalized
}

// Tuple materializes the sequence's 7-tuple.
func (s *Sequence) Tuple() Tuple {
	t := Tuple{
		Lambda1: make(map[object.OID][]object.OID),
		Lambda2: make(map[object.OID]interval.Generalized),
	}
	t.I = s.Intervals()
	inSeq := make(map[object.OID]bool, len(t.I))
	entitySet := map[object.OID]bool{}
	valueSet := map[string]object.Value{}

	var collectAtoms func(v object.Value)
	collectAtoms = func(v object.Value) {
		switch v.Kind() {
		case object.KindString, object.KindNumber:
			valueSet[v.String()] = v
		case object.KindSet:
			for _, e := range v.Elems() {
				collectAtoms(e)
			}
		}
	}

	for _, gi := range t.I {
		inSeq[gi] = true
		o := s.db.st.Get(gi)
		if o == nil {
			continue
		}
		dur := o.Duration()
		t.Sigma = append(t.Sigma, dur)
		t.Lambda2[gi] = dur
		ents := o.Entities()
		t.Lambda1[gi] = ents
		for _, e := range ents {
			entitySet[e] = true
		}
		for _, a := range o.Attrs() {
			collectAtoms(o.Attr(a))
		}
	}
	for e := range entitySet {
		t.O = append(t.O, e)
		if o := s.db.st.Get(e); o != nil {
			for _, a := range o.Attrs() {
				collectAtoms(o.Attr(a))
			}
		}
	}
	sort.Slice(t.O, func(i, j int) bool { return t.O[i] < t.O[j] })
	for _, k := range sortedKeys(valueSet) {
		t.F = append(t.F, valueSet[k])
	}

	for _, rel := range s.db.st.Relations() {
		if rel == PartOfPred {
			continue
		}
		s.db.st.ScanFacts(rel, nil, func(f store.Fact) bool {
			for _, a := range f.Args {
				if oid, ok := a.AsRef(); ok && inSeq[oid] {
					t.R = append(t.R, f)
					break
				}
			}
			return true
		})
	}
	return t
}

func sortedKeys(m map[string]object.Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
