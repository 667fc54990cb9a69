// Package store implements the video database of Section 5.1: storage for
// the 7-tuple V = (I, O, f, R, Σ, λ1, λ2). It holds v-objects (semantic
// entities and generalized interval objects), relation facts over them,
// and secondary indexes that accelerate the query patterns of the paper:
//
//   - an inverted index from entity oid to the generalized intervals whose
//     λ1 contains it (the "O ∈ G.entities" constraint);
//   - a centered interval tree over interval durations (temporal stabbing
//     and overlap queries, i.e. duration entailment pre-filtering);
//   - a hash index from (attribute, value) to objects (the "O.A = val"
//     constraint);
//   - a sorted numeric index per attribute for range scans
//     (FindByAttrRange).
//
// A store built with New is volatile; OpenBackend makes it durable by
// routing facts and object mutations through a persistent Backend (the
// segment backend, internal/store/segment). Checksummed JSON snapshots
// (Save/Load, SaveFile/LoadFile) are the import/export format.
//
// The store is safe for concurrent use. Objects returned by Get are owned
// by the store and must not be mutated; use Update to modify an object
// under the store's lock with index maintenance.
package store

import (
	"fmt"
	"sort"
	"sync"

	"videodb/internal/interval"
	"videodb/internal/object"
)

// Store is an in-memory video database with secondary indexes and
// snapshot persistence.
type Store struct {
	mu      sync.RWMutex
	objects map[object.OID]*object.Object
	facts   map[string]*factRel // relation name -> facts (see fact.go)

	// Changelog subscribers (see changelog.go).
	subs []subscriber

	// Secondary indexes (see package comment). Maintained incrementally
	// except for the interval tree, which is rebuilt lazily.
	entityIdx map[object.OID]map[object.OID]bool // entity -> interval oids
	attrIdx   map[attrKey]map[object.OID]bool
	itree     *intervalTree
	itreeOK   bool
	numIdx    map[string][]numEntry
	numIdxOK  bool

	// Index switches for the E10 ablation; all on by default.
	disableEntityIdx bool
	disableTreeIdx   bool
	disableAttrIdx   bool

	// Relation-schema version: bumped whenever the set of relation names
	// changes. Read by SchemaVersion; plan caches key on it.
	schemaVer uint64

	// Pluggable fact/durability engine (see backend.go); nil for a
	// volatile store. When non-nil, facts live in the backend instead of
	// s.facts, and object mutations are logged through it.
	backend Backend
	// backendErr latches the first failed backend write; once set, every
	// subsequent mutation is refused before touching state (fail-fast;
	// see writable), and Close/Checkpoint surface the error too.
	backendErr error
}

type attrKey struct {
	attr  string
	value string // canonical Value.String()
}

// New creates an empty store.
func New() *Store {
	return &Store{
		objects:   make(map[object.OID]*object.Object),
		facts:     make(map[string]*factRel),
		entityIdx: make(map[object.OID]map[object.OID]bool),
		attrIdx:   make(map[attrKey]map[object.OID]bool),
	}
}

// Option toggles store features; used by the index ablation experiment.
type Option func(*Store)

// WithoutEntityIndex disables the entity→interval inverted index
// (membership queries fall back to scans).
func WithoutEntityIndex() Option { return func(s *Store) { s.disableEntityIdx = true } }

// WithoutTemporalIndex disables the interval tree (temporal queries fall
// back to scans).
func WithoutTemporalIndex() Option { return func(s *Store) { s.disableTreeIdx = true } }

// WithoutAttrIndex disables the attribute hash index.
func WithoutAttrIndex() Option { return func(s *Store) { s.disableAttrIdx = true } }

// NewWith creates an empty store with the given options.
func NewWith(opts ...Option) *Store {
	s := New()
	for _, o := range opts {
		o(s)
	}
	return s
}

// Put inserts or replaces the object (a private copy is stored). The oid
// must be non-empty. On a durable store a poisoned or failing backend
// makes Put fail without applying the mutation.
func (s *Store) Put(o *object.Object) error {
	if o == nil || o.OID() == "" {
		return fmt.Errorf("store: object must have a non-empty oid")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	old := s.objects[o.OID()]
	if old != nil {
		s.unindex(old)
	}
	c := o.Clone()
	s.objects[c.OID()] = c
	s.index(c)
	if err := s.logPut(c); err != nil {
		s.unindex(c)
		if old != nil {
			s.objects[o.OID()] = old
			s.index(old)
		} else {
			delete(s.objects, o.OID())
		}
		return err
	}
	s.notify(Event{Kind: EventPutObject, OID: c.OID()})
	return nil
}

// Get returns the stored object, or nil if absent. The returned object is
// owned by the store: treat it as read-only.
func (s *Store) Get(oid object.OID) *object.Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.objects[oid]
}

// GetCopy returns a private copy of the stored object, or nil.
func (s *Store) GetCopy(oid object.OID) *object.Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if o, ok := s.objects[oid]; ok {
		return o.Clone()
	}
	return nil
}

// Has reports whether the oid is present.
func (s *Store) Has(oid object.OID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.objects[oid]
	return ok
}

// Update applies fn to a private copy of the object and stores the result,
// maintaining indexes. It returns an error if the oid is absent or if fn
// returns an error.
func (s *Store) Update(oid object.OID, fn func(*object.Object) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	old, ok := s.objects[oid]
	if !ok {
		return fmt.Errorf("store: no object %q", oid)
	}
	c := old.Clone()
	//videolint:ignore lockcheck Update's read-modify-write contract runs fn under the lock for atomicity; fn is documented not to re-enter the store
	if err := fn(c); err != nil {
		return err
	}
	if c.OID() != oid {
		return fmt.Errorf("store: update must not change the oid (got %q, want %q)", c.OID(), oid)
	}
	s.unindex(old)
	s.objects[oid] = c
	s.index(c)
	if err := s.logPut(c); err != nil {
		s.unindex(c)
		s.objects[oid] = old
		s.index(old)
		return err
	}
	s.notify(Event{Kind: EventPutObject, OID: oid})
	return nil
}

// Delete removes the object and its index entries; facts mentioning the
// oid are not touched (the model allows dangling references, which simply
// never join). It reports whether the object existed and was removed; on
// a durable store with a poisoned backend the deletion is refused (see
// DeleteErr for the error).
func (s *Store) Delete(oid object.OID) bool {
	ok, _ := s.DeleteErr(oid)
	return ok
}

// DeleteErr is Delete with the failure surfaced: on a durable store it
// returns a non-nil error — and leaves the object in place — if the
// backend is poisoned or its log call fails, so an unacknowledged
// deletion is never applied.
func (s *Store) DeleteErr(oid object.OID) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return false, err
	}
	o, ok := s.objects[oid]
	if !ok {
		return false, nil
	}
	s.unindex(o)
	delete(s.objects, oid)
	if err := s.logDelete(oid); err != nil {
		s.objects[oid] = o
		s.index(o)
		return false, err
	}
	s.notify(Event{Kind: EventDeleteObject, OID: oid})
	return true, nil
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// OIDs returns all oids, sorted.
func (s *Store) OIDs() []object.OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]object.OID, 0, len(s.objects))
	for id := range s.objects {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OIDsOfKind returns the oids of the given kind, sorted. These populate
// the built-in Interval and Object class predicates of the query language.
func (s *Store) OIDsOfKind(k object.Kind) []object.OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []object.OID
	for id, o := range s.objects {
		if o.Kind() == k {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Intervals returns the oids of all generalized interval objects, sorted.
func (s *Store) Intervals() []object.OID { return s.OIDsOfKind(object.GenInterval) }

// Entities returns the oids of all semantic objects, sorted.
func (s *Store) Entities() []object.OID { return s.OIDsOfKind(object.Entity) }

// ForEach calls fn for every stored object (read-only) until fn returns
// false. Iteration order is unspecified.
func (s *Store) ForEach(fn func(*object.Object) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, o := range s.objects {
		//videolint:ignore lockcheck documented read-only iteration contract: fn must not call back into the store
		if !fn(o) {
			return
		}
	}
}

// --- Index maintenance -----------------------------------------------------

func (s *Store) index(o *object.Object) {
	s.itreeOK = false
	s.numIdxOK = false
	if !s.disableEntityIdx && o.Kind() == object.GenInterval {
		for _, e := range o.Entities() {
			set := s.entityIdx[e]
			if set == nil {
				set = make(map[object.OID]bool)
				s.entityIdx[e] = set
			}
			set[o.OID()] = true
		}
	}
	if !s.disableAttrIdx {
		for _, a := range o.Attrs() {
			k := attrKey{attr: a, value: o.Attr(a).String()}
			set := s.attrIdx[k]
			if set == nil {
				set = make(map[object.OID]bool)
				s.attrIdx[k] = set
			}
			set[o.OID()] = true
		}
	}
}

func (s *Store) unindex(o *object.Object) {
	s.itreeOK = false
	s.numIdxOK = false
	if !s.disableEntityIdx && o.Kind() == object.GenInterval {
		for _, e := range o.Entities() {
			if set := s.entityIdx[e]; set != nil {
				delete(set, o.OID())
				if len(set) == 0 {
					delete(s.entityIdx, e)
				}
			}
		}
	}
	if !s.disableAttrIdx {
		for _, a := range o.Attrs() {
			k := attrKey{attr: a, value: o.Attr(a).String()}
			if set := s.attrIdx[k]; set != nil {
				delete(set, o.OID())
				if len(set) == 0 {
					delete(s.attrIdx, k)
				}
			}
		}
	}
}

// IntervalsContaining returns the sorted oids of generalized intervals
// whose entities attribute contains the entity (the inverted index behind
// "O ∈ G.entities"). Falls back to a scan when the index is disabled.
func (s *Store) IntervalsContaining(entity object.OID) []object.OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.disableEntityIdx {
		var out []object.OID
		for id, o := range s.objects {
			if o.Kind() != object.GenInterval {
				continue
			}
			for _, e := range o.Entities() {
				if e == entity {
					out = append(out, id)
					break
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	set := s.entityIdx[entity]
	out := make([]object.OID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FindByAttr returns the sorted oids of objects whose attribute attr has
// exactly the value v (canonical comparison).
func (s *Store) FindByAttr(attr string, v object.Value) []object.OID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.disableAttrIdx {
		var out []object.OID
		for id, o := range s.objects {
			if o.Has(attr) && o.Attr(attr).Equal(v) {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	set := s.attrIdx[attrKey{attr: attr, value: v.String()}]
	out := make([]object.OID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IntervalsOverlapping returns the sorted oids of generalized interval
// objects whose duration overlaps the query window. With the temporal
// index enabled this uses the interval tree; otherwise it scans.
func (s *Store) IntervalsOverlapping(w interval.Span) []object.OID {
	s.mu.Lock() // may rebuild the tree
	defer s.mu.Unlock()
	if s.disableTreeIdx {
		var out []object.OID
		for id, o := range s.objects {
			if o.Kind() == object.GenInterval && o.Duration().Overlaps(interval.New(w)) {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	s.ensureTree()
	cands := s.itree.overlapping(w)
	// The tree indexes hulls; confirm against the exact duration.
	out := cands[:0]
	for _, id := range cands {
		if o := s.objects[id]; o != nil && o.Duration().Overlaps(interval.New(w)) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IntervalsWithin returns the sorted oids of generalized intervals whose
// entire duration lies within the query window — the paper's temporal
// frame query "does the object appear in [a,b]" uses this shape through
// entailment: G.duration ⇒ (t > a ∧ t < b).
func (s *Store) IntervalsWithin(w interval.Span) []object.OID {
	window := interval.New(w)
	s.mu.Lock()
	defer s.mu.Unlock()
	var cands []object.OID
	if s.disableTreeIdx {
		for id, o := range s.objects {
			if o.Kind() == object.GenInterval {
				cands = append(cands, id)
			}
		}
	} else {
		s.ensureTree()
		cands = s.itree.overlapping(w)
	}
	var out []object.OID
	for _, id := range cands {
		o := s.objects[id]
		if o == nil || o.Kind() != object.GenInterval {
			continue
		}
		d := o.Duration()
		if !d.IsEmpty() && window.ContainsGen(d) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *Store) ensureTree() {
	if s.itreeOK {
		return
	}
	var items []treeItem
	for id, o := range s.objects {
		if o.Kind() != object.GenInterval {
			continue
		}
		d := o.Duration()
		if d.IsEmpty() {
			continue
		}
		items = append(items, treeItem{span: d.Hull(), oid: id})
	}
	s.itree = buildIntervalTree(items)
	s.itreeOK = true
}

// Stats summarizes the store contents.
type Stats struct {
	Objects    int
	Entities   int
	Intervals  int
	Facts      int
	Relations  int
	IndexTerms int // entity-index entries + attr-index entries
}

// Stats returns current statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Objects: len(s.objects)}
	for _, o := range s.objects {
		if o.Kind() == object.GenInterval {
			st.Intervals++
		} else {
			st.Entities++
		}
	}
	if s.backend != nil {
		st.Relations = len(s.backend.Relations())
		st.Facts = s.backend.TotalFacts()
	} else {
		st.Relations = len(s.facts)
		for _, rel := range s.facts {
			st.Facts += rel.live()
		}
	}
	st.IndexTerms = len(s.entityIdx) + len(s.attrIdx)
	return st
}
