package store

import (
	"fmt"
	"sort"
	"strings"

	"videodb/internal/object"
)

// Fact is a ground relational fact R(v1, …, vn), the R component of the
// video sequence tuple (relations on O × I, e.g. in(o1, o4, gi1)).
type Fact struct {
	Name string
	Args []object.Value
}

// NewFact builds a fact.
func NewFact(name string, args ...object.Value) Fact {
	return Fact{Name: name, Args: args}
}

// RefFact builds the common all-references fact, e.g.
// RefFact("in", "o1", "o4", "gi1").
func RefFact(name string, oids ...object.OID) Fact {
	args := make([]object.Value, len(oids))
	for i, id := range oids {
		args[i] = object.Ref(id)
	}
	return Fact{Name: name, Args: args}
}

// Key returns a canonical string identifying the fact (used for
// de-duplication).
func (f Fact) Key() string {
	var b strings.Builder
	b.WriteString(f.Name)
	b.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

// String renders the fact in predicate notation.
func (f Fact) String() string { return f.Key() }

// Equal reports structural equality.
func (f Fact) Equal(g Fact) bool {
	if f.Name != g.Name || len(f.Args) != len(g.Args) {
		return false
	}
	for i := range f.Args {
		if !f.Args[i].Equal(g.Args[i]) {
			return false
		}
	}
	return true
}

// FactTable holds relations of facts in memory, each in insertion order
// with O(1) membership and per-argument posting lists. It is the one
// in-memory fact table: the volatile store's backend embeds it, and the
// segment backend keeps its memtable's insertions in one. Its read
// methods carry the Backend read names and contracts. The zero value is
// an empty table. A FactTable is not synchronized; its owner serializes
// writes against reads.
type FactTable struct {
	rels  map[string]*factRel
	total int // live facts across all relations
}

// factRel stores one relation's facts in insertion order. Deleted slots
// become tombstones (zero Fact) rather than shifting the list; the list
// compacts once tombstones outnumber live facts. The position map
// doubles as the membership set (it holds live facts only).
//
// post indexes the list by argument: post[i] maps a ref or string value
// to the ascending slots whose argument i holds it, so a bound scan walks
// only the facts that can match (see scan). Postings of tombstoned slots
// stay until compaction rebuilds them; readers skip those slots.
type factRel struct {
	list []Fact         // insertion order; tombstoned slots have Name == ""
	pos  map[string]int // fact key -> index into list, live facts only
	dead int            // tombstoned slots in list
	post []argPostings
}

// argPostings indexes one argument position, refs and strings apart:
// Value.Equal never equates a ref with a string of the same text.
type argPostings struct{ refs, strs map[string][]int32 }

// postingsFor returns the posting map for v's kind and v's text; ok is
// false for a kind that is not indexed. Value.Equal makes NaN equal to
// every number and −0 equal to +0, and compares temporal and set values
// structurally, so binds of those kinds keep the linear filter.
func (p argPostings) postingsFor(v object.Value) (m map[string][]int32, text string, ok bool) {
	if oid, isRef := v.AsRef(); isRef {
		return p.refs, string(oid), true
	}
	if s, isStr := v.AsString(); isStr {
		return p.strs, s, true
	}
	return nil, "", false
}

// Add stores f under its canonical key (key is f.Key()) unless that key
// is live; it reports whether the table changed. The table keeps f's
// Args slice, so the caller passes one nobody else writes.
func (t *FactTable) Add(f Fact, key string) bool {
	r := t.rels[f.Name]
	if r == nil {
		if t.rels == nil {
			t.rels = make(map[string]*factRel)
		}
		r = &factRel{pos: make(map[string]int)}
		t.rels[f.Name] = r
	} else if _, ok := r.pos[key]; ok {
		return false
	}
	r.pos[key] = len(r.list)
	r.index(len(r.list), f)
	r.list = append(r.list, f)
	t.total++
	return true
}

// Remove deletes the live fact stored under key and returns it; ok is
// false when the key is not live. A relation's last removal drops the
// relation; otherwise the relation compacts once tombstones dominate.
func (t *FactTable) Remove(name, key string) (f Fact, ok bool) {
	r := t.rels[name]
	if r == nil {
		return Fact{}, false
	}
	i, ok := r.pos[key]
	if !ok {
		return Fact{}, false
	}
	f = r.list[i]
	r.list[i] = Fact{}
	delete(r.pos, key)
	r.dead++
	t.total--
	if len(r.pos) == 0 {
		delete(t.rels, name)
	} else {
		r.maybeCompact()
	}
	return f, true
}

// HasFact reports whether the key is live in the relation.
func (t *FactTable) HasFact(name, key string) bool {
	if r := t.rels[name]; r != nil {
		_, ok := r.pos[key]
		return ok
	}
	return false
}

// ScanFacts calls fn for every live fact of the relation matching binds,
// in insertion order, until fn returns false. With a ref or string bind
// it walks the shortest such bind's posting list; otherwise it filters
// the whole list. Either way every bind is checked with Value.Equal.
func (t *FactTable) ScanFacts(name string, binds []ArgBind, fn func(Fact) bool) {
	if r := t.rels[name]; r != nil {
		r.scan(binds, fn)
	}
}

// FactCount returns the relation's live fact count.
func (t *FactTable) FactCount(name string) int {
	if r := t.rels[name]; r != nil {
		return len(r.pos)
	}
	return 0
}

// TotalFacts returns the live fact count across all relations.
func (t *FactTable) TotalFacts() int { return t.total }

// Relations returns the sorted names of the relations with live facts.
func (t *FactTable) Relations() []string {
	out := make([]string, 0, len(t.rels))
	for n := range t.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FactArities returns, per relation, the sorted distinct arities of its
// live facts.
func (t *FactTable) FactArities() map[string][]int {
	out := make(map[string][]int, len(t.rels))
	for name, r := range t.rels {
		seen := map[int]bool{}
		r.scan(nil, func(f Fact) bool {
			seen[len(f.Args)] = true
			return true
		})
		arities := make([]int, 0, len(seen))
		for a := range seen {
			arities = append(arities, a)
		}
		sort.Ints(arities)
		out[name] = arities
	}
	return out
}

// index appends the slot to the posting list of each ref or string
// argument of f.
func (r *factRel) index(slot int, f Fact) {
	for i, a := range f.Args {
		for len(r.post) <= i {
			r.post = append(r.post, argPostings{refs: make(map[string][]int32), strs: make(map[string][]int32)})
		}
		if m, text, ok := r.post[i].postingsFor(a); ok {
			m[text] = append(m[text], int32(slot))
		}
	}
}

// maybeCompact rewrites the list without tombstones once they dominate,
// preserving insertion order, and rebuilds the posting lists over the new
// slots; the amortized cost per delete is O(1).
func (r *factRel) maybeCompact() {
	if r.dead <= len(r.list)/2 || r.dead < 16 {
		return
	}
	fresh := make([]Fact, 0, len(r.pos))
	r.post = nil
	for _, f := range r.list {
		if f.Name != "" {
			r.pos[f.Key()] = len(fresh)
			r.index(len(fresh), f)
			fresh = append(fresh, f)
		}
	}
	r.list = fresh
	r.dead = 0
}

// scan is FactTable.ScanFacts over one relation.
func (r *factRel) scan(binds []ArgBind, fn func(Fact) bool) {
	slots, indexed := r.postings(binds)
	if !indexed {
		for _, f := range r.list {
			if f.Name != "" && f.Matches(binds) && !fn(f) {
				return
			}
		}
		return
	}
	for _, i := range slots {
		if f := r.list[i]; f.Name != "" && f.Matches(binds) && !fn(f) {
			return
		}
	}
}

// postings returns the shortest posting list among the ref and string
// binds; indexed is false when no bind has such a value. A negative
// position has no posting list and matches nothing.
func (r *factRel) postings(binds []ArgBind) (slots []int32, indexed bool) {
	for _, b := range binds {
		var p argPostings // a position no fact reaches lists nothing
		if b.Pos >= 0 && b.Pos < len(r.post) {
			p = r.post[b.Pos]
		}
		m, text, ok := p.postingsFor(b.Val)
		if !ok {
			continue
		}
		if l := m[text]; !indexed || len(l) < len(slots) {
			slots, indexed = l, true
		}
		if len(slots) == 0 {
			break
		}
	}
	return slots, indexed
}

// AddFact inserts the fact if not already present; it reports whether the
// store changed. Facts with empty names are rejected (no change), as are
// mutations on a durable store whose backend is poisoned (see AddFactErr
// for the error).
func (s *Store) AddFact(f Fact) bool {
	ok, _ := s.AddFactErr(f)
	return ok
}

// AddFactErr is AddFact with the failure surfaced: on a durable store it
// returns a non-nil error — and reports no change — if the backend is
// poisoned or its write fails, so an unacknowledged fact is never
// present after recovery.
func (s *Store) AddFactErr(f Fact) (bool, error) {
	if f.Name == "" {
		return false, fmt.Errorf("store: fact must have a non-empty relation name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return false, err
	}
	key := f.Key()
	if s.backend.HasFact(f.Name, key) {
		return false, nil
	}
	g := f.private()
	newRel := s.backend.FactCount(f.Name) == 0
	if err := s.backend.AddFact(g, key); err != nil {
		return false, s.latch(err)
	}
	if newRel {
		s.schemaVer++
	}
	s.notify(Event{Kind: EventAddFact, Fact: g})
	return true, nil
}

// private returns f with its own copy of the args slice (values are
// immutable), so the caller's later writes to its slice reach neither
// the stored fact nor the event.
func (f Fact) private() Fact {
	args := make([]object.Value, len(f.Args))
	copy(args, f.Args)
	return Fact{Name: f.Name, Args: args}
}

// HasFact reports whether the exact fact is present.
func (s *Store) HasFact(f Fact) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backend.HasFact(f.Name, f.Key())
}

// DeleteFact removes the exact fact; it reports whether it was present
// and removed. On a durable store with a poisoned backend the deletion
// is refused (see DeleteFactErr for the error).
func (s *Store) DeleteFact(f Fact) bool {
	ok, _ := s.DeleteFactErr(f)
	return ok
}

// DeleteFactErr is DeleteFact with the failure surfaced: on a durable
// store it returns a non-nil error — and leaves the fact in place — if
// the backend is poisoned or its write fails, so an unacknowledged
// deletion is never applied.
func (s *Store) DeleteFactErr(f Fact) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return false, err
	}
	key := f.Key()
	if !s.backend.HasFact(f.Name, key) {
		return false, nil
	}
	g := f.private()
	if err := s.backend.DeleteFact(g, key); err != nil {
		return false, s.latch(err)
	}
	if s.backend.FactCount(f.Name) == 0 {
		s.schemaVer++
	}
	s.notify(Event{Kind: EventDeleteFact, Fact: g})
	return true, nil
}

// Facts returns a copy of all facts of the relation, in the backend's
// order (see Backend.ScanFacts).
func (s *Store) Facts(name string) []Fact {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.factsLocked(name)
}

func (s *Store) factsLocked(name string) []Fact {
	var out []Fact
	if n := s.backend.FactCount(name); n > 0 {
		out = make([]Fact, 0, n)
	}
	s.backend.ScanFacts(name, nil, func(f Fact) bool {
		out = append(out, f)
		return true
	})
	return out
}

// Relations returns the sorted names of all relations with at least one
// fact.
func (s *Store) Relations() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backend.Relations()
}

// FactArities returns, per relation, the sorted distinct arities its
// facts occur with — the schema snapshot the static analyzer consumes.
func (s *Store) FactArities() map[string][]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backend.FactArities()
}
