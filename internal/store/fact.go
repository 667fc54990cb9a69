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

// factRel stores one relation's facts in insertion order with O(1)
// membership and amortized O(1) deletion. Deleted slots become tombstones
// (zero Fact) rather than shifting the list; the list compacts once
// tombstones outnumber live facts. The position map doubles as the
// membership set (it holds live facts only).
type factRel struct {
	list []Fact         // insertion order; tombstoned slots have Name == ""
	pos  map[string]int // fact key -> index into list, live facts only
	dead int            // tombstoned slots in list
}

func newFactRel() *factRel { return &factRel{pos: make(map[string]int)} }

func (r *factRel) live() int { return len(r.pos) }

func (r *factRel) has(key string) bool { _, ok := r.pos[key]; return ok }

func (r *factRel) get(key string) (Fact, bool) {
	if i, ok := r.pos[key]; ok {
		return r.list[i], true
	}
	return Fact{}, false
}

func (r *factRel) add(key string, f Fact) {
	r.pos[key] = len(r.list)
	r.list = append(r.list, f)
}

// tombstone removes the fact by key, returning the stored fact.
func (r *factRel) tombstone(key string) Fact {
	i := r.pos[key]
	f := r.list[i]
	r.list[i] = Fact{}
	delete(r.pos, key)
	r.dead++
	return f
}

// maybeCompact rewrites the list without tombstones once they dominate,
// preserving insertion order; the amortized cost per delete is O(1).
func (r *factRel) maybeCompact() {
	if r.dead <= len(r.list)/2 || r.dead < 16 {
		return
	}
	fresh := make([]Fact, 0, len(r.pos))
	for _, f := range r.list {
		if f.Name != "" {
			r.pos[f.Key()] = len(fresh)
			fresh = append(fresh, f)
		}
	}
	r.list = fresh
	r.dead = 0
}

// each calls fn for every live fact in insertion order until fn returns
// false.
func (r *factRel) each(fn func(Fact) bool) {
	for _, f := range r.list {
		if f.Name == "" {
			continue
		}
		if !fn(f) {
			return
		}
	}
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
	if s.backend != nil {
		return s.addFactBackend(f)
	}
	key := f.Key()
	rel := s.facts[f.Name]
	if rel == nil {
		rel = newFactRel()
		s.facts[f.Name] = rel
		s.schemaVer++
	}
	if rel.has(key) {
		return false, nil
	}
	// Store a private copy of the args slice (values are immutable).
	args := make([]object.Value, len(f.Args))
	copy(args, f.Args)
	g := Fact{Name: f.Name, Args: args}
	rel.add(key, g)
	s.notify(Event{Kind: EventAddFact, Fact: g})
	return true, nil
}

// HasFact reports whether the exact fact is present.
func (s *Store) HasFact(f Fact) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.backend != nil {
		return s.backend.HasFact(f.Name, f.Key())
	}
	rel := s.facts[f.Name]
	return rel != nil && rel.has(f.Key())
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
	if s.backend != nil {
		return s.deleteFactBackend(f)
	}
	rel := s.facts[f.Name]
	if rel == nil {
		return false, nil
	}
	key := f.Key()
	if !rel.has(key) {
		return false, nil
	}
	stored := rel.tombstone(key)
	if rel.live() == 0 {
		delete(s.facts, f.Name)
		s.schemaVer++
	} else {
		rel.maybeCompact()
	}
	s.notify(Event{Kind: EventDeleteFact, Fact: stored})
	return true, nil
}

// Facts returns a copy of all facts of the relation, in insertion order.
func (s *Store) Facts(name string) []Fact {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.backend != nil {
		var out []Fact
		s.backend.ScanFacts(name, nil, func(f Fact) bool {
			out = append(out, f)
			return true
		})
		return out
	}
	rel := s.facts[name]
	if rel == nil {
		return nil
	}
	out := make([]Fact, 0, rel.live())
	rel.each(func(f Fact) bool {
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
	if s.backend != nil {
		return s.backend.Relations()
	}
	out := make([]string, 0, len(s.facts))
	for n, rel := range s.facts {
		if rel.live() > 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// FactArities returns, per relation, the sorted distinct arities its
// facts occur with — the schema snapshot the static analyzer consumes.
func (s *Store) FactArities() map[string][]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.backend != nil {
		return s.backend.FactArities()
	}
	out := make(map[string][]int, len(s.facts))
	for name, rel := range s.facts {
		seen := map[int]bool{}
		rel.each(func(f Fact) bool {
			seen[len(f.Args)] = true
			return true
		})
		arities := make([]int, 0, len(seen))
		for a := range seen {
			arities = append(arities, a)
		}
		sort.Ints(arities)
		if len(arities) > 0 {
			out[name] = arities
		}
	}
	return out
}

// ForEachFact calls fn for every fact of the relation until fn returns
// false.
func (s *Store) ForEachFact(name string, fn func(Fact) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.backend != nil {
		s.backend.ScanFacts(name, nil, fn)
		return
	}
	if rel := s.facts[name]; rel != nil {
		rel.each(fn)
	}
}
