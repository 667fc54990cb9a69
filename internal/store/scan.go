package store

import "videodb/internal/object"

// Pushdown scan API: the datalog executor's streaming operators push
// constant argument bindings into the store so a rule body literal like
// in(O, "o4", G) scans only the matching facts, selected under the
// store's lock in one pass, instead of materializing the full relation
// and filtering tuple by tuple on the engine side.

// ArgBind constrains one argument position of a fact scan to an exact
// value (canonical Value.Equal comparison).
type ArgBind struct {
	Pos int
	Val object.Value
}

// ScanFacts calls fn for every fact of the relation whose arguments
// match all binds, in insertion order, until fn returns false. A bind
// position that is negative or beyond a fact's arity never matches that
// fact. On the in-memory store a ref or string bind is answered from the
// relation's per-argument posting lists.
func (s *Store) ScanFacts(name string, binds []ArgBind, fn func(Fact) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.backend != nil {
		s.backend.ScanFacts(name, binds, fn)
		return
	}
	if rel := s.facts[name]; rel != nil {
		rel.scan(binds, fn)
	}
}

// Matches reports whether the fact's arguments match all binds: each
// bind's position lies within the fact's arity and holds a value
// Value.Equal to the bind's.
func (f Fact) Matches(binds []ArgBind) bool {
	for _, b := range binds {
		if b.Pos < 0 || b.Pos >= len(f.Args) || !f.Args[b.Pos].Equal(b.Val) {
			return false
		}
	}
	return true
}

// FactCount returns the number of live facts in the relation — the
// cardinality estimate the engine uses to pre-size its hash structures.
func (s *Store) FactCount(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.backend != nil {
		return s.backend.FactCount(name)
	}
	if rel := s.facts[name]; rel != nil {
		return rel.live()
	}
	return 0
}

// TotalFacts returns the number of live facts across all relations — the
// coarse corpus-size signal the plan cache folds into its keys so a plan
// chosen against a tiny database is re-costed after a bulk load.
func (s *Store) TotalFacts() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.backend != nil {
		return s.backend.TotalFacts()
	}
	n := 0
	for _, rel := range s.facts {
		n += rel.live()
	}
	return n
}

// SchemaVersion returns a counter that increases whenever the set of
// stored relations changes (a relation appears or disappears). Cached
// query plans key on it: a plan compiled against one relation schema is
// invalid once the schema moves.
func (s *Store) SchemaVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.schemaVer
}
