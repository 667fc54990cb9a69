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
// match all binds until fn returns false. A bind position that is
// negative or beyond a fact's arity never matches that fact. The order
// is the backend's (see Backend.ScanFacts); the volatile store and the
// segment memtable answer a ref or string bind from the FactTable's
// per-argument posting lists.
func (s *Store) ScanFacts(name string, binds []ArgBind, fn func(Fact) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.backend.ScanFacts(name, binds, fn)
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
	return s.backend.FactCount(name)
}

// TotalFacts returns the number of live facts across all relations — the
// coarse corpus-size signal the plan cache folds into its keys so a plan
// chosen against a tiny database is re-costed after a bulk load.
func (s *Store) TotalFacts() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backend.TotalFacts()
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

// ReadTogether calls fn with a Reader, all under one read lock: every
// read fn makes comes from one store state, with no acknowledged mutation
// between them. Changelog subscribers run under the write lock, so an
// event a subscriber queued before fn started is reflected in what fn
// reads, and one it queues after fn returns is not — fn may itself take
// the subscriber's queue lock to cut its queue at that point. fn must
// read through r, never through the Store's own methods: a read lock
// taken again behind a waiting writer deadlocks.
func (s *Store) ReadTogether(fn func(r Reader)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	//videolint:ignore lockcheck the callback is the point: its reads share this read lock, and it may only take locks ordered after the store's (a subscriber queue)
	fn(Reader{s: s})
}

// Reader reads the store inside ReadTogether; its methods behave like
// the Store's methods of the same name.
type Reader struct{ s *Store }

// ScanFacts is Store.ScanFacts under the enclosing ReadTogether's lock.
func (r Reader) ScanFacts(name string, binds []ArgBind, fn func(Fact) bool) {
	r.s.backend.ScanFacts(name, binds, fn)
}

// Facts is Store.Facts under the enclosing ReadTogether's lock.
func (r Reader) Facts(name string) []Fact { return r.s.factsLocked(name) }

// FactCount is Store.FactCount under the enclosing ReadTogether's lock.
func (r Reader) FactCount(name string) int { return r.s.backend.FactCount(name) }
