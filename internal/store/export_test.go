package store

// VolatileSlots returns the slot count, live facts plus tombstones, of
// the relation in a volatile store's fact table, or 0 when the relation
// is absent: a drop means the relation compacted.
func VolatileSlots(s *Store, name string) int {
	if r := s.backend.(*memBackend).rels[name]; r != nil {
		return len(r.list)
	}
	return 0
}
