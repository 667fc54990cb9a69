package store

import (
	"fmt"
	"sort"

	"videodb/internal/object"
)

// Backend is a pluggable fact/durability engine behind the Store facade.
// Without one the store is volatile: every fact lives in the in-memory
// factRel maps. A persistent backend (internal/store/segment) owns the
// facts itself — on disk, loaded lazily — and logs object mutations,
// while the Store keeps owning the object maps and secondary indexes.
//
// Locking contract: the Store invokes every mutating method (AddFact,
// DeleteFact, LogPutObject, LogDeleteObject, Flush, Compact, Close) under
// its write lock and every read under at least its read lock, so a
// backend may keep its mutable state unsynchronized except for whatever
// caches its concurrent readers share.
type Backend interface {
	// SetObjectSource installs the callback that snapshots the live
	// object set at flush time. It is called with the store lock held and
	// must not re-enter the store.
	SetObjectSource(fn func() []*object.Object)
	// RecoveredObjects returns the object set recovered at open, once,
	// for the store to adopt into its maps and indexes.
	RecoveredObjects() []*object.Object

	// AddFact durably records and applies an insertion. The caller has
	// already verified the fact is absent (key is f.Key()). An error
	// means nothing was applied.
	AddFact(f Fact, key string) error
	// DeleteFact durably records and applies a deletion of a present
	// fact. An error means nothing was applied.
	DeleteFact(f Fact, key string) error

	HasFact(name, key string) bool
	// ScanFacts streams visible facts of the relation matching the binds
	// until fn returns false. Unlike the in-memory path the order is
	// unspecified (segment order, then memtable insertion order).
	ScanFacts(name string, binds []ArgBind, fn func(Fact) bool)
	FactCount(name string) int
	TotalFacts() int
	Relations() []string
	FactArities() map[string][]int

	// LogPutObject / LogDeleteObject durably record object mutations;
	// the store applies them to its own maps.
	LogPutObject(o *object.Object) error
	LogDeleteObject(oid object.OID) error

	// Flush persists all volatile state (Checkpoint routes here);
	// Compact reorganizes storage. Close flushes and releases resources.
	Flush() error
	Compact() error
	Close() error

	BackendStats() BackendStats
}

// BackendStats describes a backend's resident state and cache traffic;
// the server exports these as metrics.
type BackendStats struct {
	Kind           string `json:"kind"` // "mem" or "segment"
	Segments       int    `json:"segments"`
	SegmentFacts   int    `json:"segmentFacts"`  // fact records resident in segment files
	Tombstones     int    `json:"tombstones"`    // tombstones resident in segment files
	MemtableFacts  int    `json:"memtableFacts"` // adds + deletes buffered since the last flush
	DictValues     int    `json:"dictValues"`    // dictionary entries across segment files
	CacheHits      uint64 `json:"cacheHits"`
	CacheMisses    uint64 `json:"cacheMisses"`
	CacheEvictions uint64 `json:"cacheEvictions"`
	CacheBytes     int64  `json:"cacheBytes"`
	CacheBudget    int64  `json:"cacheBudget"`
	CachedBlocks   int    `json:"cachedBlocks"`
	Flushes        uint64 `json:"flushes"`
	Compactions    uint64 `json:"compactions"`
	ReadErrors     uint64 `json:"readErrors"`
}

// OpenBackend wires a backend into a fresh store: recovered objects are
// adopted into the object maps and indexes, and the flush-time object
// source is connected. The backend must not be shared between stores.
func OpenBackend(b Backend, opts ...Option) (*Store, error) {
	s := NewWith(opts...)
	s.backend = b
	b.SetObjectSource(func() []*object.Object {
		// Called under s.mu (flush runs inside a mutation or Checkpoint).
		out := make([]*object.Object, 0, len(s.objects))
		for _, o := range s.objects {
			out = append(out, o)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].OID() < out[j].OID() })
		return out
	})
	for _, o := range b.RecoveredObjects() {
		c := o.Clone()
		s.objects[c.OID()] = c
		s.index(c)
	}
	if n := len(b.Relations()); n > 0 {
		s.schemaVer++ // recovered relations exist from the first version
	}
	return s, nil
}

// BackendStats reports the active backend's statistics; in-memory stores
// report Kind "mem" with the live fact count.
func (s *Store) BackendStats() BackendStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.backend != nil {
		return s.backend.BackendStats()
	}
	n := 0
	for _, rel := range s.facts {
		n += rel.live()
	}
	return BackendStats{Kind: "mem", MemtableFacts: n}
}

// Compact asks the backend to reorganize its storage (merge segments,
// resolve tombstones); a no-op on the in-memory backend.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend != nil {
		return s.backend.Compact()
	}
	return nil
}

// Checkpoint persists the backend's volatile state (see Backend.Flush).
// A volatile store has nothing to checkpoint and returns an error.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend == nil {
		return fmt.Errorf("store: Checkpoint requires a durable store (OpenBackend)")
	}
	if err := s.writable(); err != nil {
		return err
	}
	return s.backend.Flush()
}

// Close flushes and closes the backend (a no-op for volatile stores). It
// surfaces a write failure latched during the session.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backend == nil {
		return nil
	}
	err := s.backend.Close()
	if s.backendErr != nil {
		return fmt.Errorf("store: a backend write failed during the session: %w", s.backendErr)
	}
	return err
}

// writable refuses new mutations once a backend write has failed: the
// durable state no longer matches the store, so acknowledging further
// writes could lose them across recovery. Callers hold s.mu and check
// this before touching state; reads remain available. Reopening the
// directory recovers exactly the acknowledged prefix.
func (s *Store) writable() error {
	if s.backendErr != nil {
		return fmt.Errorf("store: backend poisoned by an earlier write failure (reopen the store to resume writes): %w", s.backendErr)
	}
	return nil
}

// latch records err as the first backend write failure, if it is one,
// and returns it. The caller holds s.mu and rolls its mutation back.
func (s *Store) latch(err error) error {
	if err != nil && s.backendErr == nil {
		s.backendErr = err
	}
	return err
}

// logPut durably records an object upsert on a durable store; a volatile
// store has nothing to log.
func (s *Store) logPut(o *object.Object) error {
	if s.backend == nil {
		return nil
	}
	return s.latch(s.backend.LogPutObject(o))
}

// logDelete durably records an object deletion on a durable store.
func (s *Store) logDelete(oid object.OID) error {
	if s.backend == nil {
		return nil
	}
	return s.latch(s.backend.LogDeleteObject(oid))
}

// addFactBackend is the backend branch of AddFactErr; the caller holds
// the write lock and has checked writable.
func (s *Store) addFactBackend(f Fact) (bool, error) {
	key := f.Key()
	if s.backend.HasFact(f.Name, key) {
		return false, nil
	}
	args := make([]object.Value, len(f.Args))
	copy(args, f.Args)
	g := Fact{Name: f.Name, Args: args}
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

// deleteFactBackend is the backend branch of DeleteFactErr.
func (s *Store) deleteFactBackend(f Fact) (bool, error) {
	key := f.Key()
	if !s.backend.HasFact(f.Name, key) {
		return false, nil
	}
	args := make([]object.Value, len(f.Args))
	copy(args, f.Args)
	g := Fact{Name: f.Name, Args: args}
	if err := s.backend.DeleteFact(g, key); err != nil {
		return false, s.latch(err)
	}
	if s.backend.FactCount(f.Name) == 0 {
		s.schemaVer++
	}
	s.notify(Event{Kind: EventDeleteFact, Fact: g})
	return true, nil
}
