package store

import (
	"sync/atomic"

	"videodb/internal/object"
)

// Changelog: subscribers observe every acknowledged mutation of the
// store, in mutation order. This is the feed that incremental view
// maintenance (core.Materialize) consumes. Recovery adopts the backend's
// state before any subscriber can attach, so a subscriber sees exactly
// the post-recovery mutations.
//
// Contract:
//
//   - Events are delivered synchronously, under the store's write lock,
//     strictly after the mutation has been applied AND (on a durable
//     store) logged by the backend. A mutation that is rejected or
//     rolled back — duplicate fact, missing oid, poisoned or failing
//     backend — emits nothing: the stream contains acknowledged changes
//     only.
//   - Handlers must be fast and must not call back into the store (the
//     write lock is held); queue the event and process it later.
//   - Events fire only on actual state change, so for a given fact key
//     the Add/Delete sequence strictly alternates.

// EventKind discriminates changelog events.
type EventKind uint8

const (
	// EventAddFact: Fact was inserted (it was not present before).
	EventAddFact EventKind = iota + 1
	// EventDeleteFact: Fact was removed (it was present before).
	EventDeleteFact
	// EventPutObject: the object named by OID was inserted or replaced
	// (Put or Update).
	EventPutObject
	// EventDeleteObject: the object named by OID was removed.
	EventDeleteObject
	// EventReset: the store's contents were wholesale replaced (Load);
	// no per-mutation events describe the difference.
	EventReset
)

func (k EventKind) String() string {
	switch k {
	case EventAddFact:
		return "addfact"
	case EventDeleteFact:
		return "delfact"
	case EventPutObject:
		return "putobject"
	case EventDeleteObject:
		return "delobject"
	case EventReset:
		return "reset"
	default:
		return "unknown"
	}
}

// Event is one acknowledged store mutation. Fact is set for fact events,
// OID for object events; neither for EventReset.
type Event struct {
	Kind EventKind
	Fact Fact
	OID  object.OID
}

type subscriber struct {
	fn   func(Event)
	dead *atomic.Bool
}

// Subscribe registers fn to receive every subsequent acknowledged
// mutation (see the changelog contract above) and returns a function
// that unregisters it. Safe for concurrent use.
//
// cancel never takes the store lock, so it is safe to call from inside a
// subscriber callback (which runs with the write lock held) and safe to
// defer or race against concurrent mutations. Cancellation is
// asynchronous: a delivery already in flight when cancel returns may
// still invoke fn once more; afterwards fn is never called again, and
// the subscriber slot is reclaimed on the next delivery.
func (s *Store) Subscribe(fn func(Event)) (cancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	dead := &atomic.Bool{}
	s.subs = append(s.subs, subscriber{fn: fn, dead: dead})
	return func() { dead.Store(true) }
}

// notify delivers an event to every live subscriber and compacts out the
// cancelled ones. Caller holds s.mu, so the compaction cannot race other
// deliveries; cancel flips only the dead flag and never touches s.subs.
func (s *Store) notify(ev Event) {
	kept := s.subs[:0]
	for _, sub := range s.subs {
		if sub.dead.Load() {
			continue
		}
		//videolint:ignore lockcheck synchronous delivery contract: subscriber callbacks are documented queue-only and must not block or re-enter the store
		sub.fn(ev)
		kept = append(kept, sub)
	}
	// A callback may have cancelled itself (or a peer) during delivery;
	// those stay in kept and are dropped on the next notify.
	s.subs = kept
}
