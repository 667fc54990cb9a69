// Package core reproduces the declared engine lock hierarchy
// (subRegistry.mu → Subscription.qmu → intake.mu, nested under
// store.Store.mu) and a violation of it. The package is named
// core so the type-level lock identities match the rank table.
package core

import "sync"

type subRegistry struct {
	mu   sync.Mutex
	subs map[uint64]*Subscription
}

type intake struct {
	mu      sync.Mutex
	pending []uint64
}

type Subscription struct {
	qmu sync.Mutex
	in  intake
}

type DB struct {
	subs subRegistry
}

// enqueue acquires in the declared order: registry, then the
// subscription's pending queue. No finding.
func (db *DB) enqueue(s *Subscription, seq uint64) {
	db.subs.mu.Lock()
	defer db.subs.mu.Unlock()
	s.in.mu.Lock()
	s.in.pending = append(s.in.pending, seq)
	s.in.mu.Unlock()
}

// badOrder takes the registry lock while holding a subscription lock:
// the reverse nesting deadlocks against enqueue.
func (db *DB) badOrder(s *Subscription) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	db.subs.mu.Lock() // want "violates the declared lock hierarchy"
	db.subs.mu.Unlock()
}

// badQueueOrder takes the outbound-queue lock while holding the intake
// lock, against the declared qmu → intake.mu order.
func (db *DB) badQueueOrder(s *Subscription) {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	s.qmu.Lock() // want "violates the declared lock hierarchy"
	s.qmu.Unlock()
}
