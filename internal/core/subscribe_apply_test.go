package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videodb/internal/object"
)

// nextDeltas consumes events until n deltas arrived (failing on a
// snapshot: a resync would hide the maintenance path under test).
func nextDeltas(t *testing.T, sub *Subscription, a *subAccum, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for n > 0 {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("waiting for %d more deltas: %v", n, err)
		}
		if ev.Kind != SubDelta {
			t.Fatalf("got %s, want deltas", ev.Kind)
		}
		a.apply(t, ev)
		n--
	}
}

// costarDB holds the costar rules over facts appears_with(pI, pJ, sK):
// facts facts, two costar rows each.
func costarDB(t *testing.T, facts int) *DB {
	t.Helper()
	db := oracleDB(t)
	for _, r := range costarRules {
		if err := db.DefineRule(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < facts; i++ {
		err := db.Relate("appears_with",
			objOID("p", i%50), objOID("q", i/50), objOID("s", i))
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func objOID(prefix string, i int) object.OID { return object.OID(fmt.Sprintf("%s%d", prefix, i)) }

// bytesPerHop subscribes to costar over a store whose answer has
// 2·facts rows and returns the bytes allocated per one-fact hop: the
// fact arrives and is retired, and both deltas reach the subscriber.
func bytesPerHop(t *testing.T, facts, hops int) float64 {
	db := costarDB(t, facts)
	sub, err := db.SubscribeQuery(nil, "?- costar(X, Y, S)", SubOptions{QueueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	a := newSubAccum()
	drainUntil(t, sub, a, func() bool { return len(a.rows) == 2*facts })

	hop := func(i int) {
		s := objOID("hop", i)
		if err := db.Relate("appears_with", "x", "y", s); err != nil {
			t.Fatal(err)
		}
		nextDeltas(t, sub, a, 2)
		if _, err := db.Unrelate("appears_with", "x", "y", s); err != nil {
			t.Fatal(err)
		}
		nextDeltas(t, sub, a, 2)
	}
	hop(-1) // first Apply: builds the EDB cache's key positions
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hops; i++ {
		hop(i)
	}
	runtime.ReadMemStats(&after)
	if st := sub.Stats(); st.Recomputes != 1 {
		t.Fatalf("%d facts: %d recomputes, want only the initial run", facts, st.Recomputes)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(hops)
}

// A subscription maintained in place pays for its delta, not its
// answer: a one-fact hop allocates about the same whether the standing
// answer has 2k rows or 20k. (Recomputing or re-seeding the answer per
// hop scales the bytes with it, tenfold here.)
func TestSubscriptionHopAllocIndependentOfAnswerSize(t *testing.T) {
	const hops = 40
	small := bytesPerHop(t, 1_000, hops)
	large := bytesPerHop(t, 10_000, hops)
	t.Logf("bytes per hop: %.0f at 2k answer rows, %.0f at 20k", small, large)
	if large > 2*small {
		t.Fatalf("bytes per hop grew %.1f× for a 10× answer (%.0f → %.0f), want ≤ 2×", large/small, small, large)
	}
}

// A subscription opened while writers stream facts in does not chase
// them: its full run cuts the event queue at the store state it read,
// so the events after the cut are an exact batch and every later flush
// applies incrementally, however busy the store stays.
func TestSubscribeOpenedUnderIngestStaysIncremental(t *testing.T) {
	db := oracleDB(t)
	for _, r := range costarRules {
		if err := db.DefineRule(r); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stop.Load(); i++ {
				a, b, s := objOID("p", r.Intn(8)), objOID("p", r.Intn(8)), objOID("s", r.Intn(16))
				var err error
				if r.Intn(3) == 0 {
					_, err = db.Unrelate("appears_with", a, b, s)
				} else {
					err = db.Relate("appears_with", a, b, s)
				}
				if err != nil {
					t.Error(err)
					return
				}
				// Paced, so a pump slowed by a loaded host does not
				// overflow its 4096-event queue (which recomputes by
				// design) — continuous, not flooding.
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // the store is busy before the subscription opens

	const goal = "?- costar(X, Y, S)"
	sub, err := db.SubscribeQuery(nil, goal, SubOptions{QueueSize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	a := newSubAccum()
	drainUntil(t, sub, a, func() bool { return sub.Stats().Flushes >= 32 })
	stop.Store(true)
	wg.Wait()
	// Consume the backlog first: drainToOracle evaluates the oracle once
	// per event, which is slow for thousands of them under -race.
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		ev, err := sub.Next(ctx)
		cancel()
		if err != nil {
			break
		}
		a.apply(t, ev)
	}
	drainToOracle(t, db, sub, a, goal, "after ingest")
	st := sub.Stats()
	if st.Recomputes > 2 {
		t.Fatalf("%d recomputes over %d flushes (%d incremental), want ≤ 2", st.Recomputes, st.Flushes, st.Incremental)
	}
	if st.Resyncs != 0 {
		t.Fatalf("%d resyncs: the queue bound hid the maintenance path", st.Resyncs)
	}
}
