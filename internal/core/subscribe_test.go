package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"videodb/internal/datalog"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/parser"
)

// subAccum replays a subscription's event stream into an answer set, the
// way a well-behaved client would: snapshots replace, deltas apply.
type subAccum struct {
	rows map[string][]object.Value
	seq  uint64
}

func newSubAccum() *subAccum { return &subAccum{rows: make(map[string][]object.Value)} }

func (a *subAccum) apply(t *testing.T, ev SubEvent) {
	t.Helper()
	if ev.Seq <= a.seq {
		t.Fatalf("sequence not monotone: %d after %d", ev.Seq, a.seq)
	}
	a.seq = ev.Seq
	switch ev.Kind {
	case SubSnapshot:
		a.rows = make(map[string][]object.Value, len(ev.Rows))
		for _, r := range ev.Rows {
			a.rows[datalog.RowKey(r)] = r
		}
	case SubDelta:
		k := datalog.RowKey(ev.Row)
		if ev.Sign > 0 {
			if _, dup := a.rows[k]; dup {
				t.Fatalf("+delta for already-present row %q", k)
			}
			a.rows[k] = ev.Row
		} else {
			if _, ok := a.rows[k]; !ok {
				t.Fatalf("-delta for absent row %q", k)
			}
			delete(a.rows, k)
		}
	default:
		t.Fatalf("unknown event kind %v", ev.Kind)
	}
}

func (a *subAccum) key() []string {
	out := make([]string, 0, len(a.rows))
	for k := range a.rows {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// drainUntil consumes subscription events until the accumulated answer
// set satisfies ok, failing the test after an overall deadline. It
// tolerates idle periods (maintenance is asynchronous).
func drainUntil(t *testing.T, s *Subscription, a *subAccum, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("subscription never converged; accumulated %v", a.key())
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		ev, err := s.Next(ctx)
		cancel()
		if err != nil {
			if err == context.DeadlineExceeded {
				continue
			}
			t.Fatalf("Next: %v", err)
		}
		a.apply(t, ev)
	}
}

// drainToOracle waits until the accumulated answer set equals the
// one-shot query answer — the differential oracle of the acceptance
// criteria.
func drainToOracle(t *testing.T, db *DB, s *Subscription, a *subAccum, goal, label string) {
	t.Helper()
	var want []string
	drainUntil(t, s, a, func() bool {
		rs, err := db.Query(goal)
		if err != nil {
			t.Fatalf("%s: oracle query: %v", label, err)
		}
		want = rowsKey(rs.Rows)
		return sameKeys(a.key(), want)
	})
}

func TestSubscribeLifecycle(t *testing.T) {
	db := closureDB(t)
	defer db.Close()
	if err := db.Relate("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}

	sub, err := db.SubscribeQuery(nil, "?- reach(X, Y)", SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Columns(); len(got) != 2 || got[0] != "X" || got[1] != "Y" {
		t.Fatalf("Columns() = %v", got)
	}

	// First event: snapshot of the current answer set.
	ev, err := sub.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != SubSnapshot || len(ev.Rows) != 1 || ev.Seq != 1 {
		t.Fatalf("first event = %+v, want snapshot of 1 row at seq 1", ev)
	}

	a := newSubAccum()
	a.apply(t, ev)

	// An insert shows up as +deltas (b->c closes to a->c too).
	if err := db.Relate("edge", "b", "c"); err != nil {
		t.Fatal(err)
	}
	drainToOracle(t, db, sub, a, "?- reach(X, Y)", "after insert")

	// A retraction shows up as -deltas (DRed path).
	if _, err := db.Unrelate("edge", "b", "c"); err != nil {
		t.Fatal(err)
	}
	drainToOracle(t, db, sub, a, "?- reach(X, Y)", "after delete")

	// Irrelevant facts produce no traffic and must not break the stream.
	if err := db.Relate("likes", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("edge", "c", "d"); err != nil {
		t.Fatal(err)
	}
	drainToOracle(t, db, sub, a, "?- reach(X, Y)", "after mixed batch")

	// Close: Next drains any queued events, then reports the close.
	sub.Close()
	for {
		ev, err := sub.Next(context.Background())
		if err != nil {
			if err != ErrSubscriptionClosed {
				t.Fatalf("Next after close: %v, want ErrSubscriptionClosed", err)
			}
			break
		}
		a.apply(t, ev)
	}
	if len(db.Subscriptions()) != 0 {
		// Unregistration is asynchronous; give it a moment.
		time.Sleep(50 * time.Millisecond)
		if got := db.Subscriptions(); len(got) != 0 {
			t.Fatalf("subscription still registered after Close: %v", got)
		}
	}
}

func TestSubscribeValidation(t *testing.T) {
	db := closureDB(t)
	defer db.Close()
	cases := []struct {
		rules []string
		goal  string
	}{
		{nil, "?- reach(X,"},                                // parse error
		{[]string{"p(X) :-"}, "?- reach(X, Y)"},             // rule parse error
		{nil, "?- window(F, 3)"},                            // window alone
		{nil, "?- reach(X, Y), window(X, 0)"},               // width < 1
		{nil, "?- reach(X, Y), window(X, 2.5)"},             // non-integer width
		{nil, "?- reach(X, Y), window(X, 99999)"},           // width over cap
		{nil, "?- window(F, 3), window(G, 3)"},              // windows only
		{[]string{"p(X) :- q(X), window(X, 3)"}, "?- p(X)"}, // window in a rule
	}
	for _, c := range cases {
		if _, err := db.SubscribeQuery(c.rules, c.goal, SubOptions{}); err == nil {
			t.Errorf("SubscribeQuery(%v, %q) should fail", c.rules, c.goal)
		}
	}
	if got := db.SubscriptionStats().Active; got != 0 {
		t.Fatalf("failed subscribes leaked: %d active", got)
	}
}

// Subscription-local rules extend the program without touching the DB's
// rule set.
func TestSubscribeLocalRules(t *testing.T) {
	db := New()
	defer db.Close()
	if err := db.Relate("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	sub, err := db.SubscribeQuery(
		[]string{"sym(X, Y) :- edge(X, Y)", "sym(X, Y) :- edge(Y, X)"},
		"?- sym(X, Y)", SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	a := newSubAccum()
	drainUntil(t, sub, a, func() bool { return len(a.rows) == 2 })
	if err := db.Relate("edge", "b", "c"); err != nil {
		t.Fatal(err)
	}
	drainUntil(t, sub, a, func() bool { return len(a.rows) == 4 })
	// The local rules are invisible to one-shot queries.
	if rs, err := db.Query("?- sym(X, Y)"); err != nil || len(rs.Rows) != 0 {
		t.Fatalf("local rules leaked into DB: rows=%v err=%v", rs, err)
	}
}

// Overflowing the outbound queue under the default policy drops the
// backlog and resyncs with one snapshot; the client state still
// converges to the oracle.
func TestSubscribeOverflowResync(t *testing.T) {
	db := New()
	defer db.Close()
	sub, err := db.SubscribeQuery(nil, "?- edge(X, Y)", SubOptions{QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Consume the initial (empty) snapshot so the burst below must flow
	// as deltas, then stop consuming: pile up far more deltas than the
	// queue holds.
	a := newSubAccum()
	drainUntil(t, sub, a, func() bool { return a.seq > 0 })
	for i := 0; i < 200; i++ {
		if err := db.Relate("edge", object.OID(fmt.Sprintf("n%d", i)), "x"); err != nil {
			t.Fatal(err)
		}
	}

	drainUntil(t, sub, a, func() bool { return len(a.rows) == 200 })
	// Convergence with a 4-slot queue and 200 inserts is only possible
	// through at least one resync snapshot.
	st := sub.Stats()
	if st.Resyncs == 0 {
		t.Fatalf("expected at least one resync, stats %+v", st)
	}
	if st.Dropped == 0 {
		t.Fatalf("expected drop cycles counted, stats %+v", st)
	}
	// Under drop-resync every drop cycle ends in exactly one resync
	// snapshot (both bumped in the same critical section), so the two
	// counters must agree — if dropped counted discarded deltas instead
	// of cycles it would race ahead of resyncs by the backlog size.
	if st.Dropped != st.Resyncs {
		t.Fatalf("dropped (%d) must count cycles and equal resyncs (%d); stats %+v",
			st.Dropped, st.Resyncs, st)
	}
	totals := db.SubscriptionStats()
	if totals.Resyncs == 0 || totals.Dropped == 0 {
		t.Fatalf("DB totals missed the resync: %+v", totals)
	}
	if totals.Dropped != totals.Resyncs {
		t.Fatalf("DB totals: dropped (%d) != resyncs (%d)", totals.Dropped, totals.Resyncs)
	}
}

// The dropped counter counts slow-consumer drop cycles, not discarded
// deltas: one overflow that throws away a whole backlog is one event to
// an operator, however deep the queue was. This drives emit directly
// (white box) so the per-cycle count is deterministic — the end-to-end
// path coalesces flushes and cannot pin an exact number.
func TestSubscribeDroppedCountsCyclesNotDeltas(t *testing.T) {
	db := New()
	defer db.Close()
	s := &Subscription{
		db:           db,
		opts:         SubOptions{QueueSize: 2}.withDefaults(),
		consumerWake: make(chan struct{}, 1),
	}
	s.nextSeq = 1 // past the initial snapshot, so diffs flow as deltas

	rows := func(lo, n int) [][]object.Value {
		out := make([][]object.Value, n)
		for i := range out {
			out[i] = []object.Value{object.Str(fmt.Sprintf("row%03d", lo+i))}
		}
		return out
	}

	// Ten new rows against a 2-slot queue: two deltas fit, the third
	// overflows — one drop cycle, one resync snapshot.
	if !s.emit(rows(0, 10), nil) {
		t.Fatal("emit reported the subscription closed")
	}
	if got := s.dropped.Load(); got != 1 {
		t.Fatalf("dropped after first overflow = %d, want 1 (one cycle, not one per delta)", got)
	}
	if got := s.resyncs.Load(); got != 1 {
		t.Fatalf("resyncs after first overflow = %d, want 1", got)
	}

	// A second overflowing diff is a second cycle: the counter advances
	// by exactly one again, regardless of backlog contents.
	if !s.emit(rows(100, 10), rows(0, 10)) {
		t.Fatal("emit reported the subscription closed")
	}
	if got := s.dropped.Load(); got != 2 {
		t.Fatalf("dropped after second overflow = %d, want 2", got)
	}
	if got := db.subs.dropped.Load(); got != 2 {
		t.Fatalf("DB dropped total = %d, want 2", got)
	}
}

// Under the disconnect policy a slow consumer is cut off with
// ErrSlowConsumer instead of resynced.
func TestSubscribeDisconnectPolicy(t *testing.T) {
	db := New()
	defer db.Close()
	sub, err := db.SubscribeQuery(nil, "?- edge(X, Y)",
		SubOptions{QueueSize: 2, Policy: SubDisconnect})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Consume the initial snapshot, then stall while deltas pile up.
	if ev, err := sub.Next(context.Background()); err != nil || ev.Kind != SubSnapshot {
		t.Fatalf("first event: %+v, %v", ev, err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Relate("edge", object.OID(fmt.Sprintf("n%d", i)), "x"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("slow consumer never disconnected")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		_, err := sub.Next(ctx)
		cancel()
		if err == context.DeadlineExceeded {
			continue
		}
		if err != nil {
			if err != ErrSlowConsumer {
				t.Fatalf("Next: %v, want ErrSlowConsumer", err)
			}
			break
		}
	}
	if sub.Err() != ErrSlowConsumer {
		t.Fatalf("Err() = %v, want ErrSlowConsumer", sub.Err())
	}
}

// A store Load mid-delivery (EventReset) forces a recompute; the stream
// converges to the post-Load answer set.
func TestSubscribeStoreLoadReset(t *testing.T) {
	db := New()
	defer db.Close()
	if err := db.Relate("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "snap.json")
	if err := db.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	// Diverge from the snapshot, then subscribe.
	if err := db.Relate("edge", "b", "c"); err != nil {
		t.Fatal(err)
	}
	sub, err := db.SubscribeQuery(nil, "?- edge(X, Y)", SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	a := newSubAccum()
	drainUntil(t, sub, a, func() bool { return len(a.rows) == 2 })

	// Load replaces the whole store: the subscriber must converge to the
	// snapshot contents (one edge), not the union.
	if err := db.LoadFile(snap); err != nil {
		t.Fatal(err)
	}
	drainToOracle(t, db, sub, a, "?- edge(X, Y)", "after Load")
	if len(a.rows) != 1 {
		t.Fatalf("post-Load answer set = %v, want the snapshot's single edge", a.key())
	}
}

// SkipTo models Last-Event-ID resume: queued events at or below the
// acknowledged sequence number are discarded.
func TestSubscribeSkipTo(t *testing.T) {
	db := New()
	defer db.Close()
	sub, err := db.SubscribeQuery(nil, "?- edge(X, Y)", SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ev, err := sub.Next(context.Background())
	if err != nil || ev.Kind != SubSnapshot {
		t.Fatalf("first event: %+v, %v", ev, err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Relate("edge", object.OID(fmt.Sprintf("n%d", i)), "x"); err != nil {
			t.Fatal(err)
		}
	}
	a := newSubAccum()
	a.apply(t, ev)
	drainUntil(t, sub, a, func() bool { return len(a.rows) == 5 })
	last := a.seq

	// More deltas queue up; skipping to the latest seq we saw must not
	// lose the new ones, and skipping past everything empties the queue.
	if err := db.Relate("edge", "y", "x"); err != nil {
		t.Fatal(err)
	}
	drainUntil(t, sub, a, func() bool { return len(a.rows) == 6 })
	sub.SkipTo(last) // already consumed; must be a no-op
	if err := db.Relate("edge", "z", "x"); err != nil {
		t.Fatal(err)
	}
	drainUntil(t, sub, a, func() bool { return len(a.rows) == 7 })
}

// window(F, N): answers leave the visible set once N newer intervals
// have been ingested, even though they are still derivable.
func TestSubscribeWindowAging(t *testing.T) {
	db := New()
	defer db.Close()
	if err := db.DefineRule("shot(G) :- Interval(G), appears(G, X)"); err != nil {
		t.Fatal(err)
	}
	sub, err := db.SubscribeQuery(nil, "?- shot(G), window(G, 2)", SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	a := newSubAccum()
	drainUntil(t, sub, a, func() bool { return a.seq > 0 })

	put := func(i int) {
		t.Helper()
		oid := object.OID(fmt.Sprintf("g%d", i))
		if err := db.PutInterval(oid, interval.FromPairs(float64(i*10), float64(i*10+5)), nil); err != nil {
			t.Fatal(err)
		}
		if err := db.Relate("appears", oid, "obj"); err != nil {
			t.Fatal(err)
		}
	}
	put(1)
	drainUntil(t, sub, a, func() bool { return sameKeys(a.key(), []string{"g1"}) })
	put(2)
	drainUntil(t, sub, a, func() bool { return sameKeys(a.key(), []string{"g1", "g2"}) })
	// g3 is the third frame: g1 ages out of window(G, 2).
	put(3)
	drainUntil(t, sub, a, func() bool { return sameKeys(a.key(), []string{"g2", "g3"}) })
	put(4)
	drainUntil(t, sub, a, func() bool { return sameKeys(a.key(), []string{"g3", "g4"}) })

	// The one-shot query (no window) still sees everything.
	rs, err := db.Query("?- shot(G)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Fatalf("one-shot sees %d shots, want 4", len(rs.Rows))
	}
}

// TestSubscribeDifferentialOracle is the acceptance-criteria oracle for
// subscriptions: random mutation bursts from concurrent writers — edge
// facts, and interval puts and deletes on the very oids the edges
// reference — on the backend VIDEODB_TEST_BACKEND names. Standing goals run side
// by side: object-free ones — all variables, a constant, a repeated
// variable — which ignore the object events and are maintained in place,
// and one whose attribute guard reads objects. At quiescence each
// accumulated stream equals the one-shot query answer.
func TestSubscribeDifferentialOracle(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
	}
	goals := []string{"?- reach(X, Y)", "?- reach(n0, Y)", "?- reach(X, X)", "?- reach(X, Y), Y.n > 2"}
	for _, variant := range variants {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				db := oracleDB(t, variant.opts...)
				for _, rule := range []string{
					"reach(X, Y) :- edge(X, Y)",
					"reach(X, Z) :- reach(X, Y), edge(Y, Z)",
				} {
					if err := db.DefineRule(rule); err != nil {
						t.Fatal(err)
					}
				}
				subs := make([]*Subscription, len(goals))
				accs := make([]*subAccum, len(goals))
				for i, goal := range goals {
					sub, err := db.SubscribeQuery(nil, goal, SubOptions{QueueSize: 64})
					if err != nil {
						t.Fatal(err)
					}
					subs[i], accs[i] = sub, newSubAccum()
				}

				// 4 writers mutate concurrently — with each other, with the
				// pumps, and with the consumer below.
				var wg sync.WaitGroup
				for w := 0; w < 4; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						r := rand.New(rand.NewSource(seed*31 + int64(w)))
						for i := 0; i < 40; i++ {
							a := object.OID(fmt.Sprintf("n%d", r.Intn(6)))
							b := object.OID(fmt.Sprintf("n%d", r.Intn(6)))
							var err error
							switch k := r.Intn(10); {
							case k < 5:
								err = db.Relate("edge", a, b)
							case k < 7:
								_, err = db.Unrelate("edge", a, b)
							case k < 9:
								err = db.PutInterval(a, interval.New(interval.Closed(float64(i), float64(i+1))),
									map[string]object.Value{"n": object.Num(float64(r.Intn(5)))})
							default:
								db.Store().Delete(a)
							}
							if err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				// Consume while the writers run (events may resync under
				// pressure; the accumulator handles both shapes).
				consuming := true
				for consuming {
					select {
					case <-done:
						consuming = false
					default:
						for i, sub := range subs {
							ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
							ev, err := sub.Next(ctx)
							cancel()
							if err == nil {
								accs[i].apply(t, ev)
							}
						}
					}
				}
				// Quiescent store: every stream must converge exactly.
				for i, goal := range goals {
					drainToOracle(t, db, subs[i], accs[i], goal, fmt.Sprintf("seed %d goal %s", seed, goal))
					subs[i].Close()
				}
				db.Close()
			}
		})
	}
}

// Rule and taxonomy changes re-fingerprint the standing program: the
// subscription picks them up without re-subscribing.
func TestSubscribeRuleAndClassChange(t *testing.T) {
	db := New()
	defer db.Close()
	if err := db.DefineRule("reach(X, Y) :- edge(X, Y)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	sub, err := db.SubscribeQuery(nil, "?- reach(X, Y)", SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	a := newSubAccum()
	drainUntil(t, sub, a, func() bool { return len(a.rows) == 1 })

	// A new reachable rule changes the answer set. The fingerprint check
	// happens on the next flush, which needs a store event to trigger —
	// exactly how rule changes surface in live ingest.
	if err := db.DefineRule("reach(X, Z) :- reach(X, Y), edge(Y, Z)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("edge", "b", "c"); err != nil {
		t.Fatal(err)
	}
	drainToOracle(t, db, sub, a, "?- reach(X, Y)", "after rule change")
	if len(a.rows) != 3 {
		t.Fatalf("accumulated %v, want 3 rows", a.key())
	}
}

// A view and a subscription over the same goal keep their rule slice
// until the definitions move, and recompute only when a change reaches
// the goal: an unrelated rule leaves the slice alone, a reachable rule
// or a class the goal reads through instance_of recomputes once. Each
// step ends with an edge fact, which both must absorb.
func TestStandingSliceRecomputes(t *testing.T) {
	const goal = "?- reach(X, Y)"
	db := closureDB(t)
	defer db.Close()
	if err := db.DefineRule(`reach(X, Y) :- edge(X, Y), instance_of(Y, "shot")`); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("v", goal); err != nil {
		t.Fatal(err)
	}
	sub, err := db.SubscribeQuery(nil, goal, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	a := newSubAccum()
	drainToOracle(t, db, sub, a, goal, "initial")

	// With the definitions unchanged the slice is reused, not rebuilt.
	q, err := parser.ParseQuery(goal)
	if err != nil {
		t.Fatal(err)
	}
	var c standingSlice
	p1, _ := db.slice(&c, q, nil)
	p2, _ := db.slice(&c, q, nil)
	if &p1.Rules[0] != &p2.Rules[0] {
		t.Fatal("slice rebuilt with the definitions unchanged")
	}

	viewRecomputes := func() uint64 {
		for _, vi := range db.Views() {
			if vi.Name == "v" {
				return vi.Recomputes
			}
		}
		t.Fatal("view v missing")
		return 0
	}
	steps := []struct {
		name   string
		change func() error
		want   uint64
	}{
		{"unrelated rule", func() error { return db.DefineRule("unrelated(X) :- likes(X, Y)") }, 0},
		{"reachable rule", func() error { return db.DefineRule("reach(X, Y) :- back(Y, X)") }, 1},
		{"reachable class", func() error { return db.DefineClass("shot", "") }, 1},
	}
	for i, st := range steps {
		view0, sub0 := viewRecomputes(), sub.Stats()
		if err := st.change(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if err := db.Relate("edge", "b", object.OID(fmt.Sprintf("c%d", i))); err != nil {
			t.Fatal(err)
		}
		assertViewMatchesQuery(t, db, "v", goal, st.name)
		if got := viewRecomputes() - view0; got != st.want {
			t.Errorf("%s: view recomputed %d times, want %d", st.name, got, st.want)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			now := sub.Stats()
			if now.Recomputes+now.Incremental > sub0.Recomputes+sub0.Incremental {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: subscription never flushed the edge", st.name)
			}
			time.Sleep(time.Millisecond)
		}
		drainToOracle(t, db, sub, a, goal, st.name)
		if got := sub.Stats().Recomputes - sub0.Recomputes; got != st.want {
			t.Errorf("%s: subscription recomputed %d times, want %d", st.name, got, st.want)
		}
	}
}

// A subscription whose caller is already gone is never registered: the
// call returns the cancellation, and no subscription or pump is left.
func TestSubscribeCancelledContextRegistersNothing(t *testing.T) {
	db := closureDB(t)
	defer db.Close()
	if err := db.Relate("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sub, err := db.SubscribeQueryContext(ctx, nil, "?- reach(X, Y)", SubOptions{})
	if !errors.Is(err, context.Canceled) || !datalog.IsCanceled(err) {
		t.Fatalf("SubscribeQueryContext under a cancelled ctx: sub %v, err %v", sub, err)
	}
	if infos := db.Subscriptions(); len(infos) != 0 {
		t.Fatalf("cancelled subscribe left %v registered", infos)
	}
	if st := db.SubscriptionStats(); st.Active != 0 || st.Opened != 0 {
		t.Fatalf("cancelled subscribe counted: %+v", st)
	}
}

// DB.Close stops all pumps and closes their streams.
func TestSubscribeDBCloseStopsPumps(t *testing.T) {
	db := New()
	sub, err := db.SubscribeQuery(nil, "?- edge(X, Y)", SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("pump did not stop on DB.Close")
	}
	for {
		_, err := sub.Next(context.Background())
		if err != nil {
			if err != ErrSubscriptionClosed {
				t.Fatalf("Next after DB.Close: %v", err)
			}
			break
		}
	}
}

// The flush rate limit coalesces bursts: with MaxPerSec=4 a burst of
// rapid mutations arrives in far fewer flushes than mutations.
func TestSubscribeRateLimitCoalesces(t *testing.T) {
	db := New()
	defer db.Close()
	sub, err := db.SubscribeQuery(nil, "?- edge(X, Y)",
		SubOptions{MaxPerSec: 4, QueueSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	a := newSubAccum()
	drainUntil(t, sub, a, func() bool { return a.seq > 0 })
	for i := 0; i < 50; i++ {
		if err := db.Relate("edge", object.OID(fmt.Sprintf("n%d", i)), "x"); err != nil {
			t.Fatal(err)
		}
	}
	drainUntil(t, sub, a, func() bool { return len(a.rows) == 50 })
	if got := sub.Stats().Flushes; got > 30 {
		t.Fatalf("rate-limited burst used %d flushes for 50 mutations, want far fewer", got)
	}
}

// Goal source and listing plumbing.
func TestSubscriptionsListing(t *testing.T) {
	db := New()
	defer db.Close()
	goal := "?- edge(X, Y), window(X, 8)"
	sub, err := db.SubscribeQuery(nil, goal, SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	infos := db.Subscriptions()
	if len(infos) != 1 {
		t.Fatalf("Subscriptions() = %v", infos)
	}
	if infos[0].ID != sub.ID() || infos[0].Goal != strings.TrimSpace(goal) || !infos[0].Windowed {
		t.Fatalf("listing = %+v", infos[0])
	}
	if os.Getenv("VIDEODB_TEST_BACKEND") == "segment" {
		t.Log("listing path exercised on segment-config process")
	}
}
