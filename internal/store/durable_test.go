package store_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
	"videodb/internal/store/segment"
)

// The Store facade over its durable backend: round trips across reopen,
// a model-based oracle check, and the write-path failure contract — a
// failed backend write is rolled back, latched, and never acknowledged.

// openBackend opens dir on the segment backend with thresholds small
// enough that a few dozen mutations flush and compact.
func openBackend(t *testing.T, dir string, opts ...segment.Option) *segment.Store {
	t.Helper()
	small := []segment.Option{segment.WithFlushThreshold(16), segment.WithCompactThreshold(3)}
	b, err := segment.Open(dir, append(small, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openDurable wires b into a store and closes it at test end.
func openDurable(t *testing.T, b store.Backend, opts ...store.Option) *store.Store {
	t.Helper()
	s, err := store.OpenBackend(b, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// flakyBackend fails exactly one backend write — the failAt-th (from 0)
// call of AddFact, DeleteFact, LogPutObject or LogDeleteObject — without
// forwarding it. The wrapped segment backend stays healthy, so after the
// failure only the store's own latch refuses the next write: the tests
// below fail if that latch, or a mutation's rollback, is removed.
type flakyBackend struct {
	*segment.Store
	failAt, writes int
}

func (b *flakyBackend) fail() error {
	b.writes++
	if b.writes-1 == b.failAt {
		return errors.New("injected write failure (disk full)")
	}
	return nil
}

func (b *flakyBackend) AddFact(f store.Fact, key string) error {
	if err := b.fail(); err != nil {
		return err
	}
	return b.Store.AddFact(f, key)
}

func (b *flakyBackend) DeleteFact(f store.Fact, key string) error {
	if err := b.fail(); err != nil {
		return err
	}
	return b.Store.DeleteFact(f, key)
}

func (b *flakyBackend) LogPutObject(o *object.Object) error {
	if err := b.fail(); err != nil {
		return err
	}
	return b.Store.LogPutObject(o)
}

func (b *flakyBackend) LogDeleteObject(oid object.OID) error {
	if err := b.fail(); err != nil {
		return err
	}
	return b.Store.LogDeleteObject(oid)
}

type storeOp struct {
	kind string // put-entity, put-interval, update, delete, addfact, delfact, checkpoint
	oid  object.OID
	val  float64
	fact store.Fact
}

func randomOps(r *rand.Rand, n int) []storeOp {
	oids := []object.OID{"a", "b", "c", "d", "e", "f"}
	var ops []storeOp
	for i := 0; i < n; i++ {
		oid := oids[r.Intn(len(oids))]
		switch r.Intn(10) {
		case 0, 1:
			ops = append(ops, storeOp{kind: "put-entity", oid: oid, val: float64(r.Intn(10))})
		case 2, 3:
			ops = append(ops, storeOp{kind: "put-interval", oid: oid, val: float64(r.Intn(50))})
		case 4:
			ops = append(ops, storeOp{kind: "update", oid: oid, val: float64(r.Intn(10))})
		case 5:
			ops = append(ops, storeOp{kind: "delete", oid: oid})
		case 6, 7:
			ops = append(ops, storeOp{kind: "addfact",
				fact: store.RefFact(fmt.Sprintf("r%d", r.Intn(3)), oid, oids[r.Intn(len(oids))])})
		case 8:
			ops = append(ops, storeOp{kind: "delfact",
				fact: store.RefFact(fmt.Sprintf("r%d", r.Intn(3)), oid, oids[r.Intn(len(oids))])})
		default:
			ops = append(ops, storeOp{kind: "checkpoint"})
		}
	}
	return ops
}

func applyOp(t *testing.T, s *store.Store, op storeOp) {
	t.Helper()
	switch op.kind {
	case "put-entity":
		if err := s.Put(object.NewEntity(op.oid).Set("v", object.Num(op.val))); err != nil {
			t.Fatal(err)
		}
	case "put-interval":
		o := object.NewInterval(op.oid, interval.FromPairs(op.val, op.val+5)).
			Set(object.AttrEntities, object.RefSet("x"))
		if err := s.Put(o); err != nil {
			t.Fatal(err)
		}
	case "update":
		// Missing objects are allowed to fail identically on both sides.
		_ = s.Update(op.oid, func(o *object.Object) error {
			o.Set("v", object.Num(op.val))
			return nil
		})
	case "delete":
		s.Delete(op.oid)
	case "addfact":
		s.AddFact(op.fact)
	case "delfact":
		s.DeleteFact(op.fact)
	case "checkpoint":
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

// assertStoresEqual compares objects, facts (as sets: the backend's scan
// order is unspecified) and index-backed query results.
func assertStoresEqual(t *testing.T, got, want *store.Store) {
	t.Helper()
	if g, w := got.OIDs(), want.OIDs(); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("objects: %v vs %v", g, w)
	}
	for _, oid := range want.OIDs() {
		if a, b := got.Get(oid), want.Get(oid); !a.Equal(b) {
			t.Fatalf("object %s: %v vs %v", oid, a, b)
		}
	}
	if g, w := got.Relations(), want.Relations(); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("relations: %v vs %v", g, w)
	}
	for _, rel := range want.Relations() {
		if g, w := factKeys(got, rel), factKeys(want, rel); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: %v vs %v", rel, g, w)
		}
	}
	if g, w := got.IntervalsContaining("x"), want.IntervalsContaining("x"); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("IntervalsContaining: %v vs %v", g, w)
	}
	window := interval.Closed(0, 60)
	if g, w := got.IntervalsOverlapping(window), want.IntervalsOverlapping(window); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("IntervalsOverlapping: %v vs %v", g, w)
	}
}

func factKeys(s *store.Store, rel string) []string {
	var out []string
	for _, f := range s.Facts(rel) {
		out = append(out, f.Key())
	}
	sort.Strings(out)
	return out
}

// TestDurableStoreMatchesOracle applies a random mutation sequence to a
// durable store — closed and reopened mid-sequence, so recovery is
// exercised — and to a volatile oracle; after every reopen and at the
// end the two must agree.
func TestDurableStoreMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			durable := openDurable(t, openBackend(t, dir))
			oracle := store.New()
			for i, op := range randomOps(r, 120) {
				applyOp(t, durable, op)
				if op.kind != "checkpoint" {
					applyOp(t, oracle, op)
				}
				if i%37 == 36 {
					if err := durable.Close(); err != nil {
						t.Fatal(err)
					}
					durable = openDurable(t, openBackend(t, dir))
					assertStoresEqual(t, durable, oracle)
				}
			}
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}
			assertStoresEqual(t, openDurable(t, openBackend(t, dir)), oracle)
		})
	}
}

// TestWALFailureNoAcknowledgedWriteLost drives one random mutation
// stream into a durable store once per failing write position, and checks
// the central durability promise: exactly the acknowledged mutations
// survive, in the live store (the failed one was rolled back) and after
// recovery; and once a write has failed, no later one is acknowledged.
func TestWALFailureNoAcknowledgedWriteLost(t *testing.T) {
	failed := map[string]bool{}
	for failAt := 0; failAt < 60; failAt++ {
		failed[failingStream(t, failAt)] = true
	}
	for _, kind := range []string{"put", "update", "delete", "addfact", "delfact"} {
		if !failed[kind] {
			t.Errorf("no run failed a %s write; its rollback went untested", kind)
		}
	}
}

// failingStream runs the stream with the failAt-th backend write failing
// and returns the kind of mutation that failed ("" if none did).
func failingStream(t *testing.T, failAt int) string {
	t.Helper()
	dir := t.TempDir()
	s := openDurable(t, &flakyBackend{Store: openBackend(t, dir), failAt: failAt})
	oracle := store.New() // mirrors acknowledged mutations only

	r := rand.New(rand.NewSource(5))
	oids := []object.OID{"a", "b", "c", "d"}
	failedKind := ""
	for i := 0; i < 80; i++ {
		oid := oids[r.Intn(len(oids))]
		f := store.RefFact(fmt.Sprintf("r%d", r.Intn(2)), oid, oids[r.Intn(len(oids))])
		var (
			kind   string
			mutate func(*store.Store) (bool, error)
		)
		switch n := r.Intn(6); {
		case n == 2:
			kind, mutate = "addfact", func(st *store.Store) (bool, error) { return st.AddFactErr(f) }
		case n == 3:
			kind, mutate = "delfact", func(st *store.Store) (bool, error) { return st.DeleteFactErr(f) }
		case n == 4:
			kind, mutate = "delete", func(st *store.Store) (bool, error) { return st.DeleteErr(oid) }
		case n == 5 && oracle.Has(oid):
			kind, mutate = "update", func(st *store.Store) (bool, error) {
				return true, st.Update(oid, func(o *object.Object) error {
					o.Set("u", object.Num(float64(i)))
					return nil
				})
			}
		default:
			o := object.NewEntity(oid).Set("v", object.Num(float64(i)))
			kind, mutate = "put", func(st *store.Store) (bool, error) { return true, st.Put(o) }
		}
		changed, err := mutate(s)
		switch {
		case err != nil && failedKind == "":
			failedKind = kind
		case err == nil && failedKind != "":
			t.Fatalf("failAt %d: op %d (%s) acknowledged after a failed write", failAt, i, kind)
		case err == nil:
			if want, _ := mutate(oracle); changed != want {
				t.Fatalf("failAt %d: op %d (%s) diverged from the oracle", failAt, i, kind)
			}
		}
	}
	// The live store equals the acknowledged oracle (rollback worked)...
	assertStoresEqual(t, s, oracle)
	if err := s.Close(); (err == nil) != (failedKind == "") {
		t.Fatalf("failAt %d: Close = %v after failed write %q", failAt, err, failedKind)
	}
	// ...and so does the recovered store: nothing acknowledged is
	// missing, nothing unacknowledged appears.
	assertStoresEqual(t, openDurable(t, openBackend(t, dir)), oracle)
	return failedKind
}

// TestWALFailureDeleteRestoresIndexes pins the rollback detail: a Delete
// whose backend write fails must leave the object queryable through the
// secondary indexes, not just present in the map.
func TestWALFailureDeleteRestoresIndexes(t *testing.T) {
	s := openDurable(t, &flakyBackend{Store: openBackend(t, t.TempDir()), failAt: 2})
	if err := s.Put(object.NewEntity("e1").Set("score", object.Num(7))); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(object.NewInterval("gi1", interval.FromPairs(0, 10)).
		Set(object.AttrEntities, object.RefSet("e1"))); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.DeleteErr("gi1"); ok || err == nil {
		t.Fatalf("DeleteErr = (%v, %v), want failure", ok, err)
	}
	if got := s.IntervalsContaining("e1"); len(got) != 1 || got[0] != "gi1" {
		t.Fatalf("entity index after rolled-back delete = %v", got)
	}
	if got := s.FindByAttr("score", object.Num(7)); len(got) != 1 || got[0] != "e1" {
		t.Fatalf("attr index after rolled-back delete = %v", got)
	}
}

// TestSubscribeNoEventOnFailedAppend: a mutation whose backend write
// fails must not reach subscribers.
func TestSubscribeNoEventOnFailedAppend(t *testing.T) {
	s := openDurable(t, &flakyBackend{Store: openBackend(t, t.TempDir()), failAt: 1})
	var events int
	s.Subscribe(func(store.Event) { events++ })
	if !s.AddFact(store.RefFact("r", "a", "b")) {
		t.Fatal("first add should be acknowledged")
	}
	if s.AddFact(store.RefFact("r", "c", "d")) {
		t.Fatal("second add should fail")
	}
	if events != 1 {
		t.Fatalf("got %d events, want 1 (failed mutation must not notify)", events)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, openBackend(t, dir))
	if err := s.Put(object.NewEntity("o1").Set("name", object.Str("David"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(object.NewInterval("gi1", interval.FromPairs(0, 30)).
		Set(object.AttrEntities, object.RefSet("o1"))); err != nil {
		t.Fatal(err)
	}
	s.AddFact(store.RefFact("in", "o1", "gi1"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, openBackend(t, dir))
	if re.Len() != 2 {
		t.Fatalf("recovered %d objects", re.Len())
	}
	if got := re.Get("o1").Attr("name"); !got.Equal(object.Str("David")) {
		t.Errorf("recovered o1 = %v", re.Get("o1"))
	}
	if !re.HasFact(store.RefFact("in", "o1", "gi1")) {
		t.Error("fact lost")
	}
	// Indexes rebuilt from the recovered objects.
	if got := re.IntervalsContaining("o1"); len(got) != 1 || got[0] != "gi1" {
		t.Errorf("index after recovery = %v", got)
	}
}

func TestDurableUpdateDeleteReplay(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, openBackend(t, dir))
	s.Put(object.NewEntity("a").Set("v", object.Num(1)))
	s.Put(object.NewEntity("b"))
	if err := s.Update("a", func(o *object.Object) error {
		o.Set("v", object.Num(2))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s.Delete("b")
	s.AddFact(store.RefFact("r", "a"))
	s.DeleteFact(store.RefFact("r", "a"))
	s.Close()

	re := openDurable(t, openBackend(t, dir))
	if re.Len() != 1 {
		t.Fatalf("recovered %d objects, want 1", re.Len())
	}
	if got := re.Get("a").Attr("v"); !got.Equal(object.Num(2)) {
		t.Errorf("update lost: %v", got)
	}
	if re.HasFact(store.RefFact("r", "a")) {
		t.Error("deleted fact resurrected")
	}
}

func TestDurableSyncOption(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, openBackend(t, dir, segment.WithSyncEveryWrite()))
	s.Put(object.NewEntity("x"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !openDurable(t, openBackend(t, dir)).Has("x") {
		t.Error("synced write lost")
	}
}

// TestOpenBackendForwardsOptions: OpenBackend forwards index options.
func TestOpenBackendForwardsOptions(t *testing.T) {
	s := openDurable(t, openBackend(t, t.TempDir()), store.WithoutEntityIndex())
	if err := s.Put(object.NewInterval("gi1", interval.FromPairs(0, 10)).
		Set(object.AttrEntities, object.RefSet("e1"))); err != nil {
		t.Fatal(err)
	}
	// Two attribute terms (duration, entities) and no entity-index term;
	// membership falls back to a scan.
	if n := s.Stats().IndexTerms; n != 2 {
		t.Errorf("IndexTerms = %d, want 2 (entity index disabled)", n)
	}
	if got := s.IntervalsContaining("e1"); len(got) != 1 || got[0] != "gi1" {
		t.Errorf("IntervalsContaining = %v", got)
	}
}

func TestDurableEmptyDirIsEmptyStore(t *testing.T) {
	if n := openDurable(t, openBackend(t, t.TempDir())).Len(); n != 0 {
		t.Errorf("fresh durable store has %d objects", n)
	}
}
