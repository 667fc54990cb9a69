package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"videodb/internal/datalog"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
	"videodb/internal/store/segment"
)

// rowsKey flattens a result row set into a canonical sorted form for
// comparison between a view read and a from-scratch query.
func rowsKey(rows [][]object.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "\x1f")
	}
	sort.Strings(out)
	return out
}

func assertViewMatchesQuery(t *testing.T, db *DB, view, goal, label string) *ViewResult {
	t.Helper()
	vr, err := db.View(view)
	if err != nil {
		t.Fatalf("%s: view read: %v", label, err)
	}
	rs, err := db.Query(goal)
	if err != nil {
		t.Fatalf("%s: oracle query: %v", label, err)
	}
	got, want := rowsKey(vr.Rows), rowsKey(rs.Rows)
	if len(got) != len(want) {
		t.Fatalf("%s: view has %d rows, recompute %d\nview  %v\nquery %v\n(mode %s)",
			label, len(got), len(want), got, want, vr.Mode)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: view %q vs recompute %q (mode %s)",
				label, i, got[i], want[i], vr.Mode)
		}
	}
	return vr
}

func closureDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	for _, r := range []string{
		"reach(X, Y) :- edge(X, Y)",
		"reach(X, Z) :- reach(X, Y), edge(Y, Z)",
	} {
		if err := db.DefineRule(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestMaterializeModes(t *testing.T) {
	db := closureDB(t)
	mustRelate := func(a, b string) {
		t.Helper()
		if err := db.Relate("edge", object.OID(a), object.OID(b)); err != nil {
			t.Fatal(err)
		}
	}
	mustRelate("a", "b")
	mustRelate("b", "c")

	vr, err := db.Materialize("closure", "?- reach(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if vr.Mode != ViewRecompute {
		t.Fatalf("initial build mode = %s, want recompute", vr.Mode)
	}
	if len(vr.Rows) != 3 { // ab ac bc
		t.Fatalf("initial rows = %d, want 3", len(vr.Rows))
	}

	// No mutations since: cached.
	vr, err = db.View("closure")
	if err != nil {
		t.Fatal(err)
	}
	if vr.Mode != ViewCached {
		t.Fatalf("idle read mode = %s, want cached", vr.Mode)
	}

	// A relevant fact mutation: incremental.
	mustRelate("c", "d")
	vr = assertViewMatchesQuery(t, db, "closure", "?- reach(X, Y)", "after insert")
	if vr.Mode != ViewIncremental {
		t.Fatalf("post-insert mode = %s, want incremental", vr.Mode)
	}
	if vr.AppliedInserts != 1 || vr.AppliedDeletes != 0 {
		t.Fatalf("applied = +%d/-%d, want +1/-0", vr.AppliedInserts, vr.AppliedDeletes)
	}

	// A deletion: incremental DRed.
	if ok, err := db.Unrelate("edge", "b", "c"); err != nil || !ok {
		t.Fatalf("unrelate: %v %v", ok, err)
	}
	vr = assertViewMatchesQuery(t, db, "closure", "?- reach(X, Y)", "after delete")
	if vr.Mode != ViewIncremental {
		t.Fatalf("post-delete mode = %s, want incremental", vr.Mode)
	}

	// An irrelevant fact (different predicate) keeps the cache warm.
	if err := db.Relate("likes", "a", "b"); err != nil {
		t.Fatal(err)
	}
	vr, err = db.View("closure")
	if err != nil {
		t.Fatal(err)
	}
	if vr.Mode != ViewCached {
		t.Fatalf("irrelevant-fact read mode = %s, want cached", vr.Mode)
	}

	// Add-then-delete of the same fact nets to nothing: cached.
	mustRelate("x", "y")
	if _, err := db.Unrelate("edge", "x", "y"); err != nil {
		t.Fatal(err)
	}
	vr, err = db.View("closure")
	if err != nil {
		t.Fatal(err)
	}
	if vr.Mode != ViewCached {
		t.Fatalf("net-zero batch mode = %s, want cached", vr.Mode)
	}

	// reach reads no objects, so an object mutation cannot change it: the
	// cache stays warm (TestViewObjectReadingSliceRecomputes covers the
	// slices it does invalidate).
	if err := db.PutEntity("e1", map[string]object.Value{"n": object.Num(1)}); err != nil {
		t.Fatal(err)
	}
	vr = assertViewMatchesQuery(t, db, "closure", "?- reach(X, Y)", "after object put")
	if vr.Mode != ViewCached {
		t.Fatalf("post-object mode = %s, want cached", vr.Mode)
	}
}

// costarRules is the object-free slice of the tracked ingest workload:
// it joins stored references only, so a dangling shot reference simply
// never joins and object events cannot change its answer.
var costarRules = []string{
	"costar(X, Y, S) :- appears_with(X, Y, S)",
	"costar(X, Y, S) :- appears_with(Y, X, S)",
}

// shotInterval puts the interval a shot's appears_with facts reference.
func shotInterval(t *testing.T, db *DB, oid string, at float64) {
	t.Helper()
	err := db.PutInterval(object.OID(oid), interval.New(interval.Closed(at, at+1)),
		map[string]object.Value{"kind": object.Str("shot")})
	if err != nil {
		t.Fatal(err)
	}
}

// A view over an object-free slice stays incremental across a shot's
// arrival and retirement, interval Put and Delete included, and object
// events alone leave its cache warm.
func TestViewObjectFreeSliceIgnoresObjects(t *testing.T) {
	db := oracleDB(t)
	for _, r := range costarRules {
		if err := db.DefineRule(r); err != nil {
			t.Fatal(err)
		}
	}
	shotInterval(t, db, "s1", 0)
	if err := db.Relate("appears_with", "a", "b", "s1"); err != nil {
		t.Fatal(err)
	}
	const goal = "?- costar(X, Y, S)"
	if _, err := db.Materialize("co", goal); err != nil {
		t.Fatal(err)
	}
	want := func(label string, mode ViewMode) {
		t.Helper()
		if vr := assertViewMatchesQuery(t, db, "co", goal, label); vr.Mode != mode {
			t.Fatalf("%s: mode %s, want %s", label, vr.Mode, mode)
		}
	}

	shotInterval(t, db, "s2", 2)
	if err := db.Relate("appears_with", "b", "c", "s2"); err != nil {
		t.Fatal(err)
	}
	want("shot arrives", ViewIncremental)

	if _, err := db.Unrelate("appears_with", "b", "c", "s2"); err != nil {
		t.Fatal(err)
	}
	if !db.Store().Delete("s2") {
		t.Fatal("delete s2")
	}
	want("shot retires", ViewIncremental)

	shotInterval(t, db, "s3", 4)
	want("interval put alone", ViewCached)
	db.Store().Delete("s1") // s1's facts now dangle; they still join
	want("interval delete alone", ViewCached)
}

// countingBackend counts the store's reads of stored facts: scans
// (Facts included) and fact counts.
type countingBackend struct {
	store.Backend
	reads atomic.Int64
}

func (b *countingBackend) ScanFacts(name string, binds []store.ArgBind, fn func(store.Fact) bool) {
	b.reads.Add(1)
	b.Backend.ScanFacts(name, binds, fn)
}

func (b *countingBackend) FactCount(name string) int {
	b.reads.Add(1)
	return b.Backend.FactCount(name)
}

// viewDeltaRead materializes costar over facts appears_with facts on a
// segment store that counts its fact reads, then adds one fact and
// returns the view read that maintains it and the fact reads it made.
func viewDeltaRead(t *testing.T, facts int) (*ViewResult, int64) {
	t.Helper()
	b, err := segment.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: b}
	st, err := store.OpenBackend(cb)
	if err != nil {
		t.Fatal(err)
	}
	db := New(WithStore(st))
	t.Cleanup(func() { db.Close() })
	for _, r := range costarRules {
		if err := db.DefineRule(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < facts; i++ {
		if err := db.Relate("appears_with", objOID("p", i%50), objOID("q", i/50), objOID("s", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Materialize("co", "?- costar(X, Y, S)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("appears_with", "x", "y", "hop"); err != nil {
		t.Fatal(err)
	}
	before := cb.reads.Load()
	vr, err := db.View("co")
	if err != nil {
		t.Fatal(err)
	}
	return vr, cb.reads.Load() - before
}

// A view keeps its engine, so a read after a one-fact batch applies that
// delta and nothing else: it reads no stored fact, and its stats are the
// same over 1k and 10k base facts. (Re-seeding a fresh engine per read
// reloads every extent.)
func TestViewDeltaReadSkipsBase(t *testing.T) {
	var stats []datalog.RunStats
	for _, facts := range []int{1_000, 10_000} {
		vr, reads := viewDeltaRead(t, facts)
		if vr.Mode != ViewIncremental || vr.AppliedInserts != 1 {
			t.Fatalf("%d facts: mode %s, +%d, want incremental, +1", facts, vr.Mode, vr.AppliedInserts)
		}
		if reads != 0 {
			t.Fatalf("%d facts: the delta read made %d fact reads, want 0", facts, reads)
		}
		if len(vr.Rows) != 2*facts+2 {
			t.Fatalf("%d facts: %d rows, want %d", facts, len(vr.Rows), 2*facts+2)
		}
		stats = append(stats, vr.Stats)
	}
	if stats[0] != stats[1] {
		t.Fatalf("delta read stats moved with the base: %+v at 1k facts, %+v at 10k", stats[0], stats[1])
	}
}

// A view whose slice reads objects — a class atom, an attribute guard —
// still recomputes on an interval Put or Delete.
func TestViewObjectReadingSliceRecomputes(t *testing.T) {
	db := oracleDB(t)
	shotInterval(t, db, "s1", 0)
	if err := db.Relate("appears_with", "a", "b", "s1"); err != nil {
		t.Fatal(err)
	}
	goals := map[string]string{
		"class": "?- Interval(G), appears_with(X, Y, G)",
		"guard": "?- appears_with(X, Y, G), G.kind = \"shot\"",
	}
	for name, goal := range goals {
		if _, err := db.Materialize(name, goal); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string) {
		t.Helper()
		for name, goal := range goals {
			if vr := assertViewMatchesQuery(t, db, name, goal, label+" "+name); vr.Mode != ViewRecompute {
				t.Fatalf("%s %s: mode %s, want recompute", label, name, vr.Mode)
			}
		}
	}
	if err := db.Relate("appears_with", "b", "c", "s2"); err != nil {
		t.Fatal(err)
	}
	shotInterval(t, db, "s2", 2)
	check("interval put")
	db.Store().Delete("s1")
	check("interval delete")
}

func TestMaterializeDuplicateDropList(t *testing.T) {
	db := closureDB(t)
	if err := db.Relate("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("v", "?- reach(X, Y)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("v", "?- reach(X, Y)"); err == nil {
		t.Fatal("duplicate Materialize should fail")
	}
	if _, err := db.Materialize("", "?- reach(X, Y)"); err == nil {
		t.Fatal("empty view name should fail")
	}
	infos := db.Views()
	if len(infos) != 1 || infos[0].Name != "v" || !infos[0].Valid || infos[0].Rows != 1 {
		t.Fatalf("Views() = %+v", infos)
	}
	if !db.DropView("v") {
		t.Fatal("DropView should report existing view")
	}
	if db.DropView("v") {
		t.Fatal("second DropView should report missing view")
	}
	if _, err := db.View("v"); err == nil {
		t.Fatal("View after drop should fail")
	}
}

func TestViewRuleChangeInvalidates(t *testing.T) {
	db := closureDB(t)
	if err := db.Relate("edge", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Materialize("v", "?- reach(X, Y)"); err != nil {
		t.Fatal(err)
	}
	// A rule the view can reach changes the fingerprint: the next read
	// must recompute and reflect it.
	if err := db.DefineRule("reach(X, Y) :- back(Y, X)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("back", "z", "a"); err != nil {
		t.Fatal(err)
	}
	vr := assertViewMatchesQuery(t, db, "v", "?- reach(X, Y)", "after rule change")
	if vr.Mode != ViewRecompute {
		t.Fatalf("post-rule-change mode = %s, want recompute", vr.Mode)
	}
	// An unreachable rule must NOT invalidate the cache.
	if err := db.DefineRule("unrelated(X) :- likes(X, Y)"); err != nil {
		t.Fatal(err)
	}
	vr2, err := db.View("v")
	if err != nil {
		t.Fatal(err)
	}
	if vr2.Mode != ViewCached {
		t.Fatalf("unreachable rule change mode = %s, want cached", vr2.Mode)
	}
}

func TestViewConjunctiveGoal(t *testing.T) {
	db := closureDB(t)
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		if err := db.Relate("edge", object.OID(e[0]), object.OID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	goal := "?- reach(X, Y), edge(Y, Z)"
	if _, err := db.Materialize("conj", goal); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("edge", "d", "e"); err != nil {
		t.Fatal(err)
	}
	vr := assertViewMatchesQuery(t, db, "conj", goal, "conjunctive")
	if vr.Mode != ViewIncremental {
		t.Fatalf("conjunctive view mode = %s, want incremental", vr.Mode)
	}
}

// A view outside the maintainable fragment (here: an extensional goal
// with no rule slice) must still serve the cache on idle reads; only a
// relevant mutation forces the recompute.
func TestViewNonIncrementalStillCaches(t *testing.T) {
	db := New()
	if err := db.Relate("edge", object.OID("a"), object.OID("b")); err != nil {
		t.Fatal(err)
	}
	goal := "?- edge(X, Y)"
	vr, err := db.Materialize("base", goal)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Mode != ViewRecompute || len(vr.Rows) != 1 {
		t.Fatalf("initial read: mode %s rows %d, want recompute/1", vr.Mode, len(vr.Rows))
	}
	vr = assertViewMatchesQuery(t, db, "base", goal, "idle")
	if vr.Mode != ViewCached {
		t.Fatalf("idle read mode = %s, want cached", vr.Mode)
	}
	if err := db.Relate("edge", object.OID("b"), object.OID("c")); err != nil {
		t.Fatal(err)
	}
	vr = assertViewMatchesQuery(t, db, "base", goal, "after relevant mutation")
	if vr.Mode != ViewRecompute || len(vr.Rows) != 2 {
		t.Fatalf("post-mutation read: mode %s rows %d, want recompute/2", vr.Mode, len(vr.Rows))
	}
	if err := db.Relate("likes", object.OID("a"), object.OID("b")); err != nil {
		t.Fatal(err)
	}
	vr = assertViewMatchesQuery(t, db, "base", goal, "after irrelevant mutation")
	if vr.Mode != ViewCached {
		t.Fatalf("irrelevant mutation read mode = %s, want cached", vr.Mode)
	}
}

func TestViewCancellationLeavesViewIntact(t *testing.T) {
	db := closureDB(t)
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if err := db.Relate("edge", object.OID(e[0]), object.OID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Materialize("v", "?- reach(X, Y)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("edge", "c", "d"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ViewContext(ctx, "v"); !datalog.IsCanceled(err) {
		t.Fatalf("canceled maintenance: got %v, want cancellation", err)
	}

	// The interrupted batch must not be lost: the next read applies it.
	vr := assertViewMatchesQuery(t, db, "v", "?- reach(X, Y)", "after cancellation")
	if vr.Mode != ViewIncremental {
		t.Fatalf("post-cancel mode = %s, want incremental (batch requeued)", vr.Mode)
	}
	if len(vr.Rows) != 6 {
		t.Fatalf("post-cancel rows = %d, want 6", len(vr.Rows))
	}

	// Cancellation on the initial build leaves the view registered but
	// invalid; the next read recovers.
	if _, err := db.MaterializeContext(ctx, "v2", "?- reach(X, Y)"); !datalog.IsCanceled(err) {
		t.Fatal("initial build under canceled ctx should fail with cancellation")
	}
	vr2, err := db.View("v2")
	if err != nil {
		t.Fatal(err)
	}
	if vr2.Mode != ViewRecompute || len(vr2.Rows) != 6 {
		t.Fatalf("recovered initial build: mode %s rows %d", vr2.Mode, len(vr2.Rows))
	}
}

// passesThen is a context whose Err reports nil for its first n calls
// and context.Canceled after: it cancels a refresh after the pre-check,
// inside Apply.
type passesThen struct {
	context.Context
	n atomic.Int64
}

func (c *passesThen) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// A cancellation inside Apply leaves the retained engine undefined: the
// read fails, the engine is discarded, and the next read recomputes the
// right answer.
func TestViewCancelledMidApplyRecomputes(t *testing.T) {
	db := closureDB(t)
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if err := db.Relate("edge", object.OID(e[0]), object.OID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Materialize("v", "?- reach(X, Y)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("edge", "c", "d"); err != nil {
		t.Fatal(err)
	}
	ctx := &passesThen{Context: context.Background()}
	ctx.n.Store(1)
	if _, err := db.ViewContext(ctx, "v"); !datalog.IsCanceled(err) {
		t.Fatalf("cancelled inside Apply: got %v, want cancellation", err)
	}
	if infos := db.Views(); len(infos) != 1 || infos[0].Valid {
		t.Fatalf("after a failed Apply the view should hold no engine: %+v", infos)
	}
	vr := assertViewMatchesQuery(t, db, "v", "?- reach(X, Y)", "after mid-Apply cancellation")
	if vr.Mode != ViewRecompute || len(vr.Rows) != 6 {
		t.Fatalf("next read: mode %s, %d rows, want recompute, 6", vr.Mode, len(vr.Rows))
	}
}

// TestViewDifferentialOracle is the acceptance-criteria oracle: after
// every random interleaving of fact asserts/retracts with object writes
// — entity puts, and interval puts and deletes on the oids the edges
// reference — each materialized view equals a from-scratch query, on
// the backend
// VIDEODB_TEST_BACKEND names. One view's attribute guard reads objects;
// the others are object-free and ignore object events.
func TestViewDifferentialOracle(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
	}
	for _, variant := range variants {
		t.Run(variant.name, func(t *testing.T) {
			incrementalRuns := 0
			for seed := int64(0); seed < 12; seed++ {
				r := rand.New(rand.NewSource(seed))
				db := oracleDB(t, variant.opts...)
				for _, rule := range []string{
					"reach(X, Y) :- edge(X, Y)",
					"reach(X, Z) :- reach(X, Y), edge(Y, Z)",
					"hop2(X, Z) :- edge(X, Y), edge(Y, Z)",
				} {
					if err := db.DefineRule(rule); err != nil {
						t.Fatal(err)
					}
				}
				nodes := make([]object.OID, 5+r.Intn(4))
				for i := range nodes {
					nodes[i] = object.OID(fmt.Sprintf("n%d", i))
				}
				present := make(map[[2]object.OID]bool)
				for i := 0; i < 6+r.Intn(6); i++ {
					e := [2]object.OID{nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]}
					if !present[e] {
						if err := db.Relate("edge", e[0], e[1]); err != nil {
							t.Fatal(err)
						}
						present[e] = true
					}
				}

				goals := map[string]string{
					"closure": "?- reach(X, Y)",
					"hops":    "?- hop2(X, Z)",
					"guarded": "?- reach(X, Y), Y.n > 2",
				}
				for name, goal := range goals {
					if _, err := db.Materialize(name, goal); err != nil {
						t.Fatalf("seed %d: materialize %s: %v", seed, name, err)
					}
				}

				for step := 0; step < 15; step++ {
					// A burst of 1–4 mutations between reads, so folding
					// and multi-event batches are exercised.
					for m := 0; m < 1+r.Intn(4); m++ {
						switch k := r.Intn(12); {
						case k < 4 || len(present) == 0: // insert edge
							e := [2]object.OID{nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]}
							if !present[e] {
								if err := db.Relate("edge", e[0], e[1]); err != nil {
									t.Fatal(err)
								}
								present[e] = true
							}
						case k < 8: // delete edge
							var keys [][2]object.OID
							for e := range present {
								keys = append(keys, e)
							}
							sort.Slice(keys, func(i, j int) bool {
								return keys[i][0]+keys[i][1] < keys[j][0]+keys[j][1]
							})
							e := keys[r.Intn(len(keys))]
							if _, err := db.Unrelate("edge", e[0], e[1]); err != nil {
								t.Fatal(err)
							}
							delete(present, e)
						case k < 9: // entity write
							err := db.PutEntity(object.OID(fmt.Sprintf("obj%d", r.Intn(4))),
								map[string]object.Value{"n": object.Num(float64(step))})
							if err != nil {
								t.Fatal(err)
							}
						case k < 10: // interval put on a node the edges reference
							err := db.PutInterval(nodes[r.Intn(len(nodes))], interval.New(interval.Closed(float64(step), float64(step+1))),
								map[string]object.Value{"n": object.Num(float64(r.Intn(5)))})
							if err != nil {
								t.Fatal(err)
							}
						case k < 11: // interval delete
							db.Store().Delete(nodes[r.Intn(len(nodes))])
						default: // irrelevant fact (cache stays warm)
							if err := db.Relate("likes", nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]); err != nil {
								t.Fatal(err)
							}
						}
					}
					for name, goal := range goals {
						vr := assertViewMatchesQuery(t, db, name, goal,
							fmt.Sprintf("seed %d step %d view %s", seed, step, name))
						if vr.Mode == ViewIncremental {
							incrementalRuns++
						}
					}
				}
			}
			if incrementalRuns == 0 {
				t.Fatal("oracle never exercised the incremental path")
			}
		})
	}
}
