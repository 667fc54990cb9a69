package core

import (
	"fmt"
	"math/rand"
	"testing"

	"videodb/internal/object"
	"videodb/internal/store"
	"videodb/internal/store/segment"
)

// Differential oracle between the in-memory backend and the segment
// backend at the query level: the same rule program over the same fact
// churn must answer every query identically — through recursive rules,
// materialized views (incremental maintenance reads the changelog,
// which the backend feeds), and segment-side restarts. Mirrors the PR 5/6 oracle style (rowsKey comparison).

// segCoreDB opens a segment-backed DB in dir with rules and views
// installed; thresholds are tiny so the run crosses flushes and block
// evictions.
func segCoreDB(t *testing.T, dir string, opts ...Option) *DB {
	t.Helper()
	b, err := segment.Open(dir,
		segment.WithFlushThreshold(16),
		segment.WithBlockTargetBytes(128),
		segment.WithBlockCacheBytes(2<<10),
		segment.WithCompactThreshold(4))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	db := New(append([]Option{WithStore(st)}, opts...)...)
	t.Cleanup(func() { db.Close() })
	return db
}

func installClosureRules(t *testing.T, db *DB) {
	t.Helper()
	for _, rule := range []string{
		"reach(X, Y) :- edge(X, Y)",
		"reach(X, Z) :- reach(X, Y), edge(Y, Z)",
		"hop2(X, Z) :- edge(X, Y), edge(Y, Z)",
	} {
		if err := db.DefineRule(rule); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBackendDifferentialOracle(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"serial", nil},
	}
	goals := []string{"?- reach(X, Y)", "?- hop2(X, Z)", "?- edge(X, Y)"}
	for _, variant := range variants {
		t.Run(variant.name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				r := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				mem := New(variant.opts...)
				defer mem.Close()
				seg := segCoreDB(t, dir, variant.opts...)
				installClosureRules(t, mem)
				installClosureRules(t, seg)
				if _, err := mem.Materialize("closure", "?- reach(X, Y)"); err != nil {
					t.Fatal(err)
				}
				if _, err := seg.Materialize("closure", "?- reach(X, Y)"); err != nil {
					t.Fatal(err)
				}

				nodes := make([]object.OID, 6)
				for i := range nodes {
					nodes[i] = object.OID(fmt.Sprintf("n%d", i))
				}
				present := make(map[[2]object.OID]bool)
				relate := func(e [2]object.OID) {
					t.Helper()
					if err := mem.Relate("edge", e[0], e[1]); err != nil {
						t.Fatal(err)
					}
					if err := seg.Relate("edge", e[0], e[1]); err != nil {
						t.Fatal(err)
					}
					present[e] = true
				}
				unrelate := func(e [2]object.OID) {
					t.Helper()
					okM, errM := mem.Unrelate("edge", e[0], e[1])
					okS, errS := seg.Unrelate("edge", e[0], e[1])
					if okM != okS || (errM == nil) != (errS == nil) {
						t.Fatalf("seed %d: unrelate diverged mem=(%v,%v) seg=(%v,%v)", seed, okM, errM, okS, errS)
					}
					delete(present, e)
				}

				for step := 0; step < 25; step++ {
					for m := 0; m < 1+r.Intn(3); m++ {
						e := [2]object.OID{nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]}
						if k := r.Intn(10); k < 6 || len(present) == 0 {
							if !present[e] {
								relate(e)
							}
						} else {
							for have := range present {
								e = have
								break
							}
							unrelate(e)
						}
					}
					if r.Intn(5) == 0 {
						if err := seg.Checkpoint(); err != nil {
							t.Fatalf("seed %d step %d: checkpoint: %v", seed, step, err)
						}
					}
					for _, goal := range goals {
						rm, err := mem.Query(goal)
						if err != nil {
							t.Fatalf("seed %d step %d: mem %s: %v", seed, step, goal, err)
						}
						rs, err := seg.Query(goal)
						if err != nil {
							t.Fatalf("seed %d step %d: seg %s: %v", seed, step, goal, err)
						}
						gm, gs := rowsKey(rm.Rows), rowsKey(rs.Rows)
						if fmt.Sprint(gm) != fmt.Sprint(gs) {
							t.Fatalf("seed %d step %d: %s diverged\n mem %v\n seg %v", seed, step, goal, gm, gs)
						}
					}
					// Incremental view vs from-scratch query, on both.
					assertViewMatchesQuery(t, mem, "closure", "?- reach(X, Y)", fmt.Sprintf("mem seed %d step %d", seed, step))
					assertViewMatchesQuery(t, seg, "closure", "?- reach(X, Y)", fmt.Sprintf("seg seed %d step %d", seed, step))
				}

				// Restart the segment DB and compare once more (rules and
				// views are source artifacts: reinstall).
				if err := seg.Close(); err != nil {
					t.Fatalf("seed %d: close: %v", seed, err)
				}
				seg2 := segCoreDB(t, dir, variant.opts...)
				installClosureRules(t, seg2)
				for _, goal := range goals {
					rm, err := mem.Query(goal)
					if err != nil {
						t.Fatal(err)
					}
					rs, err := seg2.Query(goal)
					if err != nil {
						t.Fatal(err)
					}
					gm, gs := rowsKey(rm.Rows), rowsKey(rs.Rows)
					if fmt.Sprint(gm) != fmt.Sprint(gs) {
						t.Fatalf("seed %d: after restart %s diverged\n mem %v\n seg %v", seed, goal, gm, gs)
					}
				}
			}
		})
	}
}

// TestOpenSegmentEndToEnd drives the public core.OpenSegment API:
// model objects and facts, query, reopen, query again.
func TestOpenSegmentEndToEnd(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutEntity("o1", map[string]object.Value{"name": object.Str("David")}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutEntity("o2", map[string]object.Value{"name": object.Str("Philip")}); err != nil {
		t.Fatal(err)
	}
	if err := db.Relate("knows", "o1", "o2"); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query("?- knows(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rs2, err := re.Query("?- knows(X, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rowsKey(rs2.Rows)) != fmt.Sprint(rowsKey(rs.Rows)) {
		t.Fatalf("restart changed the answer: %v vs %v", rs2.Rows, rs.Rows)
	}
	if got := re.Object("o1"); got == nil || !got.Attr("name").Equal(object.Str("David")) {
		t.Fatalf("object lost: %v", got)
	}
	if bs := re.Store().BackendStats(); bs.Kind != "segment" {
		t.Fatalf("backend = %q", bs.Kind)
	}
}
