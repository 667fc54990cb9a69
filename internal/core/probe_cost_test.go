package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"videodb/internal/core"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/video"
)

// Cost guards for bound probes — the paper's retrieval of a relation on
// O × I by a bound object identifier — on a generated 600 s, 40-object
// archive: a probe allocates about what its answer needs, and not more
// when the store holds more interval objects.

const costarRules = `costar(X, Y, S) :- appears_with(X, Y, S).
costar(X, Y, S) :- appears_with(Y, X, S).
`

// probeArchive is the loaded archive and its busiest object pair.
type probeArchive struct {
	db        *core.DB
	intervals int
	a, b      string
}

// loadProbeArchive loads the archive plus pad extra interval objects,
// each showing one archive object.
func loadProbeArchive(t testing.TB, pad int) *probeArchive {
	t.Helper()
	seq := video.Generate(video.GenConfig{Seed: 1, DurationSec: 600, NumObjects: 40})
	var script bytes.Buffer
	if err := video.WriteVQL(&script, seq); err != nil {
		t.Fatal(err)
	}
	db := core.New()
	t.Cleanup(func() { db.Close() })
	if _, err := db.LoadScript(script.String() + costarRules); err != nil {
		t.Fatal(err)
	}
	objs := seq.Objects()
	for i := 0; i < pad; i++ {
		iv := object.NewInterval(object.OID(fmt.Sprintf("pad%05d", i)), interval.New(interval.Closed(float64(i), float64(i)+0.5))).
			Set(object.AttrEntities, object.RefSet(object.OID(objs[i%len(objs)])))
		if err := db.Store().Put(iv); err != nil {
			t.Fatal(err)
		}
	}
	// The busiest pair: appears_with(a, b, S) has the most answers.
	pairs := map[[2]string]int{}
	var best [2]string
	for si := range seq.Shots {
		so := seq.ShotObjects(si)
		for i := range so {
			for j := i + 1; j < len(so); j++ {
				k := [2]string{so[i], so[j]}
				if pairs[k]++; pairs[k] > pairs[best] {
					best = k
				}
			}
		}
	}
	return &probeArchive{db: db, intervals: len(db.Store().Intervals()), a: best[0], b: best[1]}
}

func (p *probeArchive) queries() map[string]string {
	return map[string]string{
		"appears_with": fmt.Sprintf("?- appears_with(%s, %s, S).", p.a, p.b),
		"costar":       fmt.Sprintf("?- costar(%s, Y, S).", p.a),
		"member":       fmt.Sprintf("?- Interval(G), %s in G.entities.", p.a),
	}
}

// allocPerQuery returns the heap bytes one query allocates, averaged
// over runs after a warm-up that fills the plan cache, and its rows.
func allocPerQuery(t testing.TB, db *core.DB, q string) (bytesPerQuery float64, rows int) {
	t.Helper()
	const runs = 50
	rs, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, len(rs.Rows)
}

// TestBoundProbeAllocation: a bound EDB probe and a bound membership
// probe each allocate under 64 KiB per query.
func TestBoundProbeAllocation(t *testing.T) {
	p := loadProbeArchive(t, 0)
	qs := p.queries()
	for _, name := range []string{"appears_with", "member", "costar"} {
		b, rows := allocPerQuery(t, p.db, qs[name])
		t.Logf("%s: %d rows, %.1f KiB per query", qs[name], rows, b/1024)
		if name != "costar" && b >= 64*1024 {
			t.Errorf("%s allocates %.1f KiB per query (%d rows), want under 64 KiB", qs[name], b/1024, rows)
		}
	}
}

// TestBoundProbeAllocationIndependentOfStoreSize: with ten times the
// interval objects in the store, the relational probes — whose programs
// read no interval list — allocate the same per query.
func TestBoundProbeAllocationIndependentOfStoreSize(t *testing.T) {
	base := loadProbeArchive(t, 0)
	big := loadProbeArchive(t, 9*base.intervals)
	if big.a != base.a || big.b != base.b {
		t.Fatalf("padding changed the probed pair")
	}
	qs := base.queries()
	for _, name := range []string{"appears_with", "costar"} {
		small, rows := allocPerQuery(t, base.db, qs[name])
		large, _ := allocPerQuery(t, big.db, qs[name])
		t.Logf("%s (%d rows): %.1f KiB with %d intervals, %.1f KiB with %d", qs[name], rows, small/1024, base.intervals, large/1024, big.intervals)
		if large-small > 2*1024 {
			t.Errorf("%s allocates %.1f KiB more per query with %d intervals than with %d", qs[name], (large-small)/1024, big.intervals, base.intervals)
		}
	}
}

// BenchmarkBoundProbe times the three requests of one probe op.
func BenchmarkBoundProbe(b *testing.B) {
	p := loadProbeArchive(b, 0)
	qs := p.queries()
	for _, name := range []string{"appears_with", "costar", "member"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.db.Query(qs[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
