// Package videodb_bench holds the reproduction experiments E1–E15 (see
// DESIGN.md §2 for the experiment index and EXPERIMENTS.md for a
// reference run compared with the paper). One benchmark family per
// figure, claim or design decision; run them with
//
//	go test -run '^$' -bench . -benchmem .
//
// Besides ns/op, each family reports the quantities its claim is about
// as custom metrics (annotations, precision, tuples, created objects,
// firings, …) and fails if an exact answer the paper fixes comes out
// wrong, so `-benchtime 1x` doubles as a shape check.
package videodb_bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"videodb/internal/constraint"
	"videodb/internal/core"
	"videodb/internal/datalog"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
	"videodb/internal/temporal"
	"videodb/internal/video"
)

// runEngine evaluates prog over st to its fixpoint and returns the
// engine, failing the benchmark on any error.
func runEngine(b *testing.B, st *store.Store, prog datalog.Program, opts ...datalog.Option) *datalog.Engine {
	e, err := datalog.NewEngine(st, prog, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	return e
}

func mustQuery(b *testing.B, db *core.DB, q string) *core.ResultSet {
	rs, err := db.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// edgeStore holds n facts edge(n_i, n_{(i+step) mod n}).
func edgeStore(n, step int) *store.Store {
	st := store.New()
	for i := 0; i < n; i++ {
		st.AddFact(store.NewFact("edge",
			object.Str(fmt.Sprintf("n%03d", i)), object.Str(fmt.Sprintf("n%03d", (i+step)%n))))
	}
	return st
}

func hop2Program() datalog.Program {
	return datalog.NewProgram(datalog.NewRule(
		datalog.Rel("hop2", datalog.Var("X"), datalog.Var("Z")),
		datalog.Rel("edge", datalog.Var("X"), datalog.Var("Y")),
		datalog.Rel("edge", datalog.Var("Y"), datalog.Var("Z")),
	))
}

func hop3Rule(head string) datalog.Rule {
	return datalog.NewRule(
		datalog.Rel(head, datalog.Var("X"), datalog.Var("W")),
		datalog.Rel("edge", datalog.Var("X"), datalog.Var("Y")),
		datalog.Rel("edge", datalog.Var("Y"), datalog.Var("Z")),
		datalog.Rel("edge", datalog.Var("Z"), datalog.Var("W")),
	)
}

func closureProgram(edge string) datalog.Program {
	return datalog.NewProgram(
		datalog.NewRule(datalog.Rel("reach", datalog.Var("X"), datalog.Var("Y")),
			datalog.Rel(edge, datalog.Var("X"), datalog.Var("Y"))),
		datalog.NewRule(datalog.Rel("reach", datalog.Var("X"), datalog.Var("Z")),
			datalog.Rel("reach", datalog.Var("X"), datalog.Var("Y")),
			datalog.Rel(edge, datalog.Var("Y"), datalog.Var("Z"))),
	)
}

// --- E1–E3: the indexing schemes of Figures 1–3 --------------------------------

// benchScheme measures one indexing scheme over broadcasts of three
// lengths: build time, then "all occurrences of object X" with the
// scheme's annotation count, storage and mean answer quality.
func benchScheme(b *testing.B, mk func(*video.Sequence) video.Indexer) {
	for _, dur := range []float64{600, 1800, 3600} {
		seq := video.Generate(video.GenConfig{
			Seed: 42, DurationSec: dur, NumObjects: 20, AvgShotSec: 6, Presence: 0.2,
		})
		objs := seq.Objects()
		b.Run(fmt.Sprintf("len=%.0fs/build", dur), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mk(seq)
			}
		})
		b.Run(fmt.Sprintf("len=%.0fs/query", dur), func(b *testing.B) {
			idx := mk(seq)
			var p, r float64
			for _, o := range objs {
				pp, rr := video.AnswerQuality(idx.Occurrences(o), seq.Occurrences[o])
				p += pp
				r += rr
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Occurrences(objs[i%len(objs)])
			}
			b.ReportMetric(float64(idx.Annotations()), "annotations")
			b.ReportMetric(float64(idx.StorageBytes())/1024, "KiB")
			b.ReportMetric(p/float64(len(objs)), "precision")
			b.ReportMetric(r/float64(len(objs)), "recall")
		})
	}
}

func BenchmarkE1Segmentation(b *testing.B) {
	benchScheme(b, func(s *video.Sequence) video.Indexer { return video.NewSegmentation(s, 10) })
}

func BenchmarkE2Stratification(b *testing.B) {
	benchScheme(b, func(s *video.Sequence) video.Indexer { return video.NewStratification(s) })
}

func BenchmarkE3GeneralizedInterval(b *testing.B) {
	benchScheme(b, func(s *video.Sequence) video.Indexer { return video.NewGeneralizedIndexing(s) })
}

// --- E4: the Rope example queries ------------------------------------------------

func ropeDB(b *testing.B) *core.DB {
	b.Helper()
	db := core.New()
	_, err := db.LoadScript(`
interval gi1 { duration: (t > 0 and t < 30), entities: {o1, o2, o3, o4},
               subject: "murder", victim: o1, murderer: {o2, o3} }.
interval gi2 { duration: (t > 40 and t < 80),
               entities: {o1, o2, o3, o4, o5, o6, o7, o8, o9},
               subject: "Giving a party", host: {o2, o3}, guest: {o5, o6, o7, o8, o9} }.
object o1 { name: "David", role: "Victim" }.
object o2 { name: "Philip", role: "Murderer" }.
object o3 { name: "Brandon", role: "Murderer" }.
object o4 { identification: "Chest" }.
object o5 { name: "Janet" }.
object o6 { name: "Kenneth" }.
object o7 { name: "Mr Kentley" }.
object o8 { name: "Mrs Atwater" }.
object o9 { name: "Rupert Cadell" }.
in(o1, o4, gi1).
in(o1, o4, gi2).
contains(G1, G2) :- Interval(G1), Interval(G2), G2.duration => G1.duration.
same_object_in(G1, G2, O) :- Interval(G1), Interval(G2), Object(O),
                             O in G1.entities, O in G2.entities.
`)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkE4RopeQueries runs the §6.1 queries and §6.2 rules over the
// §5.2 database; answers is the exact answer-set size the paper fixes.
func BenchmarkE4RopeQueries(b *testing.B) {
	queries := []struct {
		name    string
		query   string
		answers int
	}{
		{"q1_objects_in_gi1", "?- Object(O), O in gi1.entities.", 4},
		{"q2_intervals_with_o1", "?- Interval(G), o1 in G.entities.", 2},
		{"q3_temporal_frame", "?- Interval(G), o1 in G.entities, G.duration => (t > 0 and t < 35).", 1},
		{"q4_together", "?- Interval(G), {o1, o5} subset G.entities.", 1},
		{"q5_relation_pairs", "?- Interval(G), in(O1, O2, G).", 2},
		{"q6_attr_value", `?- Interval(G), Object(O), O in G.entities, O.name = "David".`, 2},
		{"r1_contains", "?- contains(G1, G2).", 2},
		{"r2_same_object_in", "?- same_object_in(gi1, gi2, O).", 4},
	}
	db := ropeDB(b)
	for _, q := range queries {
		b.Run(q.name, func(b *testing.B) {
			if got := len(mustQuery(b, db, q.query).Rows); got != q.answers {
				b.Fatalf("%s: %d answers, the paper's example has %d", q.query, got, q.answers)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustQuery(b, db, q.query)
			}
			b.ReportMetric(float64(q.answers), "answers")
		})
	}
}

// --- E5: PTIME scaling with dense-order constraints --------------------------------

func arithStore(n int) *store.Store {
	r := rand.New(rand.NewSource(7))
	st := store.New()
	for i := 0; i < n; i++ {
		lo := r.Float64() * float64(n)
		st.Put(object.NewInterval(object.OID(fmt.Sprintf("g%06d", i)),
			interval.FromPairs(lo, lo+1+r.Float64()*10)))
	}
	return st
}

// BenchmarkE5ArithScaling runs a single-scan program (within a frame) and
// the paper's all-pairs contains rule over n random intervals; tuples is
// the size of the derived relation.
func BenchmarkE5ArithScaling(b *testing.B) {
	frame := object.Temporal(interval.FromPairs(0, 500))
	within := datalog.NewProgram(datalog.NewRule(
		datalog.Rel("within", datalog.Var("G")),
		datalog.Interval(datalog.Var("G")),
		datalog.Entails(datalog.AttrOp(datalog.Var("G"), "duration"),
			datalog.TermOp(datalog.Const(frame))),
	))
	contains := datalog.NewProgram(datalog.NewRule(
		datalog.Rel("contains", datalog.Var("G1"), datalog.Var("G2")),
		datalog.Interval(datalog.Var("G1")),
		datalog.Interval(datalog.Var("G2")),
		datalog.Entails(datalog.AttrOp(datalog.Var("G2"), "duration"),
			datalog.AttrOp(datalog.Var("G1"), "duration")),
	))
	for _, c := range []struct {
		name  string
		prog  datalog.Program
		sizes []int
	}{
		{"within", within, []int{100, 300, 1000, 3000}},
		{"contains", contains, []int{100, 300, 1000}},
	} {
		for _, n := range c.sizes {
			st := arithStore(n)
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				var tuples int
				for i := 0; i < b.N; i++ {
					rows, err := runEngine(b, st, c.prog).Rows(c.name)
					if err != nil {
						b.Fatal(err)
					}
					tuples = len(rows)
				}
				b.ReportMetric(float64(tuples), "tuples")
			})
		}
	}
}

// --- E6: set-order constraint solving -------------------------------------------------

func setConj(n int) constraint.SetConj {
	r := rand.New(rand.NewSource(11))
	univ := make([]string, 50)
	for i := range univ {
		univ[i] = fmt.Sprintf("c%02d", i)
	}
	vars := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	var conj constraint.SetConj
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			conj = append(conj, constraint.Member(univ[r.Intn(len(univ))], vars[r.Intn(len(vars))]))
		case 1:
			conj = append(conj, constraint.Subset(
				constraint.SetVar(vars[r.Intn(len(vars))]),
				constraint.SetLit(univ[:10+r.Intn(40)]...)))
		case 2:
			conj = append(conj, constraint.Subset(
				constraint.SetLit(univ[r.Intn(len(univ))]),
				constraint.SetVar(vars[r.Intn(len(vars))])))
		default:
			conj = append(conj, constraint.Subset(
				constraint.SetVar(vars[r.Intn(len(vars))]),
				constraint.SetVar(vars[r.Intn(len(vars))])))
		}
	}
	return conj
}

func BenchmarkE6SetOrderScaling(b *testing.B) {
	for _, n := range []int{10, 100, 1000, 10000} {
		conj := setConj(n)
		goal := constraint.SetConj{constraint.Member("c00", "A")}
		b.Run(fmt.Sprintf("satisfiable/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				conj.Satisfiable()
			}
		})
		b.Run(fmt.Sprintf("entails/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				conj.Entails(goal)
			}
		})
	}
}

// --- E7: constructive rules / extended active domain -----------------------------------

// BenchmarkE7Constructive closes k base intervals under ⊕. The extended
// active domain is their union-closure, so exactly 2^k − 1 − k objects
// are created.
func BenchmarkE7Constructive(b *testing.B) {
	prog := datalog.NewProgram(datalog.NewRule(
		datalog.Rel("all", datalog.Concat(datalog.Var("G1"), datalog.Var("G2"))),
		datalog.Interval(datalog.Var("G1")),
		datalog.Interval(datalog.Var("G2")),
	))
	for _, k := range []int{3, 5, 7, 9} {
		st := store.New()
		for i := 0; i < k; i++ {
			st.Put(object.NewInterval(object.OID(fmt.Sprintf("b%02d", i)),
				interval.FromPairs(float64(10*i), float64(10*i+5))))
		}
		b.Run(fmt.Sprintf("base=%d", k), func(b *testing.B) {
			var rs datalog.RunStats
			for i := 0; i < b.N; i++ {
				rs = runEngine(b, st, prog, datalog.MaxCreated(1<<22)).Stats()
			}
			if want := 1<<k - 1 - k; rs.Created != want {
				b.Fatalf("created %d objects, want 2^%d-1-%d = %d", rs.Created, k, k, want)
			}
			b.ReportMetric(float64(rs.Created), "created")
			b.ReportMetric(float64(rs.Rounds), "rounds")
		})
	}
}

// --- E8: point-based vs interval-based temporal queries ----------------------------------

// BenchmarkE8PointVsInterval times each Allen-style relation through the
// algebraic evaluator and the point-based constraint evaluator, after
// checking that the two agree on every pair.
func BenchmarkE8PointVsInterval(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	const pairs = 512
	gs := make([]interval.Generalized, pairs)
	hs := make([]interval.Generalized, pairs)
	for i := range gs {
		n := 1 + r.Intn(3)
		spans := make([]interval.Span, n)
		for j := range spans {
			lo := r.Float64() * 100
			spans[j] = interval.Closed(lo, lo+r.Float64()*20)
		}
		gs[i] = interval.New(spans...)
		lo := r.Float64() * 100
		hs[i] = interval.New(interval.Closed(lo, lo+r.Float64()*30))
	}
	alg, con := temporal.Algebraic{}, temporal.Constraint{}
	for _, rel := range []struct {
		name       string
		alg, point func(g, h interval.Generalized) bool
	}{
		{"before", alg.Before, con.Before},
		{"contains", alg.Contains, con.Contains},
		{"overlaps", alg.Overlaps, con.Overlaps},
		{"equals", alg.Equals, con.Equals},
	} {
		for i := range gs {
			if rel.alg(gs[i], hs[i]) != rel.point(gs[i], hs[i]) {
				b.Fatalf("%s: interval-based and point-based disagree on %v, %v", rel.name, gs[i], hs[i])
			}
		}
		for _, ev := range []struct {
			name string
			fn   func(g, h interval.Generalized) bool
		}{{"interval", rel.alg}, {"point", rel.point}} {
			b.Run(ev.name+"/"+rel.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ev.fn(gs[i%pairs], hs[i%pairs])
				}
			})
		}
	}
}

// --- E9: naive vs semi-naive ablation -----------------------------------------------------

// BenchmarkE9NaiveVsSeminaive computes the transitive closure of an
// n-chain. Semi-naive fires each of the n(n+1)/2 derivations once; naive
// re-derives the whole extent every round.
func BenchmarkE9NaiveVsSeminaive(b *testing.B) {
	prog := closureProgram("next")
	for _, n := range []int{20, 50, 100} {
		st := store.New()
		for i := 0; i < n; i++ {
			st.AddFact(store.NewFact("next",
				object.Str(fmt.Sprintf("n%04d", i)), object.Str(fmt.Sprintf("n%04d", i+1))))
		}
		for _, c := range []struct {
			name string
			opts []datalog.Option
		}{{"seminaive", nil}, {"naive", []datalog.Option{datalog.Naive()}}} {
			b.Run(fmt.Sprintf("%s/chain=%d", c.name, n), func(b *testing.B) {
				var firings int
				for i := 0; i < b.N; i++ {
					firings = runEngine(b, st, prog, c.opts...).Stats().Firings
				}
				if want := n * (n + 1) / 2; c.opts == nil && firings != want {
					b.Fatalf("semi-naive fired %d times, want n(n+1)/2 = %d", firings, want)
				}
				b.ReportMetric(float64(firings), "firings")
			})
		}
	}
}

// --- E10: index ablation --------------------------------------------------------------------

func BenchmarkE10IndexAblation(b *testing.B) {
	seq := video.Generate(video.GenConfig{
		Seed: 9, DurationSec: 20000, NumObjects: 100, AvgShotSec: 5, Presence: 0.03,
	})
	build := func(opts ...store.Option) *core.DB {
		db := core.New(core.WithStore(store.NewWith(opts...)))
		if err := video.Populate(db, seq); err != nil {
			b.Fatal(err)
		}
		return db
	}
	full := build()
	noEnt := build(store.WithoutEntityIndex())
	noTree := build(store.WithoutTemporalIndex())
	scanPlan := core.New(core.WithStore(full.Store()),
		core.WithEngineOptions(datalog.WithoutMemberIndex()))

	const memberQuery = "?- Interval(G), obj007 in G.entities."
	for _, c := range []struct {
		name string
		db   *core.DB
	}{{"indexed", full}, {"no-entity-index", noEnt}, {"scan-plan", scanPlan}} {
		b.Run("member/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustQuery(b, c.db, memberQuery)
			}
		})
	}
	for _, c := range []struct {
		name string
		db   *core.DB
	}{{"interval-tree", full}, {"linear-scan", noTree}} {
		b.Run("overlap/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.db.Store().IntervalsOverlapping(interval.Closed(100, 130))
			}
		})
	}
}

// --- E11: query-reachability pruning (design decision) -------------------------------

func BenchmarkE11QueryPruning(b *testing.B) {
	// A database with one relevant rule and many irrelevant ones: pruning
	// should make query latency independent of the unrelated program.
	build := func(opts ...core.Option) *core.DB {
		db := core.New(opts...)
		if _, err := db.LoadScript(`
interval gi1 { duration: [0, 30], entities: {o1, o2} }.
interval gi2 { duration: [40, 80], entities: {o1} }.
object o1 { name: "David" }.
object o2 { name: "Philip" }.
`); err != nil {
			b.Fatal(err)
		}
		if err := db.DefineRule("appears(O, G) :- Interval(G), Object(O), O in G.entities"); err != nil {
			b.Fatal(err)
		}
		// Sixty unrelated derived relations.
		for i := 0; i < 60; i++ {
			rule := fmt.Sprintf("junk%d(G1, G2) :- Interval(G1), Interval(G2), "+
				"G2.duration => G1.duration", i)
			if err := db.DefineRule(rule); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	const q = "?- appears(o1, G)."
	for _, c := range []struct {
		name string
		db   *core.DB
	}{{"pruned", build()}, {"full-program", build(core.WithoutQueryPruning())}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustQuery(b, c.db, q)
			}
		})
	}
}

// --- E12: parallel rule evaluation (design decision) -----------------------------------

// BenchmarkE12ParallelEvaluation sweeps the worker count over twelve
// independent 3-way joins. A wall-clock gain needs as many CPUs as
// workers; cpus records how many the host had.
func BenchmarkE12ParallelEvaluation(b *testing.B) {
	st := edgeStore(300, 7)
	var rules []datalog.Rule
	for k := 0; k < 12; k++ {
		rules = append(rules, hop3Rule(fmt.Sprintf("tri%d", k)))
	}
	prog := datalog.NewProgram(rules...)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runEngine(b, st, prog, datalog.Parallel(workers))
			}
			b.ReportMetric(float64(runtime.NumCPU()), "cpus")
		})
	}
}

// --- E13: join index ablation (design decision) ------------------------------------------

func BenchmarkE13JoinIndex(b *testing.B) {
	st := edgeStore(500, 13)
	prog := hop2Program()
	for _, c := range []struct {
		name string
		opts []datalog.Option
	}{{"indexed", nil}, {"scan", []datalog.Option{datalog.WithoutJoinIndex()}}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runEngine(b, st, prog, c.opts...)
			}
		})
	}
}

// --- E14: streaming executor vs materializing evaluator (design decision) ----------------

// BenchmarkE14StreamingJoin compares the default pull-iterator executor
// (interned row keys, store pushdown) with the materializing evaluator
// (WithoutStreaming: recursive join kernel, string row keys). The dense
// graph is the duplicate-heavy case: each hop2 pair is derivable ~16
// ways, and the streaming head rejects a duplicate with one fixed-width
// map probe and no allocation. The closure iterates the recursive TP
// operator for ~n rounds; hop3 is a wide three-way join.
func BenchmarkE14StreamingJoin(b *testing.B) {
	dense := store.New()
	for i := 0; i < 200; i++ {
		for d := 1; d <= 16; d++ {
			dense.AddFact(store.NewFact("edge",
				object.Str(fmt.Sprintf("n%03d", i)), object.Str(fmt.Sprintf("n%03d", (i+d*7)%200))))
		}
	}
	for _, w := range []struct {
		name string
		st   *store.Store
		prog datalog.Program
	}{
		{"dense_hop2/n=200,deg=16", dense, hop2Program()},
		{"closure/n=120", edgeStore(120, 1), closureProgram("edge")},
		{"hop3/n=300", edgeStore(300, 7), datalog.NewProgram(hop3Rule("hop3"))},
	} {
		for _, c := range []struct {
			name string
			opts []datalog.Option
		}{{"streaming", nil}, {"materializing", []datalog.Option{datalog.WithoutStreaming()}}} {
			b.Run(w.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runEngine(b, w.st, w.prog, c.opts...)
				}
			})
		}
	}
}

// --- E15: cross-query plan cache (design decision) ---------------------------------------

// planCacheDB builds a DB whose compiled program is wide enough for
// compilation cost to be visible next to evaluation: a 41-rule chain
// over a 30-edge ring.
func planCacheDB(b *testing.B, opts ...core.Option) *core.DB {
	db := core.New(opts...)
	if err := db.DefineRule("p0(X, Y) :- edge(X, Y)"); err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if err := db.DefineRule(fmt.Sprintf("p%d(X, Y) :- p%d(X, Y)", i, i-1)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := db.Relate("edge",
			object.OID(fmt.Sprintf("a%02d", i)), object.OID(fmt.Sprintf("a%02d", (i+1)%30))); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkE15PlanCache compares a query served from the warm cross-query
// plan cache with one that stratifies, plans and compiles the program
// every time (WithoutQueryPlanCache).
func BenchmarkE15PlanCache(b *testing.B) {
	const q = "?- p40(X, Y)"
	b.Run("chain41/warm", func(b *testing.B) {
		db := planCacheDB(b)
		mustQuery(b, db, q) // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, db, q)
		}
		if st := db.PlanCacheStats(); st.Hits < uint64(b.N) {
			b.Fatalf("warm run: %d plan-cache hits for %d queries", st.Hits, b.N)
		}
	})
	b.Run("chain41/cold", func(b *testing.B) {
		db := planCacheDB(b, core.WithoutQueryPlanCache())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustQuery(b, db, q)
		}
	})
}
