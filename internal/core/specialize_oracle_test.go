package core

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"videodb/internal/datalog"
	"videodb/internal/interval"
	"videodb/internal/object"
)

// Differential oracle for goal specialization: a bound goal answered
// from its specialized program must return exactly the rows the
// unspecialized naive engine returns (WithoutQueryPruning turns every
// goal-directed rewrite off, Naive the semi-naive evaluator). The random
// instances are the datalog package's randomInstance generator — same
// store shape, same rule families, same draws — extended with the
// rewrite's traps: an IDB predicate that also has stored facts, a goal
// rule with negation, bodies whose atoms become bound (nested
// specialization), heads with constants and repeated variables. Goals
// are tried under random bound/free argument patterns, repeated
// variables included. Runs on the backend VIDEODB_TEST_BACKEND names.

// oracleDB opens an empty DB on the backend under test.
func oracleDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	if os.Getenv("VIDEODB_TEST_BACKEND") == "segment" {
		return segCoreDB(t, t.TempDir(), opts...)
	}
	db := New(opts...)
	t.Cleanup(func() { db.Close() })
	return db
}

// specOracleRules extend randomInstance's rules (the first five; merged
// is added on a coin flip, as there).
const specOracleRules = `appears(O, G) :- Interval(G), Object(O), O in G.entities.
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
together(O1, O2, G) :- appears(O1, G), appears(O2, G).
contains(G1, G2) :- Interval(G1), Interval(G2), G2.duration => G1.duration.
linked(X, Y) :- edge(X, Y).
linked(X, Y) :- edge(Y, X).
via(X, Z) :- linked(X, Y), linked(Y, Z).
apart(X, G) :- appears(X, G), Object(Y), not linked(X, Y).
loop(X, X, G) :- appears(X, G).
tagged(e0, G, N) :- appears(e0, G), e0.n = N.
busy(G) :- together(O1, O2, G), O1.n < O2.n.
`

// specOracleInstance loads one random instance into every DB given.
// Entity, interval and edge draws replay randomInstance exactly; the
// stored linked facts are drawn after them.
func specOracleInstance(t *testing.T, r *rand.Rand, dbs ...*DB) (ents, ints []string) {
	t.Helper()
	each := func(f func(db *DB) error) {
		for _, db := range dbs {
			if err := f(db); err != nil {
				t.Fatal(err)
			}
		}
	}
	nEnt := 2 + r.Intn(4)
	nInt := 2 + r.Intn(4)
	for i := 0; i < nEnt; i++ {
		oid := object.OID(fmt.Sprintf("e%d", i))
		ents = append(ents, string(oid))
		n := object.Num(float64(r.Intn(5)))
		each(func(db *DB) error { return db.PutEntity(oid, map[string]object.Value{"n": n}) })
	}
	for i := 0; i < nInt; i++ {
		oid := object.OID(fmt.Sprintf("g%d", i))
		ints = append(ints, string(oid))
		lo := float64(r.Intn(50))
		var members []object.OID
		for _, e := range ents {
			if r.Intn(2) == 0 {
				members = append(members, object.OID(e))
			}
		}
		dur := interval.FromPairs(lo, lo+float64(5+r.Intn(20)))
		attrs := map[string]object.Value{object.AttrEntities: object.RefSet(members...)}
		each(func(db *DB) error { return db.PutInterval(oid, dur, attrs) })
	}
	pick := func() object.OID { return object.OID(ents[r.Intn(nEnt)]) }
	for i := 0; i < 3+r.Intn(5); i++ {
		a, b := pick(), pick()
		each(func(db *DB) error { return db.Relate("edge", a, b) })
	}
	rules := specOracleRules
	if r.Intn(2) == 0 {
		rules += "merged(G1 + G2) :- Interval(G1), Interval(G2), Object(O), O in G1.entities, O in G2.entities.\n"
	}
	// Stored facts on derived predicates (seedEDB loads them).
	for i := 0; i < 1+r.Intn(3); i++ {
		a, b := pick(), pick()
		each(func(db *DB) error { return db.Relate("linked", a, b) })
	}
	a, b, g := pick(), pick(), object.OID(ints[r.Intn(nInt)])
	each(func(db *DB) error { return db.Relate("together", a, b, g) })
	each(func(db *DB) error { _, err := db.LoadScript(rules); return err })
	return ents, ints
}

// specGoalPatterns draws bound/free argument patterns for a predicate of
// the given arity: each position is a constant from the domain or one of
// two variables (so repeats occur), with at least one constant.
func specGoalPatterns(r *rand.Rand, pred string, arity, n int, domain []string) []string {
	var out []string
	for len(out) < n {
		args := make([]string, arity)
		bound := false
		for k := range args {
			if r.Intn(2) == 0 {
				args[k] = domain[r.Intn(len(domain))]
				bound = true
			} else {
				args[k] = []string{"X", "Y"}[r.Intn(2)]
			}
		}
		if bound {
			out = append(out, fmt.Sprintf("?- %s(%s).", pred, strings.Join(args, ", ")))
		}
	}
	return out
}

// specAnswer renders a query's answer: columns, then the sorted rows.
func specAnswer(t *testing.T, db *DB, q string) string {
	t.Helper()
	rs, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return renderRS(rs)
}

// explainHead returns the first line of the query's explanation: the
// specialization verdict.
func explainHead(t *testing.T, db *DB, q string) string {
	t.Helper()
	out, err := db.Explain(q)
	if err != nil {
		t.Fatalf("explain %s: %v", q, err)
	}
	head, _, _ := strings.Cut(out, "\n")
	return head
}

func TestSpecializedGoalsMatchNaiveOracle(t *testing.T) {
	arity := map[string]int{
		"edge": 2, "appears": 2, "reach": 2, "together": 3, "contains": 2,
		"linked": 2, "via": 2, "apart": 2, "loop": 3, "tagged": 3, "busy": 1,
	}
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			spec := oracleDB(t, WithEngineOptions(datalog.Parallel(4)))
			twin := oracleDB(t, WithoutQueryPruning(), WithEngineOptions(datalog.Naive()))
			r := rand.New(rand.NewSource(seed))
			ents, ints := specOracleInstance(t, r, spec, twin)
			domain := append(append([]string{"3", `"x"`}, ents...), ints...)
			var goals []string
			for _, pred := range []string{"edge", "appears", "reach", "together", "contains", "linked", "via", "apart", "loop", "tagged", "busy"} {
				goals = append(goals, specGoalPatterns(r, pred, arity[pred], 6, domain)...)
			}
			want := make([]string, len(goals))
			hits := 0 // specialized goals with a nonempty answer
			for i, q := range goals {
				want[i] = specAnswer(t, twin, q)
				if strings.Count(want[i], "\n") > 1 && strings.HasPrefix(explainHead(t, spec, q), "specialized") {
					hits++
				}
			}
			if hits == 0 {
				t.Fatal("no specialized goal had an answer: the oracle compared nothing")
			}
			// Four concurrent readers answer every goal; all but the first
			// compile of each goal are plan-cache hits.
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := range goals {
						q := goals[(i+w)%len(goals)]
						rs, err := spec.Query(q)
						if err != nil {
							t.Errorf("%s: %v", q, err)
							return
						}
						if got := renderRS(rs); got != want[(i+w)%len(goals)] {
							t.Errorf("%s:\nspecialized:\n%s\nnaive:\n%s", q, got, want[(i+w)%len(goals)])
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

func renderRS(rs *ResultSet) string {
	var b strings.Builder
	b.WriteString(strings.Join(rs.Columns, ",") + "\n")
	for _, row := range rs.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSpecializationRequiredCases pins the cases the rewrite must get
// right, each against the naive oracle, and which path each one takes.
func TestSpecializationRequiredCases(t *testing.T) {
	spec := oracleDB(t)
	twin := oracleDB(t, WithoutQueryPruning(), WithEngineOptions(datalog.Naive()))
	for _, db := range []*DB{spec, twin} {
		if _, err := db.LoadScript(`
object o1 { n: 1 }.
object o2 { n: 2 }.
object o3 { n: 3 }.
interval gi1 { duration: (t >= 0 and t < 10), entities: {o1, o2} }.
interval gi2 { duration: (t >= 10 and t < 20), entities: {o2, o3} }.
interval gi3 { duration: (t >= 30 and t < 40), entities: {o1, o3} }.
appears_with(o1, o2, gi1).
appears_with(o2, o3, gi2).
appears_with(o1, o3, gi3).
appears_with(o2, o2, gi2).
costar(X, Y, S) :- appears_with(X, Y, S).
costar(X, Y, S) :- appears_with(Y, X, S).
costar(o9, o1, gi9).
costar(o1, o1, gi9).
pal(X, Y) :- costar(X, Y, S).
lonely(X, G) :- Interval(G), Object(X), X in G.entities, not pal(X, o3).
reach(X, Y) :- pal(X, Y).
reach(X, Z) :- reach(X, Y), pal(Y, Z).
joined(G1 + G2) :- Interval(G1), Interval(G2), G1.duration meets G2.duration.
`); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ name, query, head string }{
		{"stored facts on an IDB goal", "?- costar(o9, Y, S).", "specialized from costar(o9, Y, S)"},
		{"stored facts reached through a bound body atom", "?- pal(o1, Y).", "specialized from pal(o1, Y)"},
		{"repeated goal variables", "?- costar(o1, X, X).", "specialized from costar(o1, X, X)"},
		{"repeated variables, no match", "?- costar(X, o3, X).", "specialized from costar(X, o3, X)"},
		{"goal rule with negation", "?- lonely(o1, G).", "specialized from lonely(o1, G)"},
		{"negated goal rule, bound interval", "?- lonely(X, gi2).", "specialized from lonely(X, gi2)"},
		{"ground goal", "?- costar(o1, o2, gi1).", "specialized from costar(o1, o2, gi1)"},
		{"bound EDB goal", "?- appears_with(o1, Y, S).", "specialized from appears_with(o1, Y, S)"},
		{"recursive goal", "?- reach(o1, X).", "not specialized: reach is recursive"},
		{"⊕ goal", "?- joined(gi1).", "not specialized: joined has a ⊕ head"},
		{"unbound goal", "?- costar(X, Y, S).", "not specialized: no constants in the goal"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := explainHead(t, spec, c.query); got != c.head {
				t.Fatalf("explain head = %q, want %q", got, c.head)
			}
			if got, want := specAnswer(t, spec, c.query), specAnswer(t, twin, c.query); got != want {
				t.Fatalf("specialized:\n%s\nnaive:\n%s", got, want)
			}
		})
	}
	if got := explainHead(t, twin, "?- costar(o1, Y, S)."); got != "not specialized: query pruning is off" {
		t.Fatalf("twin explain head = %q", got)
	}
}
