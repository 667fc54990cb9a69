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
// specialization), heads with constants and repeated variables, and the
// recursive shapes of specOracleRecursive. Goals are tried under random
// bound/free argument patterns, repeated variables included. Runs on the
// backend VIDEODB_TEST_BACKEND names.

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

// specOracleRecursive are the recursive shapes: right-linear (rreach),
// non-linear closure (tc), mutual recursion through an attribute filter
// (odd/even), argument swapping (alt), a recursive rule with a head
// constant (lab), a recursive predicate with stored facts (chain),
// recursion over a negated lower stratum (clear, over heavy), and a
// non-recursive predicate over recursions that may not carry its
// constants (hub). reach above is the left-linear shape.
const specOracleRecursive = `rreach(X, Y) :- edge(X, Y).
rreach(X, Z) :- edge(X, Y), rreach(Y, Z).
tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), tc(Y, Z).
odd(X, Y) :- edge(X, Y).
odd(X, Z) :- even(X, Y), edge(Y, Z).
even(X, Z) :- odd(X, Y), edge(Y, Z), Z.n >= 1.
alt(X, Y) :- edge(X, Y).
alt(X, Y) :- alt(Y, X).
lab(X, e0) :- edge(e0, X).
lab(Z, e1) :- lab(Y, e0), edge(Y, Z).
lab(Z, L) :- lab(Y, L), edge(Y, Z).
chain(X, Y) :- edge(X, Y).
chain(X, Z) :- chain(X, Y), edge(Y, Z).
heavy(X) :- Object(X), X.n >= 3.
clear(X, Y) :- edge(X, Y), not heavy(Y).
clear(X, Z) :- clear(X, Y), edge(Y, Z), not heavy(Z).
hub(X, Y) :- rreach(X, Y), tc(Y, X).
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
	rules := specOracleRules + specOracleRecursive
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
		"rreach": 2, "tc": 2, "odd": 2, "even": 2, "alt": 2, "lab": 2, "chain": 2, "clear": 2, "hub": 2,
	}
	specHits := map[string]int{} // per predicate, over every seed
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			spec := oracleDB(t)
			twin := oracleDB(t, WithoutQueryPruning(), WithEngineOptions(datalog.Naive()))
			r := rand.New(rand.NewSource(seed))
			ents, ints := specOracleInstance(t, r, spec, twin)
			domain := append(append([]string{"3", `"x"`}, ents...), ints...)
			var goals []string
			for _, pred := range []string{"edge", "appears", "reach", "together", "contains", "linked", "via", "apart", "loop", "tagged", "busy"} {
				goals = append(goals, specGoalPatterns(r, pred, arity[pred], 6, domain)...)
			}
			// The recursive shapes draw after every earlier draw, so each
			// seed's earlier instance and goals are unchanged.
			for i := 0; i < 1+r.Intn(2); i++ {
				a, b := ents[r.Intn(len(ents))], ents[r.Intn(len(ents))]
				for _, db := range []*DB{spec, twin} {
					if err := db.Relate("chain", object.OID(a), object.OID(b)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, pred := range []string{"rreach", "tc", "odd", "even", "alt", "lab", "chain", "clear", "hub"} {
				goals = append(goals, specGoalPatterns(r, pred, arity[pred], 6, domain)...)
			}
			want := make([]string, len(goals))
			hits := 0 // specialized goals with a nonempty answer
			for i, q := range goals {
				want[i] = specAnswer(t, twin, q)
				if strings.Count(want[i], "\n") > 1 && strings.HasPrefix(explainHead(t, spec, q), "specialized") {
					hits++
					pred, _, _ := strings.Cut(strings.TrimPrefix(q, "?- "), "(")
					specHits[pred]++
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
	// Every new shape that can carry a bound pattern was compared
	// specialized at least once (tc, non-linear, never is).
	for _, pred := range []string{"reach", "rreach", "odd", "even", "alt", "lab", "chain", "clear", "hub"} {
		if specHits[pred] == 0 {
			t.Errorf("no specialized %s goal had an answer", pred)
		}
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
reach(o7, o9).
rr(X, Y) :- pal(X, Y).
rr(X, Z) :- pal(X, Y), rr(Y, Z).
tc(X, Y) :- pal(X, Y).
tc(X, Z) :- tc(X, Y), tc(Y, Z).
hop(X, Y) :- rr(X, Y).
ping(X, Y) :- pal(X, Y).
ping(X, Z) :- pong(X, Y), pal(Y, Z).
pong(X, Z) :- ping(X, Y), pal(Y, Z), Z.n >= 2.
alt(X, Y) :- costar(X, Y, gi2).
alt(X, Y) :- alt(Y, X).
lab(X, o1) :- pal(o1, X).
lab(Z, o2) :- lab(Y, o1), pal(Y, Z).
lab(Z, L) :- lab(Y, L), pal(Y, Z).
clear(X, Y) :- pal(X, Y), not lonely(Y, gi3).
clear(X, Z) :- clear(X, Y), pal(Y, Z), not lonely(Z, gi3).
joined(G1 + G2) :- Interval(G1), Interval(G2), G1.duration meets G2.duration.
inside(G) :- Interval(G), o3 in G.entities.
glued(G1 + G2) :- inside(G1), Interval(G2), G1.duration meets G2.duration.
`); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ name, query, head, absent string }{
		{"stored facts on an IDB goal", "?- costar(o9, Y, S).", "specialized from costar(o9, Y, S)", ""},
		{"stored facts reached through a bound body atom", "?- pal(o1, Y).", "specialized from pal(o1, Y)", ""},
		{"repeated goal variables", "?- costar(o1, X, X).", "specialized from costar(o1, X, X)", ""},
		{"repeated variables, no match", "?- costar(X, o3, X).", "specialized from costar(X, o3, X)", ""},
		{"goal rule with negation", "?- lonely(o1, G).", "specialized from lonely(o1, G)", ""},
		{"negated goal rule, bound interval", "?- lonely(X, gi2).", "specialized from lonely(X, gi2)", ""},
		{"ground goal", "?- costar(o1, o2, gi1).", "specialized from costar(o1, o2, gi1)", ""},
		{"bound EDB goal", "?- appears_with(o1, Y, S).", "specialized from appears_with(o1, Y, S)", ""},
		{"recursive goal", "?- reach(o1, X).", "specialized from reach(o1, X)", "rule reach("},
		{"recursive goal with stored facts", "?- reach(o7, X).", "specialized from reach(o7, X)", "rule reach("},
		{"right-linear, target bound", "?- rr(X, o3).", "specialized from rr(X, o3)", "rule rr("},
		{"mutual recursion through an attribute filter", "?- pong(o1, Y).", "specialized from pong(o1, Y)", "rule ping("},
		{"argument-swapping recursion", "?- alt(o3, Y).", "specialized from alt(o3, Y)", "rule alt("},
		{"recursive rule with a head constant", "?- lab(X, o2).", "specialized from lab(X, o2)", "rule lab("},
		{"recursion over a negated lower stratum", "?- clear(o2, Y).", "specialized from clear(o2, Y)", "rule clear("},
		{"right-linear, source bound", "?- rr(o1, X).", "not specialized: rr's recursion does not carry the goal's constants (rule rr(X, Z) :- pal(X, Y), rr(Y, Z))", ""},
		{"non-linear closure", "?- tc(o1, X).", "not specialized: tc's recursion does not carry the goal's constants (rule tc(X, Z) :- tc(X, Y), tc(Y, Z))", ""},
		{"head constant, free label", "?- lab(o3, L).", "not specialized: lab's recursion does not carry the goal's constants (rule lab(Z, L) :- lab(Y, L), pal(Y, Z))", ""},
		{"recursion through ⊕ class growth", "?- inside(gi2).", "not specialized: inside's recursion does not carry the goal's constants (rule inside(G) :- Interval(G), o3 in G.entities)", ""},
		{"bound atom over an uncarried recursion", "?- hop(o1, Y).", "specialized from hop(o1, Y)", "rr#"},
		{"⊕ goal", "?- joined(gi1).", "not specialized: joined has a ⊕ head", ""},
		{"unbound goal", "?- costar(X, Y, S).", "not specialized: no constants in the goal", ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := spec.Explain(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if got, _, _ := strings.Cut(out, "\n"); got != c.head {
				t.Fatalf("explain head = %q, want %q", got, c.head)
			}
			// absent: text the rewritten program must not hold (an
			// original rule of a specialized recursion, or a fresh
			// predicate of a blocked one).
			if c.absent != "" && strings.Contains(out, c.absent) {
				t.Fatalf("explain holds %q:\n%s", c.absent, out)
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

// TestBoundRecursiveGoalCountGate pins that a bound recursive goal
// derives only its own slice of the fixpoint: ?- reach(n0, X). over a
// left-linear closure does the same work (derived tuples and rule
// firings) whether or not the edge graph also holds 50 chains that n0
// cannot reach. Evaluating reach for every source, both counts grow
// with every chain.
func TestBoundRecursiveGoalCountGate(t *testing.T) {
	stats := func(chains int) datalog.RunStats {
		db := oracleDB(t)
		var b strings.Builder
		for i := 0; i < 8; i++ {
			fmt.Fprintf(&b, "edge(n%d, n%d).\n", i, i+1)
		}
		b.WriteString("edge(n4, n2).\n") // a cycle inside n0's closure
		for c := 0; c < chains; c++ {
			for i := 0; i < 8; i++ {
				fmt.Fprintf(&b, "edge(c%d_%d, c%d_%d).\n", c, i, c, i+1)
			}
		}
		b.WriteString("reach(X, Y) :- edge(X, Y).\nreach(X, Z) :- reach(X, Y), edge(Y, Z).\n")
		if _, err := db.LoadScript(b.String()); err != nil {
			t.Fatal(err)
		}
		rs, err := db.Query("?- reach(n0, X).")
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 8 {
			t.Fatalf("%d chains: reach(n0, X) has %d rows, want 8", chains, len(rs.Rows))
		}
		return rs.Stats
	}
	base, padded := stats(0), stats(50)
	if base.Derived != padded.Derived || base.Firings != padded.Firings {
		t.Fatalf("derived %d -> %d, firings %d -> %d with 50 unreachable chains; want both unchanged",
			base.Derived, padded.Derived, base.Firings, padded.Firings)
	}
}
