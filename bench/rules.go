package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"videodb/internal/constraint"
	"videodb/internal/core"
	"videodb/internal/datalog"
	"videodb/internal/interval"
	"videodb/internal/parser"
	"videodb/internal/video"
)

// ruleTemplate is one goal of the rules suite with the feature of the
// paper's language it exercises.
type ruleTemplate struct {
	name string // names datalog.tmpl_<name>_ms
	goal string
}

// ruleSuite returns the suite's rules and goals. a, b and c are three
// object names fixed by the seed (see pickTriple).
//
//	covers   dense-order entailment between every occurrence and shot
//	reach    recursive closure, bound goal
//	trio     set-order constraint (subset) over entities
//	handoff  constructive head (G1 + G2) under the Allen relation meets
//	solo     stratified negation
//	follows  Allen relation before over a self-join of one object's shots
func ruleSuite(a, b, c string) (string, []ruleTemplate) {
	rules := fmt.Sprintf(`covers(H, G) :- Interval(H), Interval(G), H.kind = "occurrence", G.kind = "shot", G.duration => H.duration.
co(X, Y) :- appears_with(X, Y, S).
co(X, Y) :- appears_with(Y, X, S).
reach(X, Y) :- co(X, Y).
reach(X, Z) :- reach(X, Y), co(Y, Z).
trio(G) :- Interval(G), {%[1]s, %[2]s} subset G.entities.
handoff(G1 + G2) :- Interval(G1), Interval(G2), G1.kind = "shot", G2.kind = "shot", %[1]s in G1.entities, %[2]s in G2.entities, G1.duration meets G2.duration.
seen_with(P, G) :- appears_with(P, Q, G).
seen_with(P, G) :- appears_with(Q, P, G).
solo(P, G) :- Interval(G), Object(P), G.kind = "shot", P in G.entities, not seen_with(P, G).
follows(G1, G2) :- Interval(G1), Interval(G2), G1.kind = "shot", G2.kind = "shot", %[3]s in G1.entities, %[3]s in G2.entities, G1.duration before G2.duration.
`, a, b, c)
	return rules, []ruleTemplate{
		{"covers", "?- covers(H, G)."},
		{"reach", fmt.Sprintf("?- reach(%s, X).", a)},
		{"trio", "?- trio(G)."},
		{"handoff", "?- handoff(G)."},
		{"solo", "?- solo(P, G)."},
		{"follows", "?- follows(G1, G2)."},
	}
}

// rulesWorkload is one in-process pass over the six goals per op.
type rulesWorkload struct {
	seed    int64
	corpus  *corpus
	a, b, c string
	rules   string
	goals   []ruleTemplate
}

func (w *rulesWorkload) prepare(cfg *runConfig) error {
	w.seed = cfg.Seed
	var err error
	if w.corpus, err = archiveCorpus(cfg); err != nil {
		return err
	}
	order := newKeyDraw(rand.New(rand.NewSource(cfg.Seed)), w.corpus.objects, cfg.Seed).names
	w.a, w.b, w.c = pickTriple(w.corpus.seq, order)
	w.rules, w.goals = ruleSuite(w.a, w.b, w.c)
	return nil
}

func (w *rulesWorkload) inputs() map[string]any {
	in := w.corpus.inputs()
	in["a"], in["b"], in["c"] = w.a, w.b, w.c
	return in
}

// pickTriple fixes the suite's three objects for a sequence. What the
// suite costs depends on them: handoff's created intervals chain (a
// created interval is itself a shot that can meet the next), every
// created interval joins the Interval class all six goals enumerate,
// and follows is quadratic in how many of them hold c. Drawn blindly, a
// pair creates between 2 and 30 intervals on the same archive. So the
// triple is the sequence's typical one, judged from the sequence alone:
// a, b is the first ordered pair, in the seed's order, whose number of
// handoff runs is the median over all pairs; c is the first other object
// whose number of follows pairs is the median over all others.
func pickTriple(seq *video.Sequence, order []string) (a, b, c string) {
	in := make(map[string][]bool, len(order))
	for _, o := range order {
		in[o] = make([]bool, len(seq.Shots))
	}
	for i := range seq.Shots {
		for _, o := range seq.ShotObjects(i) {
			in[o][i] = true
		}
	}
	// firstAtMedian returns the first candidate whose count is the
	// (lower) median of all candidates' counts.
	firstAtMedian := func(n int, count func(int) int) int {
		counts := make([]int, n)
		for i := range counts {
			counts[i] = count(i)
		}
		sorted := append([]int(nil), counts...)
		sort.Ints(sorted)
		for i, v := range counts {
			if v == sorted[(n-1)/2] {
				return i
			}
		}
		panic("unreachable: the median is one of the counts")
	}
	var pairs [][2]string
	for _, x := range order {
		for _, y := range order {
			if x != y {
				pairs = append(pairs, [2]string{x, y})
			}
		}
	}
	p := pairs[firstAtMedian(len(pairs), func(i int) int { return len(handoffRuns(in[pairs[i][0]], in[pairs[i][1]])) })]
	a, b = p[0], p[1]
	runs := handoffRuns(in[a], in[b])
	var others []string
	for _, x := range order {
		if x != a && x != b {
			others = append(others, x)
		}
	}
	c = others[firstAtMedian(len(others), func(i int) int { return followsPairs(runs, in[others[i]]) })]
	return a, b, c
}

// handoffRuns returns the runs of consecutive shots [i, j], j > i, that
// the handoff rule's fixpoint creates as new intervals: a run is created
// when it splits into a left part holding a and a right part holding b
// that meet, each part a single shot or itself a created run (which
// holds both). It is the minimal model worked out on shot indexes, with
// no engine involved.
func handoffRuns(inA, inB []bool) [][2]int {
	n := len(inA)
	made := make([][]bool, n)
	for i := range made {
		made[i] = make([]bool, n)
	}
	var runs [][2]int
	for length := 2; length <= n; length++ {
		for i, j := 0, length-1; j < n; i, j = i+1, j+1 {
			for k := i; k < j; k++ {
				left := made[i][k] || (i == k && inA[i])
				right := made[k+1][j] || (k+1 == j && inB[j])
				if left && right {
					made[i][j] = true
					runs = append(runs, [2]int{i, j})
					break
				}
			}
		}
	}
	return runs
}

// followsPairs counts the follows rule's answer on shot indexes: ordered
// pairs of shot intervals (single shots and created runs) that both hold
// c, the first ending before the second starts.
func followsPairs(runs [][2]int, inC []bool) int {
	n := len(inC)
	startsAt := make([]int, n+1) // intervals holding c that start at shot i, then suffix sums
	var ends []int
	add := func(i, j int) {
		for k := i; k <= j; k++ {
			if inC[k] {
				startsAt[i]++
				ends = append(ends, j)
				return
			}
		}
	}
	for i := 0; i < n; i++ {
		add(i, i)
	}
	for _, r := range runs {
		add(r[0], r[1])
	}
	for i := n - 1; i >= 0; i-- {
		startsAt[i] += startsAt[i+1]
	}
	pairs := 0
	for _, j := range ends {
		pairs += startsAt[j+1]
	}
	return pairs
}

// setup loads corpus and rules and answers each goal once, so every
// plan is compiled before the first measured op.
func (w *rulesWorkload) setup() (instance, error) {
	db, err := w.corpus.load(w.rules)
	if err != nil {
		return nil, err
	}
	inst := &rulesInstance{w: w, db: db}
	for _, g := range w.goals {
		if _, err := db.Query(g.goal); err != nil {
			db.Close()
			return nil, fmt.Errorf("first %s: %w", g.goal, err)
		}
	}
	return inst, nil
}

type rulesInstance struct {
	w      *rulesWorkload
	db     *core.DB
	expect map[string]int // rows per goal; filled by verify
	plans  replayPlans
}

func (r *rulesInstance) corpusSize() (int, int) {
	st := r.db.Store().Stats()
	return st.Objects, st.Facts
}

func (r *rulesInstance) close() error { return r.db.Close() }

func (r *rulesInstance) verify(ctx context.Context) ([]string, error) {
	twin, err := r.w.corpus.naiveTwin(r.w.rules)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	r.expect = map[string]int{}
	for _, g := range r.w.goals {
		n, err := sameAnswer(ctx, r.db, twin, g.goal)
		if err != nil {
			return nil, err
		}
		r.expect[g.goal] = n
	}
	return []string{fmt.Sprintf("%d rule-suite goals equal the naive oracle's row sets", len(r.w.goals))}, nil
}

func (r *rulesInstance) op(ctx context.Context, _ int, ot *opTrace) (time.Duration, error) {
	ids := make([]int, len(r.w.goals))
	t0 := time.Now()
	for i, g := range r.w.goals {
		if ot != nil {
			ids[i] = ot.begin(rootID, spanQuery, g.name, false)
		}
		rs, err := r.db.QueryContext(ctx, g.goal)
		if ot != nil {
			ot.end(ids[i])
		}
		if err != nil {
			return 0, err
		}
		if r.expect != nil && len(rs.Rows) != r.expect[g.goal] {
			return 0, fmt.Errorf("%s: %d rows, oracle has %d", g.goal, len(rs.Rows), r.expect[g.goal])
		}
		if ot != nil {
			countStats(ot, rs)
		}
	}
	e2e := time.Since(t0)
	if ot != nil {
		for i, g := range r.w.goals {
			if err := r.replay(ot, ids[i], g); err != nil {
				return 0, fmt.Errorf("replay: %w", err)
			}
		}
	}
	return e2e, nil
}

// replay decomposes one goal's core.query span into parse and eval.
func (r *rulesInstance) replay(ot *opTrace, query int, g ruleTemplate) error {
	pid := ot.begin(query, spanParse, g.name, true)
	pq, err := parser.ParseQuery(g.goal)
	ot.end(pid)
	if err != nil {
		return err
	}
	cp, err := r.plans.get(r.db, pq)
	if err != nil {
		return err
	}
	eid := ot.begin(query, spanEval, g.name, true)
	res, err := datalog.NewEngineWith(r.db.Store(), cp).Query(pq.Atom)
	ot.end(eid)
	if err != nil {
		return err
	}
	if len(res) != r.expect[g.goal] {
		return fmt.Errorf("%s: replayed eval has %d rows, oracle %d", g.goal, len(res), r.expect[g.goal])
	}
	return nil
}

func (r *rulesInstance) beginTrace(context.Context) error { return nil }

func (r *rulesInstance) counters(context.Context) (map[string]float64, error) {
	pc := r.db.PlanCacheStats()
	return map[string]float64{"plan_hits": float64(pc.Hits), "plan_misses": float64(pc.Misses)}, nil
}

func (r *rulesInstance) layers(_ context.Context, lr *layerRun) error {
	var texts []string
	for _, g := range r.w.goals {
		lr.putSpan("datalog.tmpl_"+g.name+"_ms", "ms", spanQuery+"/"+g.name)
		texts = append(texts, g.goal)
	}
	if err := putQueryLayers(lr, r.db, texts); err != nil {
		return err
	}
	lr.putPerOp("constraint.solver_steps_per_op", "solver_steps")
	hits, misses := lr.trace.total("memo_hits"), lr.trace.total("memo_misses")
	lr.put("constraint.memo_hit_share", "share", share(hits, misses), int(hits+misses))
	r.putAlgebra(lr)
	return nil
}

// putAlgebra times the interval and constraint primitives the suite's
// rules bottom out in, on the corpus's own durations: entailment between
// a shot's and an occurrence's duration formula (covers), union of two
// occurrences (the constructive head), containment (the entailment
// shortcut).
func (r *rulesInstance) putAlgebra(lr *layerRun) {
	var shots, occs []interval.Generalized
	for _, oid := range r.db.Intervals() {
		o := r.db.Object(oid)
		switch kind, _ := o.Attr("kind").AsString(); kind {
		case "shot":
			shots = append(shots, o.Duration())
		case "occurrence":
			occs = append(occs, o.Duration())
		}
	}
	if len(shots) == 0 || len(occs) == 0 {
		return
	}
	const pairs, reps = 400, 8
	rng := rand.New(rand.NewSource(clientSeed(r.w.seed, streamAlgebra, 0)))
	var entail, union, contains []float64
	sink := 0
	for i := 0; i < pairs; i++ {
		shot, occ, occ2 := shots[rng.Intn(len(shots))], occs[rng.Intn(len(occs))], occs[rng.Intn(len(occs))]
		fs, fo := constraint.DurationFormula(shot), constraint.DurationFormula(occ)
		entail = append(entail, timeEach(reps, func() {
			if fs.Entails(fo) {
				sink++
			}
		}))
		union = append(union, timeEach(reps, func() { sink += occ.Union(occ2).NumSpans() }))
		contains = append(contains, timeEach(reps, func() {
			if occ.ContainsGen(shot) {
				sink++
			}
		}))
	}
	_ = sink // keeps the timed calls' results live
	lr.put("constraint.entail_us", "us", median(entail), pairs)
	lr.put("interval.union_us", "us", median(union), pairs)
	lr.put("interval.contains_gen_us", "us", median(contains), pairs)
}

// timeEach returns the mean microseconds of one call over reps calls;
// batching keeps the clock's own cost out of sub-microsecond calls.
func timeEach(reps int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return us(time.Since(t0)) / float64(reps)
}

func (r *rulesInstance) finish(context.Context, *layerRun) ([]string, error) {
	return []string{"every goal's row count matched the oracle's on every pass"}, nil
}
