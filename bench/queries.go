package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"videodb/internal/core"
	"videodb/internal/datalog"
	"videodb/internal/object"
	"videodb/internal/parser"
	"videodb/internal/server"
	"videodb/internal/store"
)

// Request kinds of the served query workloads; they tag spans and name
// the server.req_<kind>_ms metrics.
const (
	reqProbeEDB = "probe_edb"
	reqProbeIDB = "probe_idb"
	reqMember   = "member"
	reqScan     = "scan"
	reqSelfJoin = "selfjoin"
)

// Unbound forms of the probe templates: the oracle answers each once and
// the answer, grouped by the probed arguments, gives the expected row
// count of every bound variant.
const (
	queryScan     = "?- appears_with(A, B, S)."
	querySelfJoin = "?- appears_with(A, B, S), appears_with(B, C, S)."
	queryCostars  = "?- costar(X, Y, S)."
	queryMembers  = "?- Interval(G), Object(O), O in G.entities."
)

// request is one /v1/query call of an op.
type request struct {
	kind string
	text string
	a, b string // bound object names; empty on scan requests
}

// expectKey is the key of the request's expected row count.
func (r request) expectKey() string {
	if r.kind == reqProbeEDB {
		return r.a + "," + r.b
	}
	return r.a
}

// opGen generates one client's ops. An op is a fixed short sequence of
// requests, so op latency is unimodal: one draw of the key pair decides
// all three probe requests.
type opGen struct {
	kind string
	keys *keyDraw
}

func (g *opGen) next() []request {
	if g.kind == "scan" {
		return []request{{kind: reqScan, text: queryScan}, {kind: reqSelfJoin, text: querySelfJoin}}
	}
	a, b := g.keys.pair()
	return []request{
		{kind: reqProbeEDB, text: fmt.Sprintf("?- appears_with(%s, %s, S).", a, b), a: a, b: b},
		{kind: reqProbeIDB, text: fmt.Sprintf("?- costar(%s, Y, S).", a), a: a},
		{kind: reqMember, text: fmt.Sprintf("?- Interval(G), %s in G.entities.", a), a: a},
	}
}

// clientSeed derives an independent stream per (seed, workload, client).
func clientSeed(seed int64, stream, client int) int64 {
	return seed*1_000_003 + int64(stream)*1_009 + int64(client)
}

// queryWorkload is probe or scan: HTTP /v1/query requests against the
// archive corpus on the mem backend.
type queryWorkload struct {
	kind   string
	seed   int64
	corpus *corpus
}

func (w *queryWorkload) prepare(cfg *runConfig) error {
	w.seed = cfg.Seed
	var err error
	w.corpus, err = archiveCorpus(cfg)
	return err
}

func (w *queryWorkload) inputs() map[string]any { return w.corpus.inputs() }

// Random streams: one per load client, one for the oracle's sample.
const (
	streamLoad = 1 + iota
	streamVerify
	streamAlgebra
)

// gen returns the op generator of one stream's client.
func (w *queryWorkload) gen(stream, client int) *opGen {
	rng := rand.New(rand.NewSource(clientSeed(w.seed, stream, client)))
	return &opGen{kind: w.kind, keys: newKeyDraw(rng, w.corpus.objects, w.seed)}
}

// setup loads the corpus, starts the server, and sends each request
// kind once so plans are compiled and connections are open.
func (w *queryWorkload) setup() (instance, error) {
	db, err := w.corpus.load(costarRules)
	if err != nil {
		return nil, err
	}
	srv, err := serve(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	sp, _ := findSpec(w.kind)
	inst := &queryInstance{w: w, db: db, srv: srv, admin: srv.newClient()}
	for c := 0; c < sp.clients; c++ {
		inst.clients = append(inst.clients, srv.newClient())
		inst.gens = append(inst.gens, w.gen(streamLoad, c))
	}
	ctx := context.Background()
	for c, cl := range inst.clients {
		for _, r := range w.gen(streamLoad, c).next() {
			if _, _, err := cl.query(ctx, r.text); err != nil {
				inst.close()
				return nil, fmt.Errorf("first %s request: %w", r.kind, err)
			}
		}
	}
	return inst, nil
}

type queryInstance struct {
	w       *queryWorkload
	db      *core.DB
	srv     *served
	admin   *client // counters and checks, not load
	clients []*client
	gens    []*opGen
	// expect[kind][key] is the oracle's row count; filled by verify.
	expect map[string]map[string]int

	plans replayPlans
}

func (q *queryInstance) corpusSize() (int, int) {
	st := q.db.Store().Stats()
	return st.Objects, st.Facts
}

func (q *queryInstance) close() error {
	q.srv.close()
	return q.db.Close()
}

// verify checks each template's row set against the naive twin, in
// process and once over the wire, and derives the expected row counts.
func (q *queryInstance) verify(ctx context.Context) ([]string, error) {
	twin, err := q.w.corpus.naiveTwin(costarRules)
	if err != nil {
		return nil, err
	}
	defer twin.Close()

	gen := q.w.gen(streamVerify, 0)
	gen.kind = "probe" // the bound templates are checked on scan too
	templates := []string{queryScan, querySelfJoin, queryCostars, queryMembers}
	for i := 0; i < 3; i++ {
		for _, r := range gen.next() {
			templates = append(templates, r.text)
		}
	}
	wire := server.NewClient(q.srv.base, q.admin.http)
	for _, text := range templates {
		if _, err := sameAnswer(ctx, q.db, twin, text); err != nil {
			return nil, err
		}
		if err := q.sameOverWire(ctx, wire, text); err != nil {
			return nil, err
		}
	}

	q.expect = map[string]map[string]int{}
	for _, g := range []struct {
		kind, query string
		cols        []int
	}{
		{reqProbeEDB, queryScan, []int{0, 1}},
		{reqProbeIDB, queryCostars, []int{0}},
		{reqMember, queryMembers, []int{1}},
	} {
		if q.expect[g.kind], err = groupCounts(ctx, twin, g.query, g.cols...); err != nil {
			return nil, err
		}
	}
	for kind, query := range map[string]string{reqScan: queryScan, reqSelfJoin: querySelfJoin} {
		rs, err := twin.QueryContext(ctx, query)
		if err != nil {
			return nil, err
		}
		q.expect[kind] = map[string]int{"": len(rs.Rows)}
	}
	return []string{
		fmt.Sprintf("%d query templates equal the naive oracle's row sets, in process and over /v1/query", len(templates)),
	}, nil
}

// sameOverWire compares the HTTP answer with the in-process answer.
func (q *queryInstance) sameOverWire(ctx context.Context, wire *server.Client, text string) error {
	got, err := wire.Query(text)
	if err != nil {
		return fmt.Errorf("%s over HTTP: %w", text, err)
	}
	want, err := q.db.QueryContext(ctx, text)
	if err != nil {
		return err
	}
	return sameRows(text, "over HTTP", "in process", got.Rows, want.Rows)
}

func (q *queryInstance) checkRows(r request, rows int) error {
	if q.expect == nil {
		return nil // set-up's first requests, before the oracle ran
	}
	if want := q.expect[r.kind][r.expectKey()]; rows != want {
		return fmt.Errorf("%s: %d rows, oracle has %d", r.text, rows, want)
	}
	return nil
}

func (q *queryInstance) op(ctx context.Context, c int, ot *opTrace) (time.Duration, error) {
	reqs := q.gens[c].next()
	ids := make([]int, len(reqs))
	t0 := time.Now()
	for i, r := range reqs {
		if ot != nil {
			ids[i] = ot.begin(rootID, spanRoundtrip, r.kind, false)
		}
		rows, size, err := q.clients[c].query(ctx, r.text)
		if ot != nil {
			ot.end(ids[i])
			ot.count("resp_bytes", float64(size))
		}
		if err != nil {
			return 0, err
		}
		if err := q.checkRows(r, rows); err != nil {
			return 0, err
		}
	}
	e2e := time.Since(t0)
	if ot != nil {
		for i, r := range reqs {
			if err := q.replay(ctx, ot, ids[i], r); err != nil {
				return 0, fmt.Errorf("replay: %w", err)
			}
		}
	}
	return e2e, nil
}

// replay runs the request again through the layers under the server,
// one public entry point per layer, each as a span under the one it
// decomposes: core.query under the round trip, parse and eval under
// core.query, the raw store scan under eval.
func (q *queryInstance) replay(ctx context.Context, ot *opTrace, roundtrip int, r request) error {
	qid := ot.begin(roundtrip, spanQuery, r.kind, true)
	rs, err := q.db.QueryContext(ctx, r.text)
	ot.end(qid)
	if err != nil {
		return err
	}
	if err := q.checkRows(r, len(rs.Rows)); err != nil {
		return err
	}
	countStats(ot, rs)

	pid := ot.begin(qid, spanParse, r.kind, true)
	pq, err := parser.ParseQuery(r.text)
	ot.end(pid)
	if err != nil {
		return err
	}
	cp, err := q.plans.get(q.db, pq)
	if err != nil {
		return err
	}
	eid := ot.begin(qid, spanEval, r.kind, true)
	res, err := datalog.NewEngineWith(q.db.Store(), cp).Query(pq.Atom)
	ot.end(eid)
	if err != nil {
		return err
	}
	if err := q.checkRows(r, len(res)); err != nil {
		return err
	}

	tag, scan := q.storeScan(r)
	sid := ot.begin(eid, spanScan, tag, true)
	scanned := scan()
	ot.end(sid)
	if r.kind != reqSelfJoin && scanned != len(res) {
		return fmt.Errorf("%s: raw store scan found %d, the engine %d", r.text, scanned, len(res))
	}
	return nil
}

// storeScan returns the raw store call that fetches the request's data
// (the floor under datalog.eval) and the tag of its span.
func (q *queryInstance) storeScan(r request) (tag string, scan func() int) {
	st := q.db.Store()
	facts := func(binds ...store.ArgBind) int {
		n := 0
		st.ScanFacts("appears_with", binds, func(store.Fact) bool { n++; return true })
		return n
	}
	ref := func(name string) object.Value { return object.Ref(object.OID(name)) }
	switch r.kind {
	case reqProbeEDB:
		return "bound", func() int {
			return facts(store.ArgBind{Pos: 0, Val: ref(r.a)}, store.ArgBind{Pos: 1, Val: ref(r.b)})
		}
	case reqProbeIDB:
		return "bound", func() int {
			return facts(store.ArgBind{Pos: 0, Val: ref(r.a)}) + facts(store.ArgBind{Pos: 1, Val: ref(r.a)})
		}
	case reqMember:
		return "member", func() int { return len(st.IntervalsContaining(object.OID(r.a))) }
	default:
		return "full", func() int { return facts() }
	}
}

// countStats files a result's work counters with the op.
func countStats(ot *opTrace, rs *core.ResultSet) {
	ot.count("derived", float64(rs.Stats.Derived))
	ot.count("firings", float64(rs.Stats.Firings))
	ot.count("rounds", float64(rs.Stats.Rounds))
	ot.count("solver_steps", float64(rs.Stats.SolverSteps))
	ot.count("memo_hits", float64(rs.Stats.MemoHits))
	ot.count("memo_misses", float64(rs.Stats.MemoMisses))
	ot.count("rows", float64(len(rs.Rows)))
}

// compileFor compiles the program a query needs the way core does: the
// rules reachable from the goal plus the query's own helper rule.
func compileFor(db *core.DB, pq parser.Query) (*datalog.CompiledProgram, error) {
	rules := db.Rules().Rules
	if pq.Rule != nil {
		rules = append(rules, *pq.Rule)
	}
	return datalog.CompileProgram(datalog.NewProgram(rules...).Reachable(pq.Atom.Pred))
}

// replayPlans holds the replays' compiled programs, compiled once per
// query text as core's plan cache would.
type replayPlans struct {
	mu sync.Mutex
	m  map[string]*datalog.CompiledProgram
}

func (p *replayPlans) get(db *core.DB, pq parser.Query) (*datalog.CompiledProgram, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cp := p.m[pq.Text]; cp != nil {
		return cp, nil
	}
	cp, err := compileFor(db, pq)
	if err != nil {
		return nil, err
	}
	if p.m == nil {
		p.m = map[string]*datalog.CompiledProgram{}
	}
	p.m[pq.Text] = cp
	return cp, nil
}

func (q *queryInstance) beginTrace(context.Context) error { return nil }

func (q *queryInstance) counters(ctx context.Context) (map[string]float64, error) {
	st, err := q.admin.stats()
	if err != nil {
		return nil, err
	}
	waitSum, waitCount, err := q.admin.queueWait(ctx)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"plan_hits":   float64(st.PlanCache.Hits),
		"plan_misses": float64(st.PlanCache.Misses),
		"admitted":    float64(st.Admission.Admitted),
		"rejected":    float64(st.Admission.Rejected),
		"wait_sum_s":  waitSum,
		"wait_count":  float64(waitCount),
	}, nil
}

func (q *queryInstance) layers(ctx context.Context, lr *layerRun) error {
	lr.putOpMs("server.roundtrip_ms", spanRoundtrip)
	lr.putSelfMs("server.self_ms", spanRoundtrip)
	resp := lr.trace.counts["resp_bytes"]
	lr.put("server.resp_kb_per_op", "KiB", median(resp)/1024, len(resp))
	kinds := []string{reqProbeEDB, reqProbeIDB, reqMember}
	if q.w.kind == "scan" {
		kinds = []string{reqScan, reqSelfJoin}
	}
	for _, k := range kinds {
		lr.putSpan("server.req_"+k+"_ms", "ms", spanRoundtrip+"/"+k)
	}
	putAdmission(lr)

	var texts []string
	for _, r := range q.w.gen(streamLoad, 0).next() {
		texts = append(texts, r.text)
	}
	if err := putQueryLayers(lr, q.db, texts); err != nil {
		return err
	}
	// Tuples derived per row returned: near 1 when the engine derives
	// only what the goal asks for, in the tens when a bound goal is
	// answered by deriving the whole relation and filtering.
	if rows := lr.trace.total("rows"); rows > 0 {
		lr.put("datalog.examined_per_row", "count", lr.trace.total("derived")/rows, int(rows))
	}

	if q.w.kind == "probe" {
		lr.putSpan("store.scan_us", "us", spanScan+"/bound")
		lr.putSpan("store.member_us", "us", spanScan+"/member")
	} else {
		lr.putSpan("store.fullscan_ms", "ms", spanScan+"/full")
	}
	return nil
}

// putAdmission reports the admission layer's counts over the traced run.
// The queue wait is a mean: the server exports a histogram's sum and
// count, not samples.
func putAdmission(lr *layerRun) {
	n := int(lr.delta["wait_count"])
	lr.put("server.admitted", "count", lr.delta["admitted"], n)
	lr.put("server.rejected", "count", lr.delta["rejected"], n)
	wait := 0.0
	if n > 0 {
		wait = lr.delta["wait_sum_s"] / float64(n) * 1000
	}
	lr.put("server.queue_wait_ms", "ms", wait, n)
}

// putQueryLayers reports what every workload that evaluates queries
// shares: core's and datalog's spans and counts, the plan cache, and a
// cold CompileProgram for each query text — what a plan-cache miss costs.
func putQueryLayers(lr *layerRun, db *core.DB, texts []string) error {
	lr.putOpMs("core.query_ms", spanQuery)
	lr.putSelfMs("core.self_ms", spanQuery)
	hits, misses := lr.delta["plan_hits"], lr.delta["plan_misses"]
	lr.put("core.plan_cache_hit_share", "share", share(hits, misses), int(hits+misses))
	lr.putSpan("parser.parse_us", "us", spanParse)
	lr.putOpMs("datalog.eval_ms", spanEval)
	lr.putPerOp("datalog.derived_per_op", "derived")
	lr.putPerOp("datalog.firings_per_op", "firings")
	lr.putPerOp("datalog.rounds_per_op", "rounds")
	var took []float64
	for rep := 0; rep < 20; rep++ {
		for _, text := range texts {
			pq, err := parser.ParseQuery(text)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := compileFor(db, pq); err != nil {
				return err
			}
			took = append(took, us(time.Since(t0)))
		}
	}
	lr.put("datalog.compile_us", "us", median(took), len(took))
	return nil
}

func (q *queryInstance) finish(context.Context, *layerRun) ([]string, error) {
	return []string{"every response's row count matched the oracle's count for its arguments"}, nil
}
