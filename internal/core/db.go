// Package core assembles the paper's system: a video database
// V = (I, O, f, R, Σ, λ1, λ2) (Section 5.1) together with its rule-based
// constraint query language (Section 6). DB is the public entry point a
// downstream application uses: model video content as generalized
// interval objects and semantic objects, relate them with facts, define
// derived relations with rules, and query declaratively — including
// virtual editing through constructive rules.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"videodb/internal/datalog"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/parser"
	"videodb/internal/store"
)

// DB is a video database with an attached rule program.
//
// Evaluation is goal-directed: a query evaluates only the rules its goal
// depends on, and a goal with constants (costar(o1, Y, S)) is answered
// from rules specialized to those constants, so it never builds the goal
// predicate's full extent (see datalog.SpecializeGoal). That holds
// through recursion when the recursion carries the constants:
// reach(a, X) over a left-linear closure derives a's closure only. A
// recursion that does not (right-linear reach(a, X), non-linear closure)
// keeps the full evaluation, as do goals over ⊕ rules. No option
// controls the rewrite; WithoutQueryPruning turns all goal-directed
// evaluation off and is the configuration the oracles compare against.
//
// Concurrency: the underlying store is safe for concurrent use, and each
// query evaluates on its own engine, but a query is not transactionally
// isolated from concurrent writes (the engine reads the store lazily
// while it runs), and rule definition is not synchronized with queries.
// Serialize writers against readers externally — internal/server does
// exactly that for network access.
type DB struct {
	st        *store.Store
	rules     []datalog.Rule
	ruleSet   map[string]bool // rendered rule -> present (dedup)
	progVer   uint64          // bumped on every rule addition; plan-cache key component
	taxonomy  *Taxonomy
	engOpts   []datalog.Option
	noPruning bool

	// Cross-query plan cache (see plancache.go); nil when disabled with
	// WithoutQueryPlanCache.
	plans *planCache

	// Maintained queries (see maintained.go): materialized views and
	// continuous queries. feed attaches the one store changelog hook, on
	// the first registration. defMu guards the rule/taxonomy definitions
	// against the subscription pumps, which assemble programs from
	// background goroutines (one-shot queries keep the documented
	// external-serialization contract above).
	views viewRegistry
	subs  subRegistry
	feed  sync.Once
	defMu sync.RWMutex

	// gate is the optional admission hook applied by every evaluation
	// entrypoint (see gate.go); nil admits everything.
	gate Gate

	// closeOnce releases the DB's pin on the global value-interner epoch
	// exactly once, however many times Close is called.
	closeOnce sync.Once
}

// New creates an empty video database. The DB pins the process-wide
// value-interner epoch until Close — call Close (even on in-memory
// databases) when discarding a DB so the intern table can be reclaimed
// once no database remains open.
func New(opts ...Option) *DB {
	db := &DB{
		st:       store.New(),
		ruleSet:  make(map[string]bool),
		taxonomy: NewTaxonomy(),
		plans:    newPlanCache(defaultPlanCacheCap),
	}
	for _, o := range opts {
		o(db)
	}
	datalog.AcquireInterner()
	return db
}

// Option configures a DB.
type Option func(*DB)

// WithStore uses a pre-populated store (e.g. loaded from a snapshot or
// configured with index ablation options).
func WithStore(st *store.Store) Option { return func(db *DB) { db.st = st } }

// WithEngineOptions forwards options to every query engine the DB
// creates (naive evaluation, eager extension, index toggles…).
func WithEngineOptions(opts ...datalog.Option) Option {
	return func(db *DB) { db.engOpts = append(db.engOpts, opts...) }
}

// WithoutQueryPruning evaluates the full, unrewritten rule program for
// every query instead of the goal-reachable subprogram specialized to
// the goal's constants (the default). Used as the differential oracle,
// by the pruning ablation, and for debugging.
func WithoutQueryPruning() Option { return func(db *DB) { db.noPruning = true } }

// Store exposes the underlying store.
func (db *DB) Store() *store.Store { return db.st }

// --- Modeling (the 7-tuple) ----------------------------------------------------

// PutInterval adds or replaces a generalized interval object (an element
// of I, with λ2 = duration and λ1 = the entities attribute if provided in
// attrs).
func (db *DB) PutInterval(oid object.OID, duration interval.Generalized, attrs map[string]object.Value) error {
	o := object.NewInterval(oid, duration)
	for k, v := range attrs {
		o.Set(k, v)
	}
	return db.st.Put(o)
}

// PutEntity adds or replaces a semantic object (an element of O).
func (db *DB) PutEntity(oid object.OID, attrs map[string]object.Value) error {
	o := object.NewEntity(oid)
	for k, v := range attrs {
		o.Set(k, v)
	}
	return db.st.Put(o)
}

// Attach records that the entities appear in the generalized interval
// (extends λ1).
func (db *DB) Attach(intervalOID object.OID, entities ...object.OID) error {
	return db.st.Update(intervalOID, func(o *object.Object) error {
		if o.Kind() != object.GenInterval {
			return fmt.Errorf("core: %s is not a generalized interval", intervalOID)
		}
		cur := o.Attr(object.AttrEntities)
		o.Set(object.AttrEntities, cur.Union(object.RefSet(entities...)))
		return nil
	})
}

// Relate asserts the fact rel(args...) (an element of R). The error is
// non-nil only on a durable store that refuses the write because its
// backend is poisoned or the write failed (fail-fast; nothing is
// applied, nothing is acknowledged).
func (db *DB) Relate(rel string, args ...object.OID) error {
	_, err := db.st.AddFactErr(store.RefFact(rel, args...))
	return err
}

// Unrelate retracts the fact rel(args...). It reports whether the fact
// was present and removed; the error mirrors Relate's durability
// contract.
func (db *DB) Unrelate(rel string, args ...object.OID) (bool, error) {
	return db.st.DeleteFactErr(store.RefFact(rel, args...))
}

// Object returns the stored object, or nil.
func (db *DB) Object(oid object.OID) *object.Object { return db.st.Get(oid) }

// Intervals returns the oids of all generalized intervals, sorted.
func (db *DB) Intervals() []object.OID { return db.st.Intervals() }

// Entities returns the oids of all semantic objects, sorted.
func (db *DB) Entities() []object.OID { return db.st.Entities() }

// --- Rules and scripts ----------------------------------------------------------

// DefineRule parses and adds a single rule in VideoQL syntax. Adding the
// same rule twice is a no-op.
func (db *DB) DefineRule(src string) error {
	r, err := parser.ParseRule(src)
	if err != nil {
		return err
	}
	db.addRule(r)
	return nil
}

// AddRule adds an already-constructed rule after validating it.
func (db *DB) AddRule(r datalog.Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	db.addRule(r)
	return nil
}

func (db *DB) addRule(r datalog.Rule) {
	key := r.String()
	db.defMu.Lock()
	defer db.defMu.Unlock()
	if db.ruleSet[key] {
		return
	}
	db.ruleSet[key] = true
	db.rules = append(db.rules, r)
	db.progVer++
}

// Rules returns the current program.
func (db *DB) Rules() datalog.Program { return datalog.NewProgram(db.rules...) }

// LoadScript parses a VideoQL script, applies its objects and facts to
// the database, adds its rules, and returns the result sets of its
// queries in order.
func (db *DB) LoadScript(src string) ([]*ResultSet, error) {
	return db.LoadScriptContext(context.Background(), src)
}

// LoadScriptContext is LoadScript under a context: the script's queries
// evaluate with ctx attached, so a cancellation or deadline stops them
// mid-fixpoint with an error matching datalog.ErrCanceled. Mutations the
// script already applied are not rolled back.
func (db *DB) LoadScriptContext(ctx context.Context, src string) ([]*ResultSet, error) {
	release, err := db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	script, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := script.Apply(db.st); err != nil {
		return nil, err
	}
	//videolint:ignore ctxcheck bounded by the parsed script's rule list; in-memory registration, no blocking work
	for _, r := range script.Rules {
		db.addRule(r)
	}
	var results []*ResultSet
	for _, q := range script.Queries {
		rs, err := db.runQuery(ctx, q)
		if err != nil {
			return nil, err
		}
		results = append(results, rs)
	}
	return results, nil
}

// --- Queries --------------------------------------------------------------------

// ResultSet holds the answers to one query.
type ResultSet struct {
	Columns []string         // variable names in first-occurrence order
	Rows    [][]object.Value // distinct answers in canonical order
	Created []*object.Object // ⊕-created objects, if the program is constructive
	Stats   datalog.RunStats
	Profile *datalog.Profile // per-rule/per-round timings; nil unless profiled
	engine  *datalog.Engine
}

// OIDs extracts single-column object references.
func (rs *ResultSet) OIDs() ([]object.OID, error) {
	out := make([]object.OID, 0, len(rs.Rows))
	for _, r := range rs.Rows {
		if len(r) != 1 {
			return nil, fmt.Errorf("core: result has %d columns, want 1", len(r))
		}
		oid, ok := r[0].AsRef()
		if !ok {
			return nil, fmt.Errorf("core: non-reference answer %s", r[0])
		}
		out = append(out, oid)
	}
	return out, nil
}

// Object resolves an oid against the query's extended domain (store plus
// created objects), so answers referring to ⊕-created intervals can be
// inspected.
func (rs *ResultSet) Object(oid object.OID) *object.Object {
	if rs.engine != nil {
		return rs.engine.Object(oid)
	}
	return nil
}

// Query parses and evaluates a VideoQL query ("?-" optional) against the
// database and its current rules.
func (db *DB) Query(src string) (*ResultSet, error) {
	return db.QueryContext(context.Background(), src)
}

// QueryContext is Query under a context: the evaluation observes ctx and
// stops with an error matching datalog.ErrCanceled (and ctx's own cause)
// soon after ctx is cancelled or its deadline passes.
func (db *DB) QueryContext(ctx context.Context, src string) (*ResultSet, error) {
	release, err := db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return db.runQuery(ctx, q)
}

// QueryProfiledContext is QueryContext with the engine's profiler on:
// the result's Profile carries per-rule and per-round wall time, firings,
// derived counts, and solver/memo consumption — the EXPLAIN ANALYZE
// companion to Explain. Profiling adds bookkeeping to rule evaluation,
// so it is opt-in per query rather than always-on.
func (db *DB) QueryProfiledContext(ctx context.Context, src string) (*ResultSet, error) {
	release, err := db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	q, err := parser.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return db.runQuery(ctx, q, datalog.WithProfiling())
}

// QueryAtom evaluates a pre-built query atom against the database.
func (db *DB) QueryAtom(atom datalog.RelAtom) (*ResultSet, error) {
	return db.QueryAtomContext(context.Background(), atom)
}

// QueryAtomContext is QueryAtom under a context.
func (db *DB) QueryAtomContext(ctx context.Context, atom datalog.RelAtom) (*ResultSet, error) {
	release, err := db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return db.runQuery(ctx, parser.Query{Atom: atom})
}

// newEngine builds a fresh engine over the database's rules, the
// taxonomy's rules, and the query's synthesized rule (if any), together
// with the plan it was built from: the engine answers plan.goal, which
// is the specialized goal rather than q.Atom when the rewrite applied.
// A non-Background ctx is attached to the engine so the fixpoint
// observes cancellation; Background stays off the hot path entirely.
func (db *DB) newEngine(ctx context.Context, q parser.Query, extra ...datalog.Option) (*datalog.Engine, *queryPlan, error) {
	plan, err := db.planFor(q)
	if err != nil {
		return nil, nil, err
	}
	opts := db.engOpts
	if ctx != nil && ctx != context.Background() {
		opts = append(append([]datalog.Option(nil), opts...), datalog.WithContext(ctx))
	}
	if len(extra) > 0 {
		opts = append(append([]datalog.Option(nil), opts...), extra...)
	}
	return datalog.NewEngineWith(db.st, plan.cp, opts...), plan, nil
}

func (db *DB) runQuery(ctx context.Context, q parser.Query, extra ...datalog.Option) (*ResultSet, error) {
	eng, plan, err := db.newEngine(ctx, q, extra...)
	if err != nil {
		return nil, err
	}
	res, err := eng.Query(plan.goal)
	if err != nil {
		return nil, err
	}
	var cols []string
	seen := map[string]bool{}
	//videolint:ignore ctxcheck bounded by the goal atom's arity; pure column-name collection, no blocking work
	for _, t := range q.Atom.Args {
		if t.IsVar() && !seen[t.Name()] {
			seen[t.Name()] = true
			cols = append(cols, t.Name())
		}
	}
	rs := &ResultSet{
		Columns: cols,
		Created: eng.Created(),
		Stats:   eng.Stats(),
		Profile: eng.Profile(),
		engine:  eng,
	}
	if len(res) > 0 {
		rs.Rows = make([][]object.Value, len(res))
		for i, r := range res {
			rs.Rows[i] = r.Values
		}
	}
	return rs, nil
}

// --- Virtual editing -------------------------------------------------------------

// Compose concatenates the given generalized intervals into a new
// interval object (the virtual-editing functionality of Section 6.1,
// available imperatively) and stores it. The resulting oid is returned;
// composing the same set twice yields the same oid.
func (db *DB) Compose(oids ...object.OID) (object.OID, error) {
	if len(oids) == 0 {
		return "", fmt.Errorf("core: Compose needs at least one interval")
	}
	sorted := append([]object.OID(nil), oids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	dedup := sorted[:0]
	for i, id := range sorted {
		if i == 0 || sorted[i-1] != id {
			dedup = append(dedup, id)
		}
	}
	var merged *object.Object
	for _, oid := range dedup {
		o := db.st.Get(oid)
		if o == nil {
			return "", fmt.Errorf("core: no object %q", oid)
		}
		if o.Kind() != object.GenInterval {
			return "", fmt.Errorf("core: %q is not a generalized interval", oid)
		}
		if merged == nil {
			merged = o.Clone()
		} else {
			merged = merged.Merge(o, "")
		}
	}
	if len(dedup) == 1 {
		return dedup[0], nil
	}
	name := ""
	for i, id := range dedup {
		if i > 0 {
			name += "+"
		}
		name += string(id)
	}
	oid := object.OID(name)
	final := merged.Merge(object.New(oid, object.GenInterval), oid)
	if err := db.st.Put(final); err != nil {
		return "", err
	}
	return oid, nil
}

// --- Persistence ------------------------------------------------------------------

// SaveFile writes the database content (objects and facts; rules are
// source artifacts, not data) to a snapshot file.
func (db *DB) SaveFile(path string) error { return db.st.SaveFile(path) }

// LoadFile replaces the database content from a snapshot file.
func (db *DB) LoadFile(path string) error { return db.st.LoadFile(path) }
