package datalog

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"videodb/internal/constraint"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
	"videodb/internal/temporal"
)

// Engine evaluates a program bottom-up over a store, computing the least
// fixpoint of the immediate consequence operator TP (Definition 22). The
// engine snapshots the store's extensional database when Run is first
// called; create a new engine to re-evaluate after store changes.
type Engine struct {
	st   *store.Store
	prog Program
	idb  map[string]bool

	naive          bool
	eager          bool
	streaming      bool
	useMemberIndex bool
	useJoinIndex   bool
	usePlanCache   bool
	maxRounds      int
	maxCreated     int
	maxDerived     int

	// in is the engine's pair interner (streaming mode): tuples are keyed
	// by interned 64-bit ids instead of rendered strings. nil in the
	// materializing ablation (WithoutStreaming), whose relations fall back
	// to string keys. Shared by parallel worker copies (pointer field).
	in *pairInterner

	// Cancellation (WithContext): ctx is checked once per fixpoint round
	// and every cancelCheckInterval join-kernel tuples (ticks counts them;
	// workers tick on their shallow copies, so no sharing). The solver
	// budget carries both the MaxSolverSteps limit and the cancellation
	// check into constraint-level evaluation; parallel workers share the
	// pointer (Budget is internally atomic).
	//videolint:ignore ctxcheck engine is per-evaluation: built with the caller's ctx and discarded with it, never outliving the request
	ctx            context.Context
	ticks          uint64
	maxSolverSteps int64
	budget         *constraint.Budget

	// Compiled execution forms, aligned with prog.Rules. Populated at
	// NewEngine time; nil entries (WithoutPlanCache ablation) are
	// recompiled on every evaluation.
	compiled []*compiledRule

	derived map[string]*relation

	// Extended active domain bookkeeping (Definition 20): objects created
	// by the concatenation operator. created resolves oids immediately;
	// activeCreated lists those visible to Interval class atoms this
	// round; deltaCreated those that became visible at the last boundary.
	created        map[object.OID]*object.Object
	baseIDs        map[object.OID][]object.OID
	concatKey      map[string]object.OID
	activeCreated  []object.OID
	deltaCreated   []object.OID
	pendingCreated []object.OID

	baseIntervals []object.OID
	baseEntities  []object.OID
	allIntervals  []object.OID // baseIntervals + activeCreated, rebuilt at round boundaries
	edbCache      map[string]*relation
	edbKeys       map[string]*keySet // negation membership for EDB preds

	// Interval-window pushdown support: base intervals with empty
	// durations (excluded from the store's interval tree but vacuously
	// satisfying entailment guards), computed once per run when the
	// program contains entailment atoms.
	needEmpties    bool
	emptyIntervals []object.OID

	// Query-goal predicates registered before Run so warmEDBCaches covers
	// them: no worker or concurrent reader ever lazily writes edbCache.
	goalMu    *sync.Mutex
	goalPreds map[string]bool

	// Stratification (negation extension): each rule runs in the stratum
	// of its head predicate; lower strata are complete before a negated
	// predicate is tested.
	predStrata map[string]int
	ruleStrata []int
	maxStratum int
	growsAt    []bool // stratum -> has constructive rules
	curStratum int

	intervalsGrow bool
	runOnce       *sync.Once
	runErr        error

	// stats is written only by the run goroutine (workers merge at the
	// round barrier). Concurrent readers go through Stats, which returns
	// the snapshot published under statsMu at every round boundary; the
	// pointers are shared by worker copies so there is exactly one lock.
	stats     RunStats
	statsMu   *sync.Mutex
	statsSnap *RunStats

	// Profiling (WithProfiling): prof accumulates while the run executes
	// (workers use private instances, merged at the barrier); profile is
	// the published result, read via Profile under statsMu. curRule is the
	// rule index currently evaluating, for per-rule attribution.
	profiling bool
	prof      *profileState
	profile   *Profile
	curRule   int

	// Provenance tracing (TraceProvenance).
	trace bool
	prov  map[string]*Derivation

	// Parallel evaluation (Parallel): worker count and, on worker-local
	// shallow copies, the private proposal buffer.
	workers int
	collect *[]proposal

	// Incremental maintenance (see incremental.go). edbDelta carries the
	// current round's delta rows of extensional predicates (standard runs
	// never assign delta positions to EDB atoms, so it stays nil there).
	// delMode redirects head firings into delSet/delNext — the DRed
	// over-deletion bookkeeping — instead of proposing tuples; it is only
	// ever set during the serial over-deletion phase.
	edbDelta  map[string][]row
	delMode   bool
	delSet    map[string]*keySet
	delTuples map[string][]row // all marked tuples, for key removal at apply time
	delNext   map[string][]row

	// curRel caches the head relation of the task being evaluated, saving
	// a map lookup per firing (worker copies are private).
	curRel *relation

	// ran records that runOnce has been consumed (by Run or
	// RunIncremental), distinguishing "already evaluated" from "evaluated
	// with a nil error" for RunIncremental's misuse check.
	ran *bool
}

// RunStats reports what a fixpoint computation did.
type RunStats struct {
	Rounds  int // TP iterations until fixpoint
	Derived int // derived tuples (excluding EDB seeds)
	Created int // generalized interval objects created by ⊕
	Firings int // successful rule head instantiations (incl. duplicates)

	// MemoHits and MemoMisses always read 0: the constraint solver keeps
	// no cache, and the engine decides every constraint filter without it
	// (`=>` by interval containment, Allen relations directly). They stay
	// only for readers that predate the solver memo's removal.
	MemoHits   uint64
	MemoMisses uint64

	// SolverSteps is the number of constraint-filter steps the run
	// consumed (compare MaxSolverSteps): one per `=>` or temporal-relation
	// check.
	SolverSteps int64
}

// Option configures an Engine.
type Option func(*Engine)

// Naive switches to naive fixpoint iteration (every rule re-evaluated
// against the full extent each round). Used by the E9 ablation and as a
// differential-testing oracle for the default semi-naive evaluation.
func Naive() Option { return func(e *Engine) { e.naive = true } }

// EagerExtension materializes the full pairwise-concatenation closure of
// the active interval domain each round, following Definition 19
// literally (the extension D₃ᵉˣᵗ contains the concatenation of every pair
// of generalized intervals). Exponential in the worst case; guarded by
// MaxCreated.
func EagerExtension() Option { return func(e *Engine) { e.eager = true } }

// WithoutStreaming selects the materializing evaluator: the recursive
// join kernel with rendered string row keys and no store pushdown, as it
// existed before the streaming executor. Ablation knob — it preserves the
// seed-comparable allocation profile the streaming benchmarks measure
// against.
func WithoutStreaming() Option { return func(e *Engine) { e.streaming = false } }

// WithoutMemberIndex disables the planner's use of the store's
// entity→interval inverted index for "o ∈ G.entities" generators (E10
// ablation).
func WithoutMemberIndex() Option { return func(e *Engine) { e.useMemberIndex = false } }

// WithoutJoinIndex disables the per-relation hash index on bound
// argument positions, forcing full scans in relational joins (E13
// ablation).
func WithoutJoinIndex() Option { return func(e *Engine) { e.useJoinIndex = false } }

// WithoutPlanCache disables the compiled-rule plan cache: every (rule,
// delta) task re-plans and re-classifies the rule body, as the seed
// evaluator did. Ablation knob for benchmarking the cache's contribution.
func WithoutPlanCache() Option { return func(e *Engine) { e.usePlanCache = false } }

// MaxRounds bounds the number of TP iterations (a safety net; the
// language guarantees termination, so hitting the bound is reported as an
// error).
func MaxRounds(n int) Option { return func(e *Engine) { e.maxRounds = n } }

// MaxCreated bounds the number of ⊕-created objects.
func MaxCreated(n int) Option { return func(e *Engine) { e.maxCreated = n } }

// NewEngine validates the program and prepares an engine over the store.
func NewEngine(st *store.Store, prog Program, opts ...Option) (*Engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	strata, maxStratum, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	e := newEngineShell(st, prog)
	e.predStrata = strata
	e.maxStratum = maxStratum
	e.growsAt = make([]bool, maxStratum+1)
	e.ruleStrata = make([]int, len(prog.Rules))
	for i, r := range prog.Rules {
		e.ruleStrata[i] = strata[r.Head.Pred]
		if r.IsConstructive() {
			e.intervalsGrow = true
			e.growsAt[e.ruleStrata[i]] = true
		}
	}
	e.finishInit(opts)
	// Compile every rule once. A rule that fails to compile (e.g. a
	// constraint atom over variables no body literal binds) keeps a nil
	// entry so the error surfaces at evaluation time, exactly as the
	// per-evaluation planner reported it.
	e.compiled = make([]*compiledRule, len(prog.Rules))
	if e.usePlanCache {
		for i, r := range prog.Rules {
			if cr, err := e.compileRule(r, e.ruleStrata[i]); err == nil {
				e.compiled[i] = cr
			}
		}
	}
	return e, nil
}

// newEngineShell builds an engine with every field that does not depend
// on stratification, options, or compilation. Shared by NewEngine and
// NewEngineWith (the plan-cache entry point, which skips re-validating
// and re-stratifying an already-compiled program).
func newEngineShell(st *store.Store, prog Program) *Engine {
	return &Engine{
		st:             st,
		prog:           prog,
		idb:            make(map[string]bool),
		streaming:      true,
		useMemberIndex: true,
		useJoinIndex:   true,
		usePlanCache:   true,
		maxRounds:      1 << 20,
		maxCreated:     1 << 20,
		maxDerived:     1 << 20,
		derived:        make(map[string]*relation),
		created:        make(map[object.OID]*object.Object),
		baseIDs:        make(map[object.OID][]object.OID),
		concatKey:      make(map[string]object.OID),
		edbCache:       make(map[string]*relation),
		edbKeys:        make(map[string]*keySet),
		goalMu:         &sync.Mutex{},
		goalPreds:      make(map[string]bool),
		statsMu:        &sync.Mutex{},
		statsSnap:      &RunStats{},
		runOnce:        &sync.Once{},
		ran:            new(bool),
		prov:           make(map[string]*Derivation),
	}
}

// finishInit applies the options and builds the option-dependent state:
// the pair interner and the derived relations (keyed according to the
// execution mode), the profiler, and the eager-extension flags.
func (e *Engine) finishInit(opts []Option) {
	for _, o := range opts {
		o(e)
	}
	if e.streaming {
		e.in = newPairInterner()
	}
	for _, pred := range e.prog.IDB() {
		e.idb[pred] = true
		e.derived[pred] = newRelation(e.in)
	}
	if e.profiling {
		e.prof = newProfileState(len(e.prog.Rules))
	}
	if e.eager {
		e.intervalsGrow = true
		e.growsAt[0] = true
	}
	// Entailment guards admit empty durations vacuously; the window
	// pushdown needs the empty-duration interval list to stay a superset.
	for _, r := range e.prog.Rules {
		for _, l := range r.Body {
			if _, ok := l.(EntailAtom); ok {
				e.needEmpties = true
			}
		}
	}
}

// Stats returns the statistics of the last Run. It is safe to call
// concurrently with Run (including Parallel(n) evaluation): mid-run it
// returns the snapshot published at the most recent round boundary; after
// Run returns it reports the final statistics.
func (e *Engine) Stats() RunStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return *e.statsSnap
}

// publishStats copies the run goroutine's private stats into the snapshot
// concurrent Stats readers observe. Called at round boundaries and when
// the run ends.
func (e *Engine) publishStats() {
	e.statsMu.Lock()
	*e.statsSnap = e.stats
	e.statsMu.Unlock()
}

// Run computes the least fixpoint (for programs with negation: the
// perfect model, stratum by stratum). It is idempotent and safe for
// concurrent callers: the fixpoint runs exactly once and subsequent or
// concurrent calls wait for it, then return its result.
func (e *Engine) Run() error {
	e.runOnce.Do(func() {
		*e.ran = true
		e.runErr = e.runFixpoint()
	})
	return e.runErr
}

func (e *Engine) runFixpoint() error {
	return e.runGuarded(func() error {
		e.seedEDB()
		e.warmGoalPreds()
		for s := 0; s <= e.maxStratum; s++ {
			if err := e.runStratum(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// runGuarded wraps a fixpoint computation (full or incremental) with the
// shared run scaffolding: the solver budget that carries MaxSolverSteps
// and cancellation into constraint filters, the EDB snapshot, and the
// stats/profile finalizers.
func (e *Engine) runGuarded(body func() error) error {
	e.budget = constraint.NewBudget(e.maxSolverSteps, e.checkCancel)
	start := time.Now()
	defer e.publishStats() // registered first: runs after the finalizer below
	defer func() {
		e.stats.SolverSteps = e.budget.Spent()
		if e.prof != nil {
			e.buildProfile(time.Since(start))
		}
	}()
	if err := e.checkCancel(); err != nil {
		return err
	}
	e.snapshotEDB()
	return body()
}

// warmGoalPreds pre-fills the EDB caches for predicates registered as
// query goals before Run, so concurrent post-Run queries read a complete
// cache instead of lazily writing a shared map.
func (e *Engine) warmGoalPreds() {
	e.goalMu.Lock()
	goals := make([]string, 0, len(e.goalPreds))
	for p := range e.goalPreds {
		goals = append(goals, p)
	}
	e.goalMu.Unlock()
	for _, p := range goals {
		if !e.idb[p] {
			e.edbRows(p)
		}
	}
}

// runStratum computes the fixpoint of the rules whose head lives in
// stratum s, with all lower strata complete and fixed.
func (e *Engine) runStratum(s int) error {
	e.curStratum = s
	var rules []int
	for i := range e.prog.Rules {
		if e.ruleStrata[i] == s {
			rules = append(rules, i)
		}
	}

	// Round 1 of the stratum: every rule against the current extent.
	round1 := make([]evalTask, len(rules))
	for i, ri := range rules {
		round1[i] = evalTask{ruleIdx: ri, delta: -1}
	}
	changed, err := e.runRound(round1, s, false)
	if err != nil {
		return err
	}

	for changed {
		var tasks []evalTask
		if e.naive {
			for _, ri := range rules {
				tasks = append(tasks, evalTask{ruleIdx: ri, delta: -1})
			}
		} else {
			for _, ri := range rules {
				for _, p := range e.deltaPositions(e.prog.Rules[ri]) {
					tasks = append(tasks, evalTask{ruleIdx: ri, delta: p})
				}
			}
		}
		changed, err = e.runRound(tasks, s, true)
		if err != nil {
			return err
		}
	}
	return nil
}

// runRound evaluates one TP round: the tasks, the round boundary, and —
// when profiling — the round's wall time and firings/derived deltas. The
// published stats snapshot advances at every boundary, so concurrent
// Stats readers see live (round-granular) progress. Shared by runStratum
// and the incremental insertion-propagation phase.
func (e *Engine) runRound(tasks []evalTask, stratum int, guard bool) (bool, error) {
	if err := e.checkCancel(); err != nil {
		return false, err
	}
	e.stats.Rounds++
	if guard && e.stats.Rounds > e.maxRounds {
		return false, fmt.Errorf("%w: fixpoint did not converge within %d rounds", ErrLimitExceeded, e.maxRounds)
	}
	var start time.Time
	f0, d0 := e.stats.Firings, e.stats.Derived
	if e.prof != nil {
		start = time.Now()
	}
	if err := e.runTasks(tasks); err != nil {
		return false, err
	}
	changed := e.advance()
	if e.eager {
		if err := e.eagerClosure(); err != nil {
			return false, err
		}
		changed = changed || len(e.pendingCreated) > 0
		e.applyCreatedBoundary()
	}
	if e.prof != nil {
		e.prof.rounds = append(e.prof.rounds, RoundProfile{
			Round:   e.stats.Rounds,
			Stratum: stratum,
			Tasks:   len(tasks),
			Firings: e.stats.Firings - f0,
			Derived: e.stats.Derived - d0,
			Time:    time.Since(start),
		})
	}
	e.publishStats()
	return changed, nil
}

func (e *Engine) snapshotEDB() {
	e.baseIntervals = e.st.Intervals()
	e.baseEntities = e.st.Entities()
	e.allIntervals = append([]object.OID(nil), e.baseIntervals...)
	if e.streaming && e.needEmpties {
		for _, oid := range e.baseIntervals {
			if o := e.st.Get(oid); o != nil && o.Duration().IsEmpty() {
				e.emptyIntervals = append(e.emptyIntervals, oid)
			}
		}
	}
}

// seedEDB loads extensional facts of IDB predicates into their relations
// so duplicates are suppressed and the first delta is well-defined. The
// dedup sets are pre-sized from the store's fact counts.
func (e *Engine) seedEDB() {
	for pred, rel := range e.derived {
		if n := e.st.FactCount(pred); n > 0 {
			rel.keys.presize(n)
		}
		for _, f := range e.st.Facts(pred) {
			rel.propose(append(row(nil), f.Args...))
		}
		rel.advance()
	}
}

// advance applies the round boundary to every relation and the created
// object sets; it reports whether any extent grew.
func (e *Engine) advance() bool {
	changed := false
	for _, rel := range e.derived {
		if rel.advance() {
			changed = true
		}
	}
	if !e.eager {
		if len(e.pendingCreated) > 0 {
			changed = true
		}
		e.applyCreatedBoundary()
	}
	return changed
}

func (e *Engine) applyCreatedBoundary() {
	e.deltaCreated = e.pendingCreated
	e.pendingCreated = nil
	e.activeCreated = append(e.activeCreated, e.deltaCreated...)
	// The full interval candidate list is rebuilt only here, at the round
	// boundary; class-atom generators read it without re-allocating.
	e.allIntervals = append(e.allIntervals, e.deltaCreated...)
}

// deltaPositions returns the body literal indices that must take the
// delta role in semi-naive evaluation for the current stratum.
func (e *Engine) deltaPositions(r Rule) []int { return e.deltaPositionsIn(r, e.curStratum) }

// deltaPositionsIn returns the delta positions a rule can take when run
// in the given stratum: relational atoms over IDB predicates of that
// stratum (lower strata are complete and never produce deltas), and
// Interval class atoms when the interval domain can still grow there.
// The result depends only on the program and options, so compiled plans
// for these positions are built once at NewEngine time.
func (e *Engine) deltaPositionsIn(r Rule, stratum int) []int {
	var out []int
	for i, l := range r.Body {
		switch a := l.(type) {
		case RelAtom:
			if e.idb[a.Pred] && e.predStrata[a.Pred] == stratum {
				out = append(out, i)
			}
		case ClassAtom:
			if a.Kind == object.GenInterval && e.intervalsGrow && e.growsAt[stratum] {
				out = append(out, i)
			}
		}
	}
	return out
}

// eagerClosure materializes the concatenation of every pair of active
// intervals (Definition 19's extension), bounded by maxCreated.
func (e *Engine) eagerClosure() error {
	all := append(append([]object.OID(nil), e.baseIntervals...), e.activeCreated...)
	all = append(all, e.pendingCreated...)
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if _, err := e.materializeConcat(all[i], all[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- EDB access --------------------------------------------------------------

func (e *Engine) edbRelation(pred string) *relation {
	if rel, ok := e.edbCache[pred]; ok {
		return rel
	}
	facts := e.st.Facts(pred)
	rel := newRelation(e.in)
	rel.rows = make([]row, len(facts))
	if rel.interned() {
		rel.vids = make([][]uint64, len(facts))
	}
	for i, f := range facts {
		rel.rows[i] = row(f.Args)
		if rel.interned() {
			rel.vids[i] = vidsOf(rel.rows[i])
		}
	}
	e.edbCache[pred] = rel
	return rel
}

func (e *Engine) edbRows(pred string) []row { return e.edbRelation(pred).rows }

// relAccess returns the rows a relational atom should scan and, when the
// full extent is being read, the relation whose join index can narrow
// the scan.
func (e *Engine) relAccess(pred string, useDelta bool) ([]row, *relation) {
	if rel, ok := e.derived[pred]; ok {
		if useDelta {
			return rel.delta, nil
		}
		return rel.rows, rel
	}
	if useDelta {
		// Only incremental maintenance assigns delta positions to
		// extensional atoms; elsewhere an EDB delta is empty.
		return e.edbDelta[pred], nil
	}
	rel := e.edbRelation(pred)
	return rel.rows, rel
}

// relAccessIDs is relAccess for the streaming executor: it additionally
// returns the rows' carried value ids (aligned with rows; nil when the
// source doesn't carry them, e.g. incremental EDB deltas).
func (e *Engine) relAccessIDs(pred string, useDelta bool) ([]row, [][]uint64, *relation) {
	if rel, ok := e.derived[pred]; ok {
		if useDelta {
			return rel.delta, rel.deltaVids, nil
		}
		return rel.rows, rel.vids, rel
	}
	if useDelta {
		return e.edbDelta[pred], nil, nil
	}
	rel := e.edbRelation(pred)
	return rel.rows, rel.vids, rel
}

// Object resolves an oid against the extended domain: ⊕-created objects
// first, then the store.
func (e *Engine) Object(oid object.OID) *object.Object {
	if o, ok := e.created[oid]; ok {
		return o
	}
	return e.st.Get(oid)
}

// Created returns the ⊕-created generalized interval objects, sorted by
// oid.
func (e *Engine) Created() []*object.Object {
	oids := make([]object.OID, 0, len(e.created))
	for id := range e.created {
		oids = append(oids, id)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	out := make([]*object.Object, len(oids))
	for i, id := range oids {
		out[i] = e.created[id]
	}
	return out
}

// --- Rule evaluation ---------------------------------------------------------

type bindings map[string]object.Value

// evalRule evaluates one (rule, delta) task with the rule's compiled plan.
// With the plan cache disabled (or when compilation failed at NewEngine
// time), the rule is recompiled here and the compilation error, if any,
// surfaces exactly where the per-evaluation planner reported it.
func (e *Engine) evalRule(ruleIdx, deltaPos int) error {
	e.curRule = ruleIdx // per-rule attribution for profiling (worker copies are private)
	cr := e.compiled[ruleIdx]
	if cr == nil {
		var err error
		cr, err = e.compileRuleOne(e.prog.Rules[ruleIdx], deltaPos)
		if err != nil {
			return err
		}
	}
	steps, ok := cr.plans[deltaPos]
	if !ok {
		// Unplanned delta position (defensive; deltaPositionsIn should have
		// covered it). Compile locally without mutating the shared plan map.
		var err error
		steps, err = e.compilePlan(cr, cr.rule, deltaPos)
		if err != nil {
			return fmt.Errorf("datalog: rule %s: %w", cr.rule.label(), err)
		}
	}
	e.curRel = e.derived[cr.rule.Head.Pred]
	fr := newFrame(cr, e.streaming)
	if e.streaming {
		return e.runPipeline(cr, steps, fr)
	}
	return e.runSteps(cr, steps, 0, fr)
}

// runSteps executes the compiled plan from step i under the frame: the
// allocation-lean replacement for the seed's map-based join recursion.
func (e *Engine) runSteps(cr *compiledRule, steps []planStep, i int, fr *frame) error {
	if i == len(steps) {
		return e.fireHead(cr, fr)
	}
	st := &steps[i]
	switch st.kind {
	case stepRel:
		rows, rel := e.relAccess(st.pred, st.useDelta)
		// Join index: when some argument is statically determined and the
		// extent is large, probe every bound position and scan the most
		// selective (shortest) posting list.
		if e.useJoinIndex && rel != nil && len(rows) >= 16 && len(st.probes) > 0 {
			var ids []int
			for pi, k := range st.probes {
				cand := rel.lookupStr(k, st.probeKey(fr, k))
				if pi == 0 || len(cand) < len(ids) {
					ids = cand
					if len(ids) == 0 {
						break
					}
				}
			}
			for _, ri := range ids {
				if err := e.tick(); err != nil {
					return err
				}
				if st.match(fr, rows[ri]) {
					if err := e.runSteps(cr, steps, i+1, fr); err != nil {
						return err
					}
				}
				st.clearFresh(fr)
			}
			return nil
		}
		for _, tuple := range rows {
			if err := e.tick(); err != nil {
				return err
			}
			if st.match(fr, tuple) {
				if err := e.runSteps(cr, steps, i+1, fr); err != nil {
					return err
				}
			}
			st.clearFresh(fr)
		}
		return nil

	case stepClassCheck:
		v := st.classArg.val
		if st.classArg.slot >= 0 {
			v = fr.vals[st.classArg.slot]
		}
		if e.isKind(v, st.classKind) {
			return e.runSteps(cr, steps, i+1, fr)
		}
		return nil

	case stepClassEnum:
		slot := st.classArg.slot
		for _, oid := range e.classEnumCandidates(st, fr) {
			if err := e.tick(); err != nil {
				return err
			}
			fr.bind(slot, object.Ref(oid))
			if err := e.runSteps(cr, steps, i+1, fr); err != nil {
				return err
			}
		}
		fr.unbind(slot)
		return nil

	case stepAssign:
		v, err := e.resolveOp(st.assignSrc, fr)
		if err != nil {
			return fmt.Errorf("datalog: rule %s: %w", cr.rule.label(), err)
		}
		if v.IsNull() {
			return nil // undefined attribute: the atom cannot hold
		}
		fr.bind(st.assignSlot, v)
		err = e.runSteps(cr, steps, i+1, fr)
		fr.unbind(st.assignSlot)
		return err

	default: // stepFilter
		ok, err := st.filter(e, fr)
		if err != nil {
			return fmt.Errorf("datalog: rule %s: %w", cr.rule.label(), err)
		}
		if ok {
			return e.runSteps(cr, steps, i+1, fr)
		}
		return nil
	}
}

// classEnumCandidates enumerates the oids a class-atom generator should
// try. For Interval atoms it may consult the store's inverted index when
// a compiled membership lookahead pins the entity at run time.
func (e *Engine) classEnumCandidates(st *planStep, fr *frame) []object.OID {
	if st.classKind == object.Entity {
		return e.baseEntities
	}
	if st.useDelta {
		return e.deltaCreated
	}
	if e.useMemberIndex {
		for _, ms := range st.memberSpecs {
			v, err := e.resolveOp(ms.elem, fr)
			if err != nil {
				continue
			}
			elem, isRef := v.AsRef()
			if !isRef {
				continue
			}
			cands := e.st.IntervalsContaining(elem)
			// Created intervals are not in the store index; filter them here.
			for _, oid := range e.activeCreated {
				if containsOID(e.created[oid].Entities(), elem) {
					cands = append(cands, oid)
				}
			}
			return cands
		}
	}
	if e.streaming && st.window != nil {
		// Guard pushdown: a later entailment pins this interval's duration
		// inside a constant window, so the store's interval tree yields the
		// candidates whose duration lies within the window's hull. The set
		// stays a superset of the guard's models — empty durations entail
		// vacuously and are re-added, created intervals are screened with
		// the same hull test — and the guard itself still runs.
		cands := e.st.IntervalsWithin(*st.window)
		cands = append(cands, e.emptyIntervals...)
		if len(e.activeCreated) > 0 {
			win := interval.New(*st.window)
			for _, oid := range e.activeCreated {
				d := e.created[oid].Duration()
				if d.IsEmpty() || win.ContainsGen(d) {
					cands = append(cands, oid)
				}
			}
		}
		return cands
	}
	return e.allIntervals
}

func containsOID(ids []object.OID, want object.OID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

func (e *Engine) isKind(v object.Value, k object.Kind) bool {
	oid, ok := v.AsRef()
	if !ok {
		return false
	}
	o := e.Object(oid)
	return o != nil && o.Kind() == k
}

// termValue resolves a non-constructive term under the bindings; ok is
// false when the term is an unbound variable.
func termValue(t Term, b bindings) (object.Value, bool) {
	if t.IsVar() {
		v, ok := b[t.Name()]
		return v, ok
	}
	if t.IsConcat() {
		return object.Null(), false
	}
	return t.Value(), true
}

// unify matches a term against a value, extending the bindings; it
// returns the variables newly bound (for undo) and whether it succeeded.
func unify(t Term, v object.Value, b bindings) ([]string, bool) {
	if t.IsVar() {
		if cur, ok := b[t.Name()]; ok {
			return nil, cur.Equal(v)
		}
		b[t.Name()] = v
		return []string{t.Name()}, true
	}
	if t.IsConcat() {
		return nil, false
	}
	return nil, t.Value().Equal(v)
}

func unifyArgs(args []Term, tuple row, b bindings) ([]string, bool) {
	var undo []string
	for i, t := range args {
		u, ok := unify(t, tuple[i], b)
		undo = append(undo, u...)
		if !ok {
			for _, v := range undo {
				delete(b, v)
			}
			return nil, false
		}
	}
	return undo, true
}

// --- Filters ------------------------------------------------------------------

func (e *Engine) resolveOperand(o Operand, b bindings) (object.Value, error) {
	v, ok := termValue(o.Term, b)
	if !ok {
		return object.Null(), fmt.Errorf("unbound variable %q in constraint operand %s", o.Term.Name(), o)
	}
	if o.Attr == "" {
		return v, nil
	}
	oid, isRef := v.AsRef()
	if !isRef {
		return object.Null(), nil // non-object has no attributes; constraint fails
	}
	obj := e.Object(oid)
	if obj == nil {
		return object.Null(), nil
	}
	return obj.Attr(o.Attr), nil
}

func (e *Engine) evalFilter(l Literal, b bindings) (bool, error) {
	switch a := l.(type) {
	case CmpAtom:
		lv, err := e.resolveOperand(a.Left, b)
		if err != nil {
			return false, err
		}
		rv, err := e.resolveOperand(a.Right, b)
		if err != nil {
			return false, err
		}
		return compareValues(lv, a.Op, rv), nil

	case MemberAtom:
		set, err := e.resolveOperand(a.Set, b)
		if err != nil {
			return false, err
		}
		for _, el := range a.Elems {
			ev, err := e.resolveOperand(el, b)
			if err != nil {
				return false, err
			}
			if !set.ContainsElem(ev) {
				return false, nil
			}
		}
		return true, nil

	case EntailAtom:
		lv, err := e.resolveOperand(a.Left, b)
		if err != nil {
			return false, err
		}
		rv, err := e.resolveOperand(a.Right, b)
		if err != nil {
			return false, err
		}
		lt, ok1 := lv.AsTemporal()
		rt, ok2 := rv.AsTemporal()
		if !ok1 || !ok2 {
			return false, nil
		}
		return rt.ContainsGen(lt), nil

	case TemporalAtom:
		lv, err := e.resolveOperand(a.Left, b)
		if err != nil {
			return false, err
		}
		rv, err := e.resolveOperand(a.Right, b)
		if err != nil {
			return false, err
		}
		lt, ok1 := lv.AsTemporal()
		rt, ok2 := rv.AsTemporal()
		if !ok1 || !ok2 {
			return false, nil
		}
		return evalTemporalRel(a.Rel, lt, rt), nil

	case NotAtom:
		tuple := make(row, len(a.Atom.Args))
		for i, t := range a.Atom.Args {
			v, ok := termValue(t, b)
			if !ok {
				return false, fmt.Errorf("unbound variable %q in negated atom %s", t.Name(), a)
			}
			tuple[i] = v
		}
		return !e.hasTuple(a.Atom.Pred, tuple), nil

	default:
		return false, fmt.Errorf("unexpected literal %T in filter position", l)
	}
}

// hasTuple reports whether the predicate's extent (EDB plus derived)
// contains the tuple. For negation this is sound because stratification
// guarantees the predicate's stratum is below the current one, so its
// extent is complete.
func (e *Engine) hasTuple(pred string, tuple row) bool {
	if rel, ok := e.derived[pred]; ok {
		return rel.keys.has(tuple) // EDB facts were seeded into the relation
	}
	ks, ok := e.edbKeys[pred]
	if !ok {
		rows := e.edbRows(pred)
		set := newKeySet(e.in, len(rows))
		for _, r := range rows {
			set.add(r)
		}
		ks = &set
		e.edbKeys[pred] = ks
	}
	return ks.has(tuple)
}

// EvalTemporal evaluates an Allen-style temporal relation between two
// generalized intervals — the semantics the engine applies to a
// TemporalAtom once both operands are known. Exported so the static
// analyzer can decide constant-constant temporal atoms without an engine.
func EvalTemporal(rel TemporalRel, l, r interval.Generalized) bool {
	return evalTemporalRel(rel, l, r)
}

// evalTemporalRel evaluates an Allen-style relation between generalized
// intervals using the algebraic temporal evaluator.
func evalTemporalRel(rel TemporalRel, l, r interval.Generalized) bool {
	alg := temporal.Algebraic{}
	switch rel {
	case TempBefore:
		return !l.IsEmpty() && !r.IsEmpty() && alg.Before(l, r)
	case TempAfter:
		return !l.IsEmpty() && !r.IsEmpty() && alg.Before(r, l)
	case TempMeets:
		return temporal.Meets(l, r)
	case TempMetBy:
		return temporal.Meets(r, l)
	case TempOverlaps:
		return alg.Overlaps(l, r)
	case TempEquals:
		return alg.Equals(l, r)
	case TempContains:
		return alg.Contains(l, r)
	case TempDuring:
		return alg.Contains(r, l)
	default:
		return false
	}
}

// compareValues evaluates an order comparison between values: numbers
// compare numerically, strings lexically; = and ≠ use structural
// equality for any kinds; order comparisons between other kinds are
// false (the dense order is defined on concrete domains only).
func compareValues(l object.Value, op constraint.Op, r object.Value) bool {
	switch op {
	case constraint.Eq:
		return l.Equal(r)
	case constraint.Ne:
		return !l.Equal(r)
	}
	if ln, ok := l.AsNumber(); ok {
		if rn, ok := r.AsNumber(); ok {
			return op.Holds(ln, rn)
		}
		return false
	}
	if ls, ok := l.AsString(); ok {
		if rs, ok := r.AsString(); ok {
			return op.Holds(float64(strings.Compare(ls, rs)), 0)
		}
	}
	return false
}

// --- Head instantiation --------------------------------------------------------

func (e *Engine) fireHead(cr *compiledRule, fr *frame) error {
	r := cr.rule
	// Streaming fast path: instantiate the head into the frame's scratch
	// buffer and dedup-check by interned key before allocating anything —
	// duplicate firings (the majority of firings near the fixpoint)
	// allocate nothing. Constructive heads, over-deletion, and provenance
	// tracing need the materialized tuple or its side effects and take the
	// general path below.
	if e.in != nil && !e.delMode && !e.trace && !cr.constructive {
		s, sids := fr.scratch, fr.scratchIDs
		for i, h := range cr.head {
			if h.slot >= 0 {
				if !fr.bound[h.slot] {
					return fmt.Errorf("datalog: rule %s: head variable %s unbound (range restriction violated)", r.label(), cr.varNames[h.slot])
				}
				s[i] = fr.vals[h.slot]
				sids[i] = fr.id(h.slot)
			} else {
				s[i] = h.val
				sids[i] = h.vid
			}
		}
		e.stats.Firings++
		if e.prof != nil {
			e.prof.ruleFirings[e.curRule]++
		}
		rel := e.curRel
		// Workers read the extent's key set without locking: within a
		// round it is immutable (proposals merge at the barrier), so this
		// filters firings already in the extent; cross-worker duplicates
		// of genuinely new tuples resolve at the merge.
		if rel.keys.hasIDs(sids) {
			return nil
		}
		if e.collect != nil {
			tuple := append(row(nil), s...)
			*e.collect = append(*e.collect, proposal{pred: r.Head.Pred, tuple: tuple, rule: e.curRule})
			return nil
		}
		rel.proposeIDs(s, sids)
		e.stats.Derived++
		if e.prof != nil {
			e.prof.ruleDerived[e.curRule]++
		}
		if e.stats.Derived > e.maxDerived {
			return e.derivedLimitErr()
		}
		return nil
	}

	tuple := make(row, len(cr.head))
	for i, h := range cr.head {
		switch {
		case h.concat != nil:
			oid, err := e.concatTerm(cr, *h.concat, fr)
			if err != nil {
				return fmt.Errorf("datalog: rule %s: %w", r.label(), err)
			}
			tuple[i] = object.Ref(oid)
		case h.slot >= 0:
			if !fr.bound[h.slot] {
				return fmt.Errorf("datalog: rule %s: head variable %s unbound (range restriction violated)", r.label(), cr.varNames[h.slot])
			}
			tuple[i] = fr.vals[h.slot]
		default:
			tuple[i] = h.val
		}
	}
	e.stats.Firings++
	if e.prof != nil {
		e.prof.ruleFirings[e.curRule]++
	}
	if e.delMode {
		// DRed over-deletion: the body matched through a deletion delta,
		// so this head tuple may have lost support. Mark it for deletion
		// (once) if it is part of the maintained extent; rederivation
		// decides later whether alternative support remains.
		pred := r.Head.Pred
		rel := e.derived[pred]
		if rel == nil || !rel.keys.has(tuple) {
			return nil
		}
		set := e.delSet[pred]
		if set == nil {
			ns := newKeySet(e.in, 0)
			set = &ns
			e.delSet[pred] = set
		}
		if set.add(tuple) {
			e.delNext[pred] = append(e.delNext[pred], tuple)
			e.delTuples[pred] = append(e.delTuples[pred], tuple)
		}
		return nil
	}
	if e.collect != nil {
		// Parallel worker: buffer the proposal for the round barrier.
		*e.collect = append(*e.collect, proposal{pred: r.Head.Pred, tuple: tuple, rule: e.curRule})
		return nil
	}
	rel := e.derived[r.Head.Pred]
	if rel.propose(tuple) {
		e.stats.Derived++
		if e.prof != nil {
			e.prof.ruleDerived[e.curRule]++
		}
		if e.stats.Derived > e.maxDerived {
			return e.derivedLimitErr()
		}
		if e.trace {
			e.recordProvenance(r, cr.bindingsOf(fr), r.Head.Pred, tuple)
		}
	}
	return nil
}

func (e *Engine) derivedLimitErr() error {
	return fmt.Errorf("%w: more than %d tuples derived (raise MaxDerived if intended)", ErrLimitExceeded, e.maxDerived)
}

// concatTerm evaluates a (possibly nested) constructive term to the oid
// of the resulting generalized interval object, materializing it in the
// extended active domain if new.
func (e *Engine) concatTerm(cr *compiledRule, t Term, fr *frame) (object.OID, error) {
	if !t.IsConcat() {
		var v object.Value
		if t.IsVar() {
			s, ok := cr.varSlots[t.Name()]
			if !ok || !fr.bound[s] {
				return "", fmt.Errorf("unbound variable %q in constructive term", t.Name())
			}
			v = fr.vals[s]
		} else {
			v = t.Value()
		}
		oid, isRef := v.AsRef()
		if !isRef {
			return "", fmt.Errorf("concatenation operand %s is not an object reference", v)
		}
		o := e.Object(oid)
		if o == nil {
			return "", fmt.Errorf("concatenation operand %s does not exist", oid)
		}
		if o.Kind() != object.GenInterval {
			return "", fmt.Errorf("concatenation operand %s is not a generalized interval", oid)
		}
		return oid, nil
	}
	l, err := e.concatTerm(cr, *t.left, fr)
	if err != nil {
		return "", err
	}
	r, err := e.concatTerm(cr, *t.right, fr)
	if err != nil {
		return "", err
	}
	return e.materializeConcat(l, r)
}

func (e *Engine) bases(oid object.OID) []object.OID {
	if b, ok := e.baseIDs[oid]; ok {
		return b
	}
	return []object.OID{oid}
}

// materializeConcat implements the object-creating semantics of Section
// 6.1: the oid of I1 ⊕ I2 is a function of the operand identities — here
// the sorted union of their base-interval identities — which makes ⊕
// idempotent, commutative and associative at the identity level and
// guarantees termination of constructive rules.
func (e *Engine) materializeConcat(l, r object.OID) (object.OID, error) {
	bases := mergeOIDs(e.bases(l), e.bases(r))
	if len(bases) == 1 {
		return bases[0], nil // I ⊕ I ≡ I
	}
	key := oidKey(bases)
	if oid, ok := e.concatKey[key]; ok {
		return oid, nil
	}
	if base, ok := e.sameBases(l, bases); ok {
		// Absorption: concatenating an object with a subset of its own
		// bases yields the object itself.
		return base, nil
	}
	if base, ok := e.sameBases(r, bases); ok {
		return base, nil
	}

	oid := e.freshOID(bases)
	lo, ro := e.Object(l), e.Object(r)
	merged := lo.Merge(ro, oid)
	e.created[oid] = merged
	e.baseIDs[oid] = bases
	e.concatKey[key] = oid
	e.pendingCreated = append(e.pendingCreated, oid)
	e.stats.Created++
	if e.stats.Created > e.maxCreated {
		return "", fmt.Errorf("%w: more than %d objects created by concatenation (raise MaxCreated if intended)", ErrLimitExceeded, e.maxCreated)
	}
	return oid, nil
}

func (e *Engine) sameBases(oid object.OID, bases []object.OID) (object.OID, bool) {
	own := e.bases(oid)
	if len(own) != len(bases) {
		return "", false
	}
	for i := range own {
		if own[i] != bases[i] {
			return "", false
		}
	}
	return oid, true
}

func (e *Engine) freshOID(bases []object.OID) object.OID {
	parts := make([]string, len(bases))
	for i, b := range bases {
		parts[i] = string(b)
	}
	oid := object.OID(strings.Join(parts, "+"))
	for i := 0; e.Object(oid) != nil; i++ {
		oid = object.OID(fmt.Sprintf("%s#%d", strings.Join(parts, "+"), i))
	}
	return oid
}

func mergeOIDs(a, b []object.OID) []object.OID {
	out := make([]object.OID, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, id := range out {
		if i == 0 || out[i-1] != id {
			dedup = append(dedup, id)
		}
	}
	return dedup
}

func oidKey(bases []object.OID) string {
	parts := make([]string, len(bases))
	for i, b := range bases {
		parts[i] = string(b)
	}
	return strings.Join(parts, "\x00")
}

// --- Planning -----------------------------------------------------------------

// planBody orders the body literals for evaluation: the delta literal (if
// any) first, then greedily preferring evaluable filters (cheap pruning)
// and binding literals that join with already-bound variables. Because
// rules are range-restricted, every filter eventually becomes evaluable.
func planBody(body []Literal, deltaPos int) ([]int, error) {
	placed := make([]bool, len(body))
	bound := map[string]bool{}
	var plan []int

	place := func(i int) {
		placed[i] = true
		plan = append(plan, i)
		if body[i].binds() {
			body[i].collectVars(bound)
		}
	}
	if deltaPos >= 0 {
		place(deltaPos)
	}
	for len(plan) < len(body) {
		// 1. Any filter whose variables are all bound, or an equality
		// assignment whose source side is bound (it then binds its
		// target).
		found, assignVar := -1, ""
		for i, l := range body {
			if placed[i] || l.binds() {
				continue
			}
			vars := map[string]bool{}
			l.collectVars(vars)
			unboundVars := 0
			var unbound string
			for v := range vars {
				if !bound[v] {
					unboundVars++
					unbound = v
				}
			}
			if unboundVars == 0 {
				found, assignVar = i, ""
				break
			}
			if cmp, ok := l.(CmpAtom); ok && unboundVars == 1 {
				for _, as := range cmp.assignments() {
					if as.target == unbound {
						if found < 0 {
							found, assignVar = i, unbound
						}
						break
					}
				}
			}
		}
		if found >= 0 {
			place(found)
			if assignVar != "" {
				bound[assignVar] = true
			}
			continue
		}
		// 2. The binding literal sharing the most bound variables.
		best, bestScore := -1, -1
		for i, l := range body {
			if placed[i] || !l.binds() {
				continue
			}
			vars := map[string]bool{}
			l.collectVars(vars)
			score := 0
			for v := range vars {
				if bound[v] {
					score++
				}
			}
			// Prefer relational atoms slightly: they are usually more
			// selective than class enumeration.
			if _, isRel := l.(RelAtom); isRel {
				score = score*2 + 1
			} else {
				score = score * 2
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("constraint atoms reference variables not bound by any body literal")
		}
		place(best)
	}
	return plan, nil
}
