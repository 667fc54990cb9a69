package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"videodb/internal/datalog"
	"videodb/internal/object"
	"videodb/internal/parser"
	"videodb/internal/store"
)

// Materialized views: a view is a named VideoQL goal whose answers are
// computed once and then maintained against store mutations instead of
// re-evaluated per read — the paper's workload (Section 6 queries asked
// repeatedly over a slowly mutating annotation base) rarely needs a full
// fixpoint per question.
//
// Maintenance strategy, per read:
//
//   - cached: no relevant mutations since the last refresh — serve the
//     stored rows.
//   - incremental: only fact mutations on predicates of the view's
//     reachable slice arrived, and the slice is in the incrementally
//     maintainable fragment (positive, non-constructive). The pending
//     events fold to a net FactDelta and datalog.RunIncremental applies
//     insertion semi-naive propagation plus DRed deletion, seeded from
//     the previous extension.
//   - recompute: anything else — object mutations when the slice can
//     read objects (class atoms, attribute operands, ⊕; an object-free
//     slice ignores object events, see sliceFilter), a store reset, a
//     rule-set change (detected by fingerprinting the rendered reachable
//     slice, the Vet-style schema snapshot), an overflowing event queue,
//     or a slice outside the maintainable fragment.
//
// Events are queued by a store.Subscribe hook under the store's write
// lock and drained under the view's own mutex at read time; a view read
// therefore reflects every mutation acknowledged before the read
// started. Reads of different views proceed independently.

// maxPendingEvents bounds a view's event queue; overflow degrades to a
// full recompute instead of unbounded memory growth.
const maxPendingEvents = 4096

type viewRegistry struct {
	mu    sync.Mutex
	views map[string]*viewState
}

type viewState struct {
	name    string
	goalSrc string
	goal    parser.Query

	// mu serializes refreshes (and result reads) of this view.
	mu sync.Mutex

	// The event queue, guarded separately so store mutations delivering
	// events never contend with a running refresh. filter is read by the
	// delivery path and rebuilt by refreshes, so it lives under pendingMu
	// too.
	pendingMu sync.Mutex
	pending   []store.Event
	reset     bool // admitted object event, store reset, or overflow → recompute
	filter    sliceFilter

	// Materialized state, guarded by mu.
	slice       standingSlice
	valid       bool
	fingerprint string
	incremental bool // slice is maintainable and the goal is rule-defined
	ext         datalog.Extension
	columns     []string
	rows        [][]object.Value
	lastStats   datalog.RunStats

	recomputes      uint64
	incrementalRuns uint64
	cacheHits       uint64
	lastMode        ViewMode
}

// ViewMode says how a view read was served.
type ViewMode string

const (
	ViewCached      ViewMode = "cached"
	ViewIncremental ViewMode = "incremental"
	ViewRecompute   ViewMode = "recompute"
)

// ViewResult is one view read: the (maintained) answers plus how they
// were produced. Rows are shared with the view's cache — treat them as
// immutable. Unlike Query results, rows are in no particular order
// (maintained views avoid the canonical re-sort per refresh; sort
// client-side if order matters).
type ViewResult struct {
	Name    string
	Columns []string
	Rows    [][]object.Value
	Mode    ViewMode
	// Net fact changes the refresh applied (incremental mode only).
	AppliedInserts int
	AppliedDeletes int
	// Stats of the engine run that produced the current extension (the
	// last recompute or incremental run; cached reads repeat it).
	Stats datalog.RunStats
}

// ViewInfo summarizes a registered view for listings.
type ViewInfo struct {
	Name            string   `json:"name"`
	Goal            string   `json:"goal"`
	Valid           bool     `json:"valid"`
	Rows            int      `json:"rows"`
	Pending         int      `json:"pending"`
	LastMode        ViewMode `json:"last_mode,omitempty"`
	Recomputes      uint64   `json:"recomputes"`
	IncrementalRuns uint64   `json:"incremental_runs"`
	CacheHits       uint64   `json:"cache_hits"`
}

// Materialize registers a named view over a VideoQL goal ("?-" optional;
// conjunctive goals allowed) and computes it. On a computation error
// (e.g. cancellation) the view stays registered but invalid, and the
// next read retries. Rule definition must be serialized against view
// reads, exactly as it must be against queries.
func (db *DB) Materialize(name, goal string) (*ViewResult, error) {
	return db.MaterializeContext(context.Background(), name, goal)
}

// MaterializeContext is Materialize under a context.
func (db *DB) MaterializeContext(ctx context.Context, name, goal string) (*ViewResult, error) {
	release, err := db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if name == "" {
		return nil, fmt.Errorf("core: view name must be non-empty")
	}
	q, err := parser.ParseQuery(goal)
	if err != nil {
		return nil, err
	}
	// Attach the changelog feed before registering, so no acknowledged
	// mutation can slip between registration and the initial compute.
	db.viewFeed.Do(func() { db.st.Subscribe(db.onStoreEvent) })
	db.views.mu.Lock()
	if db.views.views == nil {
		db.views.views = make(map[string]*viewState)
	}
	if _, dup := db.views.views[name]; dup {
		db.views.mu.Unlock()
		return nil, fmt.Errorf("core: view %q already exists", name)
	}
	v := &viewState{name: name, goalSrc: strings.TrimSpace(goal), goal: q}
	db.views.views[name] = v
	db.views.mu.Unlock()
	return db.refreshView(ctx, v)
}

// View reads a materialized view, maintaining it first if relevant
// mutations arrived since the last read.
func (db *DB) View(name string) (*ViewResult, error) {
	return db.ViewContext(context.Background(), name)
}

// ViewContext is View under a context: cancellation mid-maintenance
// returns an error matching datalog.ErrCanceled and leaves the view at
// its previous consistent state; the interrupted batch is re-queued and
// applied by the next read.
func (db *DB) ViewContext(ctx context.Context, name string) (*ViewResult, error) {
	release, err := db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	db.views.mu.Lock()
	v := db.views.views[name]
	db.views.mu.Unlock()
	if v == nil {
		return nil, fmt.Errorf("core: no view %q", name)
	}
	return db.refreshView(ctx, v)
}

// DropView unregisters a view; it reports whether it existed.
func (db *DB) DropView(name string) bool {
	db.views.mu.Lock()
	defer db.views.mu.Unlock()
	if _, ok := db.views.views[name]; !ok {
		return false
	}
	delete(db.views.views, name)
	return true
}

// Views lists the registered views, sorted by name.
func (db *DB) Views() []ViewInfo {
	db.views.mu.Lock()
	states := make([]*viewState, 0, len(db.views.views))
	for _, v := range db.views.views {
		states = append(states, v)
	}
	db.views.mu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].name < states[j].name })
	out := make([]ViewInfo, len(states))
	for i, v := range states {
		v.mu.Lock()
		v.pendingMu.Lock()
		out[i] = ViewInfo{
			Name:            v.name,
			Goal:            v.goalSrc,
			Valid:           v.valid,
			Rows:            len(v.rows),
			Pending:         len(v.pending),
			LastMode:        v.lastMode,
			Recomputes:      v.recomputes,
			IncrementalRuns: v.incrementalRuns,
			CacheHits:       v.cacheHits,
		}
		v.pendingMu.Unlock()
		v.mu.Unlock()
	}
	return out
}

// onStoreEvent queues an acknowledged store mutation for every view. It
// runs under the store's write lock (see the changelog contract), so it
// must only queue — never read the store or run maintenance.
func (db *DB) onStoreEvent(ev store.Event) {
	db.views.mu.Lock()
	defer db.views.mu.Unlock()
	for _, v := range db.views.views {
		v.enqueue(ev)
	}
}

func (v *viewState) enqueue(ev store.Event) {
	v.pendingMu.Lock()
	defer v.pendingMu.Unlock()
	switch ev.Kind {
	case store.EventAddFact, store.EventDeleteFact:
		if v.reset {
			return // a recompute is owed anyway
		}
		if !v.filter.admitsFact(ev.Fact.Name) {
			return
		}
		if len(v.pending) >= maxPendingEvents {
			v.reset = true
			v.pending = nil
			return
		}
		v.pending = append(v.pending, ev)
	case store.EventPutObject, store.EventDeleteObject:
		if !v.filter.admitsObjects() {
			return
		}
		v.reset = true
		v.pending = nil
	default: // EventReset
		v.reset = true
		v.pending = nil
	}
}

// standingSlice is a standing goal's (a view's or a subscription's)
// reachable rule slice and its fingerprint — the rendered slice, which
// changes exactly when a rule-set or taxonomy change touches a rule the
// goal can reach — with the definition versions it was built at.
type standingSlice struct {
	built   bool
	progVer uint64
	taxVer  uint64
	prog    datalog.Program
	fp      string
}

// slice returns the reachable rule slice of a standing goal (database
// rules + taxonomy + the goal's local rules + the goal rule) and its
// fingerprint. It rebuilds them into c only when the rules or the
// taxonomy have moved since c was built; the caller owns c.
func (db *DB) slice(c *standingSlice, goal parser.Query, local []datalog.Rule) (datalog.Program, string) {
	db.defMu.RLock()
	defer db.defMu.RUnlock()
	progVer, taxVer := db.progVer, db.taxonomy.Version()
	if c.built && c.progVer == progVer && c.taxVer == taxVer {
		return c.prog, c.fp
	}
	rules := append([]datalog.Rule(nil), db.rules...)
	rules = append(rules, db.taxonomy.Rules()...)
	rules = append(rules, local...)
	if goal.Rule != nil {
		rules = append(rules, *goal.Rule)
	}
	prog := datalog.NewProgram(rules...).Reachable(goal.Atom.Pred)
	var fp strings.Builder
	for _, r := range prog.Rules {
		fp.WriteString(r.String())
		fp.WriteByte('\n')
	}
	fp.WriteString("?- ")
	fp.WriteString(goal.Atom.String())
	*c = standingSlice{built: true, progVer: progVer, taxVer: taxVer, prog: prog, fp: fp.String()}
	return c.prog, c.fp
}

func (db *DB) viewEngine(ctx context.Context, prog datalog.Program) (*datalog.Engine, error) {
	opts := db.engOpts
	if ctx != nil && ctx != context.Background() {
		opts = append(append([]datalog.Option(nil), opts...), datalog.WithContext(ctx))
	}
	return datalog.NewEngine(db.st, prog, opts...)
}

// refreshView brings the view up to date and returns a read snapshot.
func (db *DB) refreshView(ctx context.Context, v *viewState) (*ViewResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()

	prog, fp := db.slice(&v.slice, v.goal, nil)

	// Drain the pending mutations this refresh will cover.
	v.pendingMu.Lock()
	batch := v.pending
	v.pending = nil
	needReset := v.reset
	v.reset = false
	v.pendingMu.Unlock()

	// requeue puts an unapplied batch back at the front of the queue so
	// a cancelled maintenance pass loses nothing.
	requeue := func() {
		v.pendingMu.Lock()
		if needReset {
			v.reset = true
		}
		v.pending = append(append([]store.Event(nil), batch...), v.pending...)
		v.pendingMu.Unlock()
	}

	full := !v.valid || needReset || fp != v.fingerprint
	var (
		eng      *datalog.Engine
		mode     ViewMode
		ins, del datalog.FactDelta
		nIns     int
		nDel     int
	)
	if !full {
		if len(batch) == 0 {
			v.cacheHits++
			v.lastMode = ViewCached
			return v.snapshot(ViewCached, 0, 0), nil
		}
		ins, del, nIns, nDel = foldEvents(batch)
		if nIns == 0 && nDel == 0 {
			// The batch nets out to nothing (e.g. add then delete).
			v.cacheHits++
			v.lastMode = ViewCached
			return v.snapshot(ViewCached, 0, 0), nil
		}
		if !v.incremental {
			// Relevant mutations arrived but the slice is outside the
			// maintainable fragment: recompute. (Idle reads above still
			// serve the cache — non-maintainable only costs on change.)
			full = true
		}
	}
	if !full {
		var err error
		eng, err = db.viewEngine(ctx, prog)
		if err != nil {
			//videolint:ignore lockcheck requeue is a local closure that only re-queues the batch under pendingMu; it cannot block or re-enter v.mu
			requeue()
			return nil, err
		}
		if err = eng.RunIncremental(v.ext, ins, del); err != nil {
			if datalog.IsCanceled(err) {
				// The previous extension is untouched (the engine is
				// private); re-queue the batch for the next read.
				requeue()
				return nil, err
			}
			// Unexpected incremental failure: fall through to a full
			// recompute, which needs no event bookkeeping.
			full = true
		} else {
			mode = ViewIncremental
		}
	}
	if full {
		var err error
		eng, err = db.viewEngine(ctx, prog)
		if err != nil {
			requeue()
			return nil, err
		}
		if err = eng.Run(); err != nil {
			// Leave the view invalid: the next read recomputes from
			// scratch (the dropped batch is subsumed by the recompute).
			v.valid = false
			return nil, err
		}
		mode = ViewRecompute
		nIns, nDel = 0, 0
	}

	v.ext = eng.Extensions()
	rows, direct := v.ext[v.goal.Atom.Pred]
	if !direct || !v.goal.Atom.DistinctVars() {
		// The goal filters (constants, repeated variables) or targets an
		// extensional predicate: extract through the engine's query path.
		res, err := eng.Query(v.goal.Atom)
		if err != nil {
			v.valid = false
			return nil, err
		}
		rows = make([][]object.Value, len(res))
		for i, r := range res {
			rows[i] = r.Values
		}
	}

	v.fingerprint = fp
	v.incremental = prog.SupportsIncremental() && isIDBPred(prog, v.goal.Atom.Pred)
	v.columns = goalColumns(v.goal.Atom)
	v.rows = rows
	v.lastStats = eng.Stats()
	v.valid = true
	v.lastMode = mode
	if mode == ViewIncremental {
		v.incrementalRuns++
	} else {
		v.recomputes++
	}

	// Publish the event filter for the delivery path.
	filter := newSliceFilter(prog, v.goal.Atom.Pred, eng.ReadsObjects())
	//videolint:ignore lockcheck deliberate split: publishing the event filter; events racing the build stay queued and trigger the next flush
	v.pendingMu.Lock()
	v.filter = filter
	v.pendingMu.Unlock()

	return v.snapshot(mode, nIns, nDel), nil
}

// snapshot builds a read result from the current materialized state.
// Caller holds v.mu.
func (v *viewState) snapshot(mode ViewMode, ins, del int) *ViewResult {
	return &ViewResult{
		Name:           v.name,
		Columns:        v.columns,
		Rows:           v.rows,
		Mode:           mode,
		AppliedInserts: ins,
		AppliedDeletes: del,
		Stats:          v.lastStats,
	}
}

// foldEvents reduces an in-order event batch to net fact deltas. Events
// fire only on actual change, so per fact key the kinds alternate; the
// net effect is the first kind iff it equals the last, else nothing.
func foldEvents(batch []store.Event) (ins, del datalog.FactDelta, nIns, nDel int) {
	type slot struct {
		first, last store.EventKind
		fact        store.Fact
	}
	var order []string
	slots := make(map[string]*slot)
	for _, ev := range batch {
		k := ev.Fact.Key()
		s := slots[k]
		if s == nil {
			s = &slot{first: ev.Kind, fact: ev.Fact}
			slots[k] = s
			order = append(order, k)
		}
		s.last = ev.Kind
	}
	ins, del = make(datalog.FactDelta), make(datalog.FactDelta)
	for _, k := range order {
		s := slots[k]
		if s.first != s.last {
			continue
		}
		if s.first == store.EventAddFact {
			ins[s.fact.Name] = append(ins[s.fact.Name], s.fact.Args)
			nIns++
		} else {
			del[s.fact.Name] = append(del[s.fact.Name], s.fact.Args)
			nDel++
		}
	}
	return ins, del, nIns, nDel
}

// sliceFilter says which store events can change a maintained query's
// answer; views and subscriptions publish one after each build. Fact
// events count on the predicates of the reachable slice. Object puts and
// deletes count only when the slice can read objects
// (datalog.Engine.ReadsObjects): an object-free slice, such as a
// relation over stored references, cannot see them — a dangling
// reference simply never joins. The zero value, before the first build,
// admits every event.
type sliceFilter struct {
	preds   map[string]bool
	objects bool
}

func newSliceFilter(prog datalog.Program, goal string, readsObjects bool) sliceFilter {
	return sliceFilter{preds: relevantPreds(prog, goal), objects: readsObjects}
}

// admitsFact reports whether a fact event on pred can change the answer.
func (f sliceFilter) admitsFact(pred string) bool { return f.preds == nil || f.preds[pred] }

// admitsObjects reports whether an object put or delete can change the
// answer.
func (f sliceFilter) admitsObjects() bool { return f.preds == nil || f.objects }

// relevantPreds collects every predicate mentioned in the slice (heads
// and relational body atoms, negated included) plus the goal predicate:
// fact events elsewhere cannot affect the view.
func relevantPreds(prog datalog.Program, goal string) map[string]bool {
	out := map[string]bool{goal: true}
	for _, r := range prog.Rules {
		out[r.Head.Pred] = true
		for _, l := range r.Body {
			switch a := l.(type) {
			case datalog.RelAtom:
				out[a.Pred] = true
			case datalog.NotAtom:
				out[a.Atom.Pred] = true
			}
		}
	}
	return out
}

func isIDBPred(prog datalog.Program, pred string) bool {
	for _, r := range prog.Rules {
		if r.Head.Pred == pred {
			return true
		}
	}
	return false
}

// goalColumns mirrors runQuery's column extraction: goal variables in
// first-occurrence order.
func goalColumns(atom datalog.RelAtom) []string {
	var cols []string
	seen := map[string]bool{}
	for _, t := range atom.Args {
		if t.IsVar() && !seen[t.Name()] {
			seen[t.Name()] = true
			cols = append(cols, t.Name())
		}
	}
	return cols
}

// IsViewNotFound reports whether err is a missing-view error from View,
// ViewContext, or DropView-adjacent lookups.
func IsViewNotFound(err error) bool {
	return err != nil && strings.Contains(err.Error(), "no view")
}
