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
)

// Materialized views: a view is a named VideoQL goal whose answer is
// maintained (maintained.go) and read by pull. A read refreshes the view
// first, under the view's own mutex:
//
//   - cached: no relevant mutation since the last read — serve the
//     stored rows.
//   - incremental: only fact mutations on the slice's predicates arrived
//     and the slice is in the maintainable fragment (positive,
//     non-constructive): the retained engine applies their net delta in
//     place, and the read costs that delta, not the base.
//   - recompute: anything else — an object mutation when the slice reads
//     objects, a store reset, a rule-set or taxonomy change the slice can
//     reach, an overflowing queue, a slice outside the fragment, or a
//     previous refresh that failed.
//
// A read reflects every mutation acknowledged before it started. Reads
// of different views proceed independently.

type viewRegistry struct {
	mu    sync.Mutex
	views map[string]*viewState
}

type viewState struct {
	name    string
	goalSrc string
	columns []string

	// mu serializes refreshes (and result reads) of this view; it guards
	// m's retained state and everything below. m's queue has its own lock.
	mu sync.Mutex
	m  maintained

	rows      [][]object.Value
	lastStats datalog.RunStats

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
// conjunctive goals allowed) and computes its first answer before it
// returns. On a computation error (e.g. cancellation) the view stays
// registered but invalid, and the next read retries. Rule definition
// must be serialized against view reads, exactly as it must be against
// queries.
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
	db.attachFeed()
	db.views.mu.Lock()
	if db.views.views == nil {
		db.views.views = make(map[string]*viewState)
	}
	if _, dup := db.views.views[name]; dup {
		db.views.mu.Unlock()
		return nil, fmt.Errorf("core: view %q already exists", name)
	}
	v := &viewState{
		name:    name,
		goalSrc: strings.TrimSpace(goal),
		columns: goalColumns(q.Atom),
		m:       maintained{db: db, goal: q},
	}
	db.views.views[name] = v
	db.views.mu.Unlock()
	return db.refreshView(ctx, v)
}

// View reads a materialized view, maintaining it first if relevant
// mutations arrived since the last read.
func (db *DB) View(name string) (*ViewResult, error) {
	return db.ViewContext(context.Background(), name)
}

// ViewContext is View under a context. Cancellation returns an error
// matching datalog.ErrCanceled. A ctx already cancelled when the read has
// work to do re-queues the batch without touching the retained engine,
// and the next read applies it. A cancellation mid-Apply (or mid-run)
// discards the retained engine; the view's last rows stay as they were,
// and the next read recomputes.
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
		v.m.in.mu.Lock()
		out[i] = ViewInfo{
			Name:            v.name,
			Goal:            v.goalSrc,
			Valid:           v.m.eng != nil,
			Rows:            len(v.rows),
			Pending:         len(v.m.in.pending),
			LastMode:        v.lastMode,
			Recomputes:      v.recomputes,
			IncrementalRuns: v.incrementalRuns,
			CacheHits:       v.cacheHits,
		}
		v.m.in.mu.Unlock()
		v.mu.Unlock()
	}
	return out
}

// refreshView brings the view up to date and returns a read snapshot.
func (db *DB) refreshView(ctx context.Context, v *viewState) (*ViewResult, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	r, err := v.m.refresh(ctx, v.m.in.drain())
	if err != nil {
		return nil, err
	}
	if r.mode == ViewCached {
		v.cacheHits++
		v.lastMode = ViewCached
		return v.snapshot(ViewCached, 0, 0), nil
	}
	rows, err := v.answer()
	if err != nil {
		v.m.eng = nil
		return nil, err
	}
	v.rows = rows
	v.lastStats = v.m.eng.Stats()
	v.lastMode = r.mode
	if r.mode == ViewIncremental {
		v.incrementalRuns++
	} else {
		v.recomputes++
	}
	return v.snapshot(r.mode, r.nIns, r.nDel), nil
}

// answer reads the retained engine's answer. A goal of distinct
// variables over a derived predicate is the relation itself, in no
// particular order; a goal that filters (constants, repeated variables)
// or names an extensional predicate goes through the engine's query path.
// Caller holds v.mu.
func (v *viewState) answer() ([][]object.Value, error) {
	goal := v.m.goal.Atom
	if goal.DistinctVars() {
		if rows, ok := v.m.eng.Tuples(goal.Pred); ok {
			return rows, nil
		}
	}
	return answerOf(v.m.eng, goal)
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
