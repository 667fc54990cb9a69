package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"videodb/internal/datalog"
	"videodb/internal/object"
	"videodb/internal/parser"
	"videodb/internal/store"
)

// Maintained queries: a standing VideoQL goal whose answer stays the
// least fixpoint of the current store — the paper's workload, questions
// asked repeatedly over a slowly mutating annotation base. A view reads
// the answer by pull (views.go); a subscription pushes its changes
// (subscribe.go). Both are a reader over one core, maintained:
//
//   - Registration computes the first answer synchronously, under the
//     caller's context and the DB's admission gate, before Materialize
//     or SubscribeQuery returns. The query is registered first, so no
//     acknowledged mutation slips between registration and that run.
//   - Intake: one store.Subscribe hook (DB.onStoreEvent) queues every
//     acknowledged mutation on every maintained query, under the store's
//     write lock. Fact events pass the slice filter (sliceFilter: the
//     predicates the goal's reachable slice mentions); object events on
//     a slice that reads objects, a store reset, and overflow past
//     maxPendingEvents drop the queue and force a recompute.
//   - Refresh drains the queue. A batch on an unchanged slice folds to a
//     net fact delta (foldEvents); a slice in the maintainable fragment
//     applies it to the retained engine in place (datalog.Engine.Apply),
//     which returns the net change. Anything else — a reset, a changed
//     slice fingerprint, a slice outside the fragment, no retained
//     engine — recomputes into a new engine with Engine.RunAt, which
//     reads every extent under one store read lock and cuts the queue
//     there: for an object-free slice the events after the cut are
//     exactly the next batch. A slice that reads objects resolves them
//     after the cut, so any event queued while it ran taints the answer
//     and the next refresh recomputes.
//   - Cancellation: a context already done when there is work re-queues
//     the batch without touching the engine; a cancellation inside Apply
//     or RunAt discards the retained engine, and the next refresh
//     recomputes.

// maxPendingEvents bounds a maintained query's event queue; overflow
// degrades to a full recompute instead of unbounded memory growth.
const maxPendingEvents = 4096

// intake is a maintained query's event queue. enqueue runs under the
// store's write lock, so the queue has its own mutex and never waits on
// a refresh.
type intake struct {
	mu      sync.Mutex
	pending []store.Event
	reset   bool // admitted object event, store reset or overflow: recompute
	filter  sliceFilter
	stopped bool

	// The frame clock of a windowed subscription: interval puts are
	// retained (bounded) whatever the filter says, and a store reset
	// restarts the clock.
	clock      bool
	framePuts  []object.OID
	frameLost  uint64
	clockReset bool

	// wake is signalled when work is queued; nil for a pull reader.
	wake chan struct{}
}

// drained is the work one refresh takes off the queue.
type drained struct {
	batch      []store.Event
	reset      bool
	clockReset bool
	puts       []object.OID
	lost       uint64
}

// attachFeed subscribes the DB's one changelog hook, once, on the first
// registration of a maintained query.
func (db *DB) attachFeed() {
	db.feed.Do(func() { db.st.Subscribe(db.onStoreEvent) })
}

// onStoreEvent queues an acknowledged store mutation on every view and
// every live subscription. Runs under the store's write lock: queue only,
// never read the store or run maintenance.
func (db *DB) onStoreEvent(ev store.Event) {
	db.views.mu.Lock()
	for _, v := range db.views.views {
		v.m.in.enqueue(ev)
	}
	db.views.mu.Unlock()
	db.subs.mu.Lock()
	for _, s := range db.subs.m {
		s.m.in.enqueue(ev)
	}
	db.subs.mu.Unlock()
}

func (q *intake) enqueue(ev store.Event) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return
	}
	switch ev.Kind {
	case store.EventAddFact, store.EventDeleteFact:
		if q.reset || !q.filter.admitsFact(ev.Fact.Name) {
			return // a recompute is owed anyway, or the slice cannot see it
		}
		if len(q.pending) >= maxPendingEvents {
			q.reset = true
			q.pending = nil
		} else {
			q.pending = append(q.pending, ev)
		}
	case store.EventPutObject:
		// An interval put advances a windowed subscription's frame clock:
		// retain the oid so the reader can stamp it. A slice that reads
		// objects is invalidated wholesale; an object-free one without a
		// clock ignores the put.
		if q.clock {
			if len(q.framePuts) >= maxPendingEvents {
				q.framePuts = q.framePuts[1:]
				q.frameLost++
			}
			q.framePuts = append(q.framePuts, ev.OID)
		}
		if q.filter.admitsObjects() {
			q.reset = true
			q.pending = nil
		} else if !q.clock {
			return
		}
	case store.EventDeleteObject:
		if !q.filter.admitsObjects() {
			return
		}
		q.reset = true
		q.pending = nil
	default: // EventReset: the ingest history itself is gone
		q.reset = true
		q.pending = nil
		q.clockReset = true
		q.framePuts = nil
		q.frameLost = 0
	}
	if q.wake != nil {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
}

// drain takes the queued work.
func (q *intake) drain() drained {
	q.mu.Lock()
	defer q.mu.Unlock()
	d := drained{batch: q.pending, reset: q.reset, clockReset: q.clockReset, puts: q.framePuts, lost: q.frameLost}
	q.pending, q.reset, q.clockReset, q.framePuts, q.frameLost = nil, false, false, nil, 0
	return d
}

// requeue puts an unapplied batch back at the front of the queue, so a
// refresh cancelled before it touched the engine loses nothing.
func (q *intake) requeue(d drained) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reset = q.reset || d.reset
	if !q.reset {
		q.pending = append(append([]store.Event(nil), d.batch...), q.pending...)
	}
}

// cut publishes a new run's event filter and, when the run reads every
// fact it can see under the caller's store lock (object-free slices),
// empties the queue: the events queued so far are in the run.
func (q *intake) cut(filter sliceFilter, covered bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.filter = filter
	if covered {
		q.pending = nil
		q.reset = false
	}
}

// dirty reports whether any work is queued.
func (q *intake) dirty() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending) > 0 || q.reset
}

// stop drops the queue and refuses further events.
func (q *intake) stop() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.stopped = true
	q.pending, q.framePuts = nil, nil
}

// maintained is the core of a maintained query: the goal, its intake
// queue and the retained engine, whose goal relation is the answer. Its
// reader serializes refreshes (a view's mutex, a subscription's pump).
type maintained struct {
	db    *DB
	goal  parser.Query
	local []datalog.Rule // subscription-local rules
	in    intake

	slice       standingSlice
	eng         *datalog.Engine // nil before the first run and after a failed one
	fingerprint string
	incremental bool // slice is maintainable and the goal is rule-defined
	tainted     bool // events raced an object-reading run: recompute next
}

// refreshed is one refresh's outcome.
type refreshed struct {
	mode ViewMode
	// Incremental: the net change of every IDB predicate, and the size
	// of the net fact batch applied.
	plus, minus datalog.Extension
	nIns, nDel  int
	// Recompute: the engine the new one replaced (nil when none
	// survived — the first run, or after a failed Apply).
	prev *datalog.Engine
}

// refresh brings the retained engine up to date with the drained work:
// nothing to do (ViewCached), Apply (ViewIncremental), or a new run
// (ViewRecompute). See the cancellation contract above.
func (m *maintained) refresh(ctx context.Context, d drained) (refreshed, error) {
	prog, fp := m.db.slice(&m.slice, m.goal, m.local)
	full := m.eng == nil || d.reset || m.tainted || fp != m.fingerprint
	var ins, del datalog.FactDelta
	var nIns, nDel int
	if !full {
		ins, del, nIns, nDel = foldEvents(d.batch)
		if nIns == 0 && nDel == 0 {
			return refreshed{mode: ViewCached}, nil
		}
		full = !m.incremental
	}
	if err := ctx.Err(); err != nil {
		m.in.requeue(d)
		return refreshed{}, fmt.Errorf("%w: %w", datalog.ErrCanceled, err)
	}
	if !full {
		plus, minus, err := m.eng.Apply(ctx, ins, del)
		if err == nil {
			return refreshed{mode: ViewIncremental, plus: plus, minus: minus, nIns: nIns, nDel: nDel}, nil
		}
		m.eng = nil // undefined after a failed Apply
		if datalog.IsCanceled(err) {
			return refreshed{}, err
		}
	}
	prev := m.eng
	m.eng = nil
	eng, err := m.recompute(ctx, prog)
	if err != nil {
		return refreshed{}, err
	}
	m.eng, m.fingerprint = eng, fp
	m.incremental = prog.SupportsIncremental() && isIDBPred(prog, m.goal.Atom.Pred)
	return refreshed{mode: ViewRecompute, prev: prev}, nil
}

// recompute evaluates the slice from scratch with RunAt, publishing the
// new event filter and cutting the queue under its store lock.
func (m *maintained) recompute(ctx context.Context, prog datalog.Program) (*datalog.Engine, error) {
	opts := append(append([]datalog.Option(nil), m.db.engOpts...), datalog.WithContext(ctx))
	eng, err := datalog.NewEngine(m.db.st, prog, opts...)
	if err != nil {
		return nil, err
	}
	objects := eng.ReadsObjects()
	filter := newSliceFilter(prog, m.goal.Atom.Pred, objects)
	if err := eng.RunAt(func() { m.in.cut(filter, !objects) }); err != nil {
		return nil, err
	}
	m.tainted = objects && m.in.dirty()
	return eng, nil
}

// answerOf reads an engine's answer to the goal, in answer order (the
// canonical order of Engine.Query).
func answerOf(eng *datalog.Engine, goal datalog.RelAtom) ([][]object.Value, error) {
	res, err := eng.Query(goal)
	if err != nil {
		return nil, err
	}
	rows := make([][]object.Value, len(res))
	for i, r := range res {
		rows[i] = r.Values
	}
	return rows, nil
}

// standingSlice is a maintained goal's reachable rule slice and its
// fingerprint — the rendered slice, which changes exactly when a rule-set
// or taxonomy change touches a rule the goal can reach — with the
// definition versions it was built at.
type standingSlice struct {
	built   bool
	progVer uint64
	taxVer  uint64
	prog    datalog.Program
	fp      string
}

// slice returns the reachable rule slice of a maintained goal (database
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
// answer; each run publishes one. Fact events count on the predicates of
// the reachable slice. Object puts and deletes count only when the slice
// can read objects (datalog.Engine.ReadsObjects): an object-free slice,
// such as a relation over stored references, cannot see them — a
// dangling reference simply never joins. The zero value, before the
// first run, admits every event.
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
// fact events elsewhere cannot affect the answer.
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
