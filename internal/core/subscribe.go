package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"videodb/internal/datalog"
	"videodb/internal/object"
	"videodb/internal/parser"
)

// Continuous queries: a subscription is a maintained query
// (maintained.go) that pushes its answer's changes — the
// situation-monitoring counterpart of materialized views, which pull.
// Registration computes the first answer and queues it as the snapshot
// before SubscribeQueryContext returns. Each subscription then owns a
// pump goroutine that waits for queued store events, refreshes the
// retained engine and emits +tuple/-tuple deltas into a bounded
// per-subscriber queue: an in-place Apply emits the goal's net change, a
// recompute the difference of the two answers.
//
// Delivery contract:
//
//   - The first event is always a snapshot (SubSnapshot) carrying the
//     full answer set at subscribe time; deltas follow. A write
//     acknowledged after SubscribeQuery returned arrives as a delta.
//   - Every event carries a per-subscription monotone sequence number;
//     a consumer that reconnects can discard events it already saw.
//   - A consumer slower than the delta rate hits the queue bound. Under
//     SubDropResync (the default) the backlog is dropped and replaced by
//     one fresh snapshot — the client replaces its accumulated state and
//     is exact again. Under SubDisconnect the subscription is closed with
//     ErrSlowConsumer.
//   - After a quiescent store, the accumulated answer set (snapshot plus
//     applied deltas) equals the one-shot query answer.
//
// Windows: the goal may conjoin window(F, N) — F a goal variable, N a
// positive integer — restricting answers to those whose F binds to one
// of the last N generalized-interval objects ingested since the
// subscription started ("the last N frames of live ingest"). Objects
// present before the subscription age out after N live frames. Window
// atoms are stripped before evaluation; aging out emits a -tuple delta
// even though the tuple is still derivable.

// WindowPred is the reserved goal predicate selecting a sliding ingest
// window; it never reaches the evaluator.
const WindowPred = "window"

// maxWindowFrames bounds window widths: the frame clock shares the
// bounded event queue, so wider windows could silently age tuples early.
const maxWindowFrames = maxPendingEvents

// SubPolicy says what happens to a subscriber that cannot keep up with
// its delta stream.
type SubPolicy string

const (
	// SubDropResync (default): drop the queued backlog and replace it
	// with one fresh snapshot event; delivery continues.
	SubDropResync SubPolicy = "drop-resync"
	// SubDisconnect: close the subscription with ErrSlowConsumer.
	SubDisconnect SubPolicy = "disconnect"
)

// SubOptions configures a subscription.
type SubOptions struct {
	// QueueSize bounds the outbound event queue (default 256, min 1).
	QueueSize int
	// Policy is the slow-consumer policy (default SubDropResync).
	Policy SubPolicy
	// MaxPerSec rate-limits maintenance flushes (0 = unlimited). Store
	// events arriving faster coalesce into fewer, larger delta batches;
	// the queue never sees more than MaxPerSec flushes worth of deltas
	// per second.
	MaxPerSec float64
	// RefreshBudget bounds each maintenance pass (0 = unbounded). A pass
	// that exceeds it closes the subscription with the deadline error —
	// the per-delta analogue of the server's query timeout.
	RefreshBudget time.Duration
}

func (o SubOptions) withDefaults() SubOptions {
	if o.QueueSize <= 0 {
		o.QueueSize = 256
	}
	if o.Policy == "" {
		o.Policy = SubDropResync
	}
	return o
}

// SubEventKind discriminates subscription events.
type SubEventKind uint8

const (
	// SubSnapshot carries the full current answer set in Rows; the
	// consumer replaces any accumulated state. Sent as the first event
	// and after a drop-resync.
	SubSnapshot SubEventKind = iota + 1
	// SubDelta carries one answer tuple in Row with Sign +1 (entered the
	// answer set) or -1 (left it).
	SubDelta
)

func (k SubEventKind) String() string {
	switch k {
	case SubSnapshot:
		return "snapshot"
	case SubDelta:
		return "delta"
	default:
		return "unknown"
	}
}

// SubEvent is one subscription notification.
type SubEvent struct {
	Seq  uint64
	Kind SubEventKind
	Sign int              // +1 / -1 for SubDelta
	Row  []object.Value   // SubDelta
	Rows [][]object.Value // SubSnapshot
}

// Errors surfaced by Subscription.Next after the stream ends.
var (
	ErrSubscriptionClosed = errors.New("core: subscription closed")
	ErrSlowConsumer       = errors.New("core: subscription dropped: consumer too slow (disconnect policy)")
)

// windowSpec is one parsed window(F, N) atom: the goal-column index F
// occupies and the width N in ingest frames.
type windowSpec struct {
	col int
	n   uint64
}

// Subscription is a registered standing query. One consumer at a time
// reads it with Next; Close is idempotent and safe from any goroutine.
type Subscription struct {
	id      uint64
	db      *DB
	goalSrc string
	columns []string
	windows []windowSpec
	opts    SubOptions

	// m is the maintained query; its retained state is the pump's (and,
	// before the pump starts, the registering caller's). visible is a
	// windowed subscription's last emitted answer, in answer order.
	m       maintained
	visible [][]object.Value
	frames  uint64
	stamps  map[object.OID]uint64

	//videolint:ignore ctxcheck pump lifetime context: created and cancelled by the subscription itself (Close), never borrowed from a request
	pumpCtx    context.Context
	pumpCancel context.CancelFunc
	done       chan struct{}

	// Outbound queue.
	qmu          sync.Mutex
	queue        []SubEvent
	nextSeq      uint64
	closed       bool
	closeErr     error
	consumerWake chan struct{}

	delivered atomic.Uint64
	dropped   atomic.Uint64
	resyncs   atomic.Uint64
	flushes   atomic.Uint64
	recomps   atomic.Uint64
	incrs     atomic.Uint64
}

// subRegistry tracks a DB's live subscriptions plus cumulative totals
// (which outlive individual subscriptions, for metrics).
type subRegistry struct {
	mu     sync.Mutex
	m      map[uint64]*Subscription
	nextID uint64

	deltasPlus  atomic.Uint64
	deltasMinus atomic.Uint64
	dropped     atomic.Uint64
	resyncs     atomic.Uint64
	opened      atomic.Uint64
}

// SubTotals is the cumulative subscription accounting for /metrics.
type SubTotals struct {
	Active      int    `json:"active"`
	Opened      uint64 `json:"opened"`
	DeltasPlus  uint64 `json:"deltasPlus"`
	DeltasMinus uint64 `json:"deltasMinus"`
	Dropped     uint64 `json:"dropped"`
	Resyncs     uint64 `json:"resyncs"`
}

// SubscriptionStats returns the DB's cumulative subscription totals.
func (db *DB) SubscriptionStats() SubTotals {
	db.subs.mu.Lock()
	active := len(db.subs.m)
	db.subs.mu.Unlock()
	return SubTotals{
		Active:      active,
		Opened:      db.subs.opened.Load(),
		DeltasPlus:  db.subs.deltasPlus.Load(),
		DeltasMinus: db.subs.deltasMinus.Load(),
		Dropped:     db.subs.dropped.Load(),
		Resyncs:     db.subs.resyncs.Load(),
	}
}

// SubInfo summarizes one live subscription.
type SubInfo struct {
	ID        uint64 `json:"id"`
	Goal      string `json:"goal"`
	Rules     int    `json:"rules"`
	Windowed  bool   `json:"windowed"`
	Queued    int    `json:"queued"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Resyncs   uint64 `json:"resyncs"`
	Flushes   uint64 `json:"flushes"`
}

// Subscriptions lists the live subscriptions, sorted by id.
func (db *DB) Subscriptions() []SubInfo {
	db.subs.mu.Lock()
	subs := make([]*Subscription, 0, len(db.subs.m))
	for _, s := range db.subs.m {
		subs = append(subs, s)
	}
	db.subs.mu.Unlock()
	sort.Slice(subs, func(i, j int) bool { return subs[i].id < subs[j].id })
	out := make([]SubInfo, len(subs))
	for i, s := range subs {
		s.qmu.Lock()
		queued := len(s.queue)
		s.qmu.Unlock()
		out[i] = SubInfo{
			ID:        s.id,
			Goal:      s.goalSrc,
			Rules:     len(s.m.local),
			Windowed:  len(s.windows) > 0,
			Queued:    queued,
			Delivered: s.delivered.Load(),
			Dropped:   s.dropped.Load(),
			Resyncs:   s.resyncs.Load(),
			Flushes:   s.flushes.Load(),
		}
	}
	return out
}

// SubscribeQuery is SubscribeQueryContext without a caller context.
func (db *DB) SubscribeQuery(rules []string, goal string, opts SubOptions) (*Subscription, error) {
	return db.SubscribeQueryContext(context.Background(), rules, goal, opts)
}

// SubscribeQueryContext registers a standing query: the goal (plus
// optional subscription-local rules, in VideoQL syntax) is evaluated
// once, under ctx and the DB's admission gate, and its answer is queued
// as the snapshot event before the call returns; the subscription then
// maintains it against every acknowledged store mutation, pushing answer
// deltas to the returned Subscription. On error — a cancelled ctx
// included — nothing stays registered. The caller must Close it.
func (db *DB) SubscribeQueryContext(ctx context.Context, rules []string, goal string, opts SubOptions) (*Subscription, error) {
	release, err := db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	q, err := parser.ParseQuery(goal)
	if err != nil {
		return nil, err
	}
	var parsed []datalog.Rule
	//videolint:ignore ctxcheck bounded by the caller's rule list; parsing only, no blocking work
	for _, src := range rules {
		r, err := parser.ParseRule(src)
		if err != nil {
			return nil, err
		}
		if mentionsWindow(r) {
			return nil, fmt.Errorf("core: window(...) is only allowed in the subscription goal, not in rules")
		}
		parsed = append(parsed, r)
	}
	stripped, windows, err := extractWindows(q)
	if err != nil {
		return nil, err
	}

	opts = opts.withDefaults()
	//videolint:ignore ctxcheck the subscription outlives the creating request by design; its pump stops via Close, not the caller's ctx
	pumpCtx, cancel := context.WithCancel(context.Background())
	s := &Subscription{
		db:           db,
		goalSrc:      strings.TrimSpace(goal),
		columns:      goalColumns(stripped.Atom),
		windows:      windows,
		opts:         opts,
		consumerWake: make(chan struct{}, 1),
		pumpCtx:      pumpCtx,
		pumpCancel:   cancel,
		done:         make(chan struct{}),
		stamps:       make(map[object.OID]uint64),
	}
	s.m = maintained{db: db, goal: stripped, local: parsed,
		in: intake{clock: len(windows) > 0, wake: make(chan struct{}, 1)}}

	// Register and attach the changelog feed before the first run, so no
	// acknowledged mutation slips between registration and the snapshot
	// (same ordering as Materialize).
	db.attachFeed()
	db.subs.mu.Lock()
	if db.subs.m == nil {
		db.subs.m = make(map[uint64]*Subscription)
	}
	db.subs.nextID++
	s.id = db.subs.nextID
	db.subs.m[s.id] = s
	db.subs.mu.Unlock()

	runCtx, cancelRun := s.budget(ctx)
	defer cancelRun()
	rows, err := s.start(runCtx)
	if err != nil {
		s.m.in.stop()
		s.unregister()
		close(s.done)
		return nil, err
	}
	s.emitSnapshot(rows)
	db.subs.opened.Add(1)
	go s.pump()
	return s, nil
}

// start runs the first evaluation and returns the first answer.
func (s *Subscription) start(ctx context.Context) ([][]object.Value, error) {
	if _, err := s.m.refresh(ctx, drained{}); err != nil {
		return nil, err
	}
	s.recomps.Add(1)
	return s.answer()
}

// budget bounds one maintenance pass by RefreshBudget, if set.
func (s *Subscription) budget(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.RefreshBudget > 0 {
		return context.WithTimeout(ctx, s.opts.RefreshBudget)
	}
	return ctx, func() {}
}

// mentionsWindow reports whether the rule body uses the reserved window
// predicate.
func mentionsWindow(r datalog.Rule) bool {
	for _, l := range r.Body {
		if a, ok := l.(datalog.RelAtom); ok && a.Pred == WindowPred {
			return true
		}
	}
	return false
}

// extractWindows strips window(F, N) atoms from the goal's synthesized
// rule and maps each onto the goal column F occupies.
func extractWindows(q parser.Query) (parser.Query, []windowSpec, error) {
	if q.Rule == nil {
		if q.Atom.Pred == WindowPred {
			return q, nil, fmt.Errorf("core: window(F, N) must be conjoined with other goal literals")
		}
		return q, nil, nil
	}
	var kept []datalog.Literal
	type w struct {
		v string
		n uint64
	}
	var found []w
	for _, l := range q.Rule.Body {
		a, ok := l.(datalog.RelAtom)
		if !ok || a.Pred != WindowPred {
			kept = append(kept, l)
			continue
		}
		if len(a.Args) != 2 || !a.Args[0].IsVar() {
			return q, nil, fmt.Errorf("core: window wants window(Var, N), got %s", a)
		}
		nv, ok := a.Args[1].Value().AsNumber()
		if !ok || nv != float64(uint64(nv)) || nv < 1 {
			return q, nil, fmt.Errorf("core: window width must be a positive integer, got %s", a.Args[1])
		}
		if nv > maxWindowFrames {
			return q, nil, fmt.Errorf("core: window width %d exceeds the maximum %d", uint64(nv), maxWindowFrames)
		}
		found = append(found, w{v: a.Args[0].Name(), n: uint64(nv)})
	}
	if len(found) == 0 {
		return q, nil, nil
	}
	if len(kept) == 0 {
		return q, nil, fmt.Errorf("core: window(F, N) must be conjoined with other goal literals")
	}
	rule := datalog.NewRule(q.Rule.Head, kept...)
	rule.Pos = q.Rule.Pos
	if err := rule.Validate(); err != nil {
		return q, nil, fmt.Errorf("core: goal invalid after stripping window atoms (window variables must be bound elsewhere): %w", err)
	}
	stripped := q
	stripped.Rule = &rule
	cols := goalColumns(q.Atom)
	var specs []windowSpec
	for _, f := range found {
		col := -1
		for i, c := range cols {
			if c == f.v {
				col = i
				break
			}
		}
		if col < 0 {
			return q, nil, fmt.Errorf("core: window variable %s is not a goal variable", f.v)
		}
		specs = append(specs, windowSpec{col: col, n: f.n})
	}
	return stripped, specs, nil
}

// pump is the subscription's maintenance goroutine: wait for work,
// respect the flush rate limit, flush.
func (s *Subscription) pump() {
	defer close(s.done)
	defer s.unregister()
	var lastFlush time.Time
	var minGap time.Duration
	if s.opts.MaxPerSec > 0 {
		minGap = time.Duration(float64(time.Second) / s.opts.MaxPerSec)
	}
	for {
		select {
		case <-s.pumpCtx.Done():
			return
		case <-s.m.in.wake:
		}
		if minGap > 0 && !lastFlush.IsZero() {
			if wait := minGap - time.Since(lastFlush); wait > 0 {
				select {
				case <-s.pumpCtx.Done():
					return
				case <-time.After(wait):
				}
			}
		}
		if !s.flush() {
			return
		}
		lastFlush = time.Now()
	}
}

// flush drains the intake queue, refreshes the answer set, and emits the
// resulting deltas. Returns false when the subscription should stop.
func (s *Subscription) flush() bool {
	d := s.m.in.drain()

	// Advance the frame clock: each ingested generalized interval is one
	// frame. Kind is resolved against the live store at drain time (the
	// intake path may not touch the store); an object already deleted
	// again simply never counted as a frame.
	if d.clockReset {
		s.frames = 0
		s.stamps = make(map[object.OID]uint64)
	}
	s.frames += d.lost
	for _, oid := range d.puts {
		if o := s.db.st.Get(oid); o != nil && o.Kind() == object.GenInterval {
			s.frames++
			s.stamps[oid] = s.frames
		}
	}
	s.pruneStamps()

	runCtx, cancel := s.budget(s.pumpCtx)
	defer cancel()
	r, err := s.m.refresh(runCtx, d)
	if err != nil {
		return s.fail(err)
	}
	switch r.mode {
	case ViewCached:
		// Net no-op batch; only window aging can change visibility.
		return s.emitChange(nil, nil)
	case ViewIncremental:
		s.incrs.Add(1)
		return s.emitChange(s.goalRows(r.plus), s.goalRows(r.minus))
	}
	s.recomps.Add(1)
	next, err := s.answer()
	if err != nil {
		return s.fail(err)
	}
	if r.prev == nil {
		return s.emitSnapshot(next) // the previous answer was lost
	}
	if len(s.windows) > 0 {
		return s.emitVisible(next)
	}
	old, err := answerOf(r.prev, s.m.goal.Atom)
	if err != nil {
		return s.fail(err)
	}
	plus, minus := diffAnswers(old, next)
	return s.emit(plus, minus)
}

// answer is the retained engine's current visible answer, in answer
// order.
func (s *Subscription) answer() ([][]object.Value, error) {
	rows, err := answerOf(s.m.eng, s.m.goal.Atom)
	if err != nil || len(s.windows) == 0 {
		return rows, err
	}
	vis := rows[:0:0]
	for _, r := range rows {
		if s.visibleRow(r) {
			vis = append(vis, r)
		}
	}
	return vis, nil
}

// goalRows turns the goal predicate's entry of an Apply net change into
// answer rows, in answer order: a goal with constants or repeated
// variables keeps the tuples that unify with it, projected onto its
// columns, as Engine.Query does. The projection is injective (constants
// are fixed, repeated variables equal), so net tuples stay net rows.
func (s *Subscription) goalRows(ext datalog.Extension) [][]object.Value {
	tuples := ext[s.m.goal.Atom.Pred]
	if len(tuples) == 0 {
		return nil
	}
	args := s.m.goal.Atom.Args
	distinct := s.m.goal.Atom.DistinctVars()
	rows := make([][]object.Value, 0, len(tuples))
tuple:
	for _, t := range tuples {
		if len(t) != len(args) {
			continue
		}
		if distinct {
			rows = append(rows, t)
			continue
		}
		r := make([]object.Value, 0, len(s.columns))
		for i, a := range args {
			if !a.IsVar() {
				if !a.Value().Equal(t[i]) {
					continue tuple
				}
				continue
			}
			col := slices.Index(s.columns, a.Name())
			if col < len(r) {
				if !r[col].Equal(t[i]) {
					continue tuple
				}
				continue
			}
			r = append(r, t[i])
		}
		rows = append(rows, r)
	}
	return datalog.SortRows(rows)
}

// pruneStamps drops frame stamps that have aged past every window.
func (s *Subscription) pruneStamps() {
	if len(s.stamps) == 0 {
		return
	}
	var maxW uint64
	for _, w := range s.windows {
		if w.n > maxW {
			maxW = w.n
		}
	}
	for oid, st := range s.stamps {
		if st+maxW <= s.frames {
			delete(s.stamps, oid)
		}
	}
}

// visibleRow applies the window filter: every windowed column must hold
// a reference to one of the last N ingested frames. Objects never
// stamped (present before the subscription, or re-loaded) carry stamp 0
// and stay visible until N live frames have arrived.
func (s *Subscription) visibleRow(r []object.Value) bool {
	for _, w := range s.windows {
		if w.col >= len(r) {
			return false
		}
		oid, ok := r[w.col].AsRef()
		if !ok {
			return false
		}
		if s.stamps[oid]+w.n <= s.frames {
			return false
		}
	}
	return true
}

// emitChange emits one maintained batch: the answer's net change for a
// plain subscription; for a windowed one, the visibility pass over the
// engine's answer diffed against what it last emitted (frames may have
// aged rows out even when no fact changed).
func (s *Subscription) emitChange(plus, minus [][]object.Value) bool {
	if len(s.windows) == 0 {
		return s.emit(plus, minus)
	}
	next, err := s.answer()
	if err != nil {
		return s.fail(err)
	}
	return s.emitVisible(next)
}

// emitVisible diffs a windowed subscription's visible answer against the
// one it last emitted.
func (s *Subscription) emitVisible(next [][]object.Value) bool {
	plus, minus := diffAnswers(s.visible, next)
	s.visible = next
	return s.emit(plus, minus)
}

// emitSnapshot pushes the full answer as a snapshot: the first event, or
// a restart after the previous answer was lost.
func (s *Subscription) emitSnapshot(rows [][]object.Value) bool {
	s.flushes.Add(1)
	if len(s.windows) > 0 {
		s.visible = rows
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.closed {
		return false
	}
	s.pushLocked(snapshotEvent(rows))
	return true
}

// emit pushes +rows then -rows (each in answer order, so emission is
// deterministic). A full queue under drop-resync replaces the backlog and
// the rest of the change with one snapshot of the current answer.
// Returns false when the subscription closed.
func (s *Subscription) emit(plus, minus [][]object.Value) bool {
	s.flushes.Add(1)
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.closed {
		return false
	}
	overflowed := !s.pushDeltasLocked(+1, plus) || !s.pushDeltasLocked(-1, minus)
	if overflowed && !s.closed {
		// Drop-resync: the backlog (and the rest of this change) is
		// replaced by one fresh snapshot.
		var rows [][]object.Value
		if s.m.eng != nil {
			var err error
			if rows, err = s.answer(); err != nil {
				s.closeLocked(fmt.Errorf("core: subscription maintenance failed: %w", err))
				return false
			}
		}
		s.dropQueueLocked()
		s.pushLocked(snapshotEvent(rows))
		s.resyncs.Add(1)
		s.db.subs.resyncs.Add(1)
	}
	return !s.closed
}

// pushDeltasLocked pushes one delta per row, stopping at the first that
// does not fit (see pushDeltaLocked). Caller holds qmu.
func (s *Subscription) pushDeltasLocked(sign int, rows [][]object.Value) bool {
	for _, r := range rows {
		if !s.pushDeltaLocked(SubEvent{Kind: SubDelta, Sign: sign, Row: r}) {
			return false
		}
	}
	return true
}

// snapshotEvent wraps answer rows as a snapshot; an empty answer is an
// empty (non-nil) row list.
func snapshotEvent(rows [][]object.Value) SubEvent {
	if rows == nil {
		rows = [][]object.Value{}
	}
	return SubEvent{Kind: SubSnapshot, Rows: rows}
}

// diffAnswers merges two answers in answer order: the rows of next
// missing from prev, and the rows of prev missing from next, both in
// answer order.
func diffAnswers(prev, next [][]object.Value) (plus, minus [][]object.Value) {
	pk, nk := make([]string, len(prev)), make([]string, len(next))
	for i, r := range prev {
		pk[i] = datalog.RowKey(r)
	}
	for j, r := range next {
		nk[j] = datalog.RowKey(r)
	}
	i, j := 0, 0
	for i < len(prev) || j < len(next) {
		var c int
		switch {
		case i == len(prev):
			c = 1
		case j == len(next):
			c = -1
		default:
			c = datalog.CompareKeyed(pk[i], prev[i], nk[j], next[j])
		}
		switch {
		case c < 0:
			minus = append(minus, prev[i])
			i++
		case c > 0:
			plus = append(plus, next[j])
			j++
		default:
			i++
			j++
		}
	}
	return plus, minus
}

// pushLocked appends unconditionally (snapshots always fit: the queue
// was just cleared, or this is the first event). Caller holds qmu.
func (s *Subscription) pushLocked(ev SubEvent) {
	s.nextSeq++
	ev.Seq = s.nextSeq
	s.queue = append(s.queue, ev)
	s.wakeConsumerLocked()
}

// pushDeltaLocked appends a delta, applying the slow-consumer policy on
// overflow. Returns false if the queue is full (drop-resync) — the
// caller stops diffing and resyncs — or the subscription was closed
// (disconnect). Caller holds qmu.
func (s *Subscription) pushDeltaLocked(ev SubEvent) bool {
	if len(s.queue) >= s.opts.QueueSize {
		if s.opts.Policy == SubDisconnect {
			s.dropQueueLocked()
			s.closeLocked(ErrSlowConsumer)
			return false
		}
		return false
	}
	s.nextSeq++
	ev.Seq = s.nextSeq
	s.queue = append(s.queue, ev)
	if ev.Sign >= 0 {
		s.db.subs.deltasPlus.Add(1)
	} else {
		s.db.subs.deltasMinus.Add(1)
	}
	s.wakeConsumerLocked()
	return true
}

// dropQueueLocked discards the queued backlog. Each call is one
// slow-consumer drop cycle and bumps the dropped counters exactly once —
// not once per discarded delta: the resync snapshot that follows makes
// the consumer exact again regardless of how many deltas were in the
// backlog, so per-delta counting would just scale the "drops" metric
// with the queue depth and the write churn, telling operators nothing
// about how often consumers actually fell behind. Caller holds qmu.
func (s *Subscription) dropQueueLocked() {
	s.dropped.Add(1)
	s.db.subs.dropped.Add(1)
	s.queue = s.queue[:0]
}

func (s *Subscription) wakeConsumerLocked() {
	select {
	case s.consumerWake <- struct{}{}:
	default:
	}
}

// fail closes the subscription with an evaluation error, unless the
// error is this pump's own shutdown.
func (s *Subscription) fail(err error) bool {
	if s.pumpCtx.Err() != nil {
		return false
	}
	s.closeWith(fmt.Errorf("core: subscription maintenance failed: %w", err))
	return false
}

// Next blocks until an event is available, the subscription is closed
// (queued events drain first; then the close error is returned), or ctx
// is done.
func (s *Subscription) Next(ctx context.Context) (SubEvent, error) {
	for {
		s.qmu.Lock()
		if len(s.queue) > 0 {
			ev := s.queue[0]
			s.queue = s.queue[1:]
			s.delivered.Add(1)
			s.qmu.Unlock()
			return ev, nil
		}
		if s.closed {
			err := s.closeErr
			s.qmu.Unlock()
			return SubEvent{}, err
		}
		s.qmu.Unlock()
		select {
		case <-ctx.Done():
			return SubEvent{}, ctx.Err()
		case <-s.consumerWake:
		}
	}
}

// SkipTo drops queued events with Seq <= seq — the Last-Event-ID resume
// path: a reconnecting consumer discards what it already saw.
func (s *Subscription) SkipTo(seq uint64) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	i := 0
	for i < len(s.queue) && s.queue[i].Seq <= seq {
		i++
	}
	if i > 0 {
		s.queue = append(s.queue[:0], s.queue[i:]...)
	}
}

// SubStats is a point-in-time snapshot of one subscription's counters.
type SubStats struct {
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Resyncs     uint64 `json:"resyncs"`
	Flushes     uint64 `json:"flushes"`
	Recomputes  uint64 `json:"recomputes"`
	Incremental uint64 `json:"incremental"`
	Queued      int    `json:"queued"`
}

// Stats snapshots the subscription's counters.
func (s *Subscription) Stats() SubStats {
	s.qmu.Lock()
	queued := len(s.queue)
	s.qmu.Unlock()
	return SubStats{
		Delivered:   s.delivered.Load(),
		Dropped:     s.dropped.Load(),
		Resyncs:     s.resyncs.Load(),
		Flushes:     s.flushes.Load(),
		Recomputes:  s.recomps.Load(),
		Incremental: s.incrs.Load(),
		Queued:      queued,
	}
}

// Columns returns the goal's output columns (variable names in
// first-occurrence order), fixed for the subscription's lifetime.
func (s *Subscription) Columns() []string { return s.columns }

// ID returns the subscription's registry id (unique per DB).
func (s *Subscription) ID() uint64 { return s.id }

// Goal returns the original goal source, window atoms included.
func (s *Subscription) Goal() string { return s.goalSrc }

// Err returns the close error, or nil while the subscription is live.
func (s *Subscription) Err() error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if !s.closed {
		return nil
	}
	return s.closeErr
}

// Close stops maintenance and delivery. Idempotent; queued events remain
// readable until drained, after which Next returns
// ErrSubscriptionClosed (or the failure that closed the subscription).
func (s *Subscription) Close() { s.closeWith(nil) }

func (s *Subscription) closeWith(err error) {
	s.qmu.Lock()
	s.closeLocked(err)
	s.qmu.Unlock()
	s.unregister()
}

// unregister removes the subscription from the DB's registry and stops
// its pump. Idempotent.
func (s *Subscription) unregister() {
	s.db.subs.mu.Lock()
	delete(s.db.subs.m, s.id)
	s.db.subs.mu.Unlock()
	s.pumpCancel()
}

// closeLocked marks the subscription closed and stops its intake; the
// pump unregisters it on exit. Caller holds qmu.
func (s *Subscription) closeLocked(err error) {
	if s.closed {
		return
	}
	s.closed = true
	if err == nil {
		err = ErrSubscriptionClosed
	}
	s.closeErr = err
	s.wakeConsumerLocked()
	s.m.in.stop()
}

// Done is closed when the pump goroutine has exited.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// closeSubscriptions closes every live subscription and waits for their
// pumps — called from DB.Close so no maintenance races teardown.
func (db *DB) closeSubscriptions() {
	db.subs.mu.Lock()
	subs := make([]*Subscription, 0, len(db.subs.m))
	for _, s := range db.subs.m {
		subs = append(subs, s)
	}
	db.subs.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
	for _, s := range subs {
		<-s.done
	}
}
