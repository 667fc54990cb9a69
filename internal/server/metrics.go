package server

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"videodb/internal/core"
	"videodb/internal/datalog"
	"videodb/internal/datalog/analyze"
	"videodb/internal/store"
)

// Observability: cumulative counters for every evaluation the server
// runs, exposed two ways — GET /metrics in Prometheus text exposition
// format (0.0.4) and the "engine" section of GET /v1/stats — plus a
// request log and a slow-query log. Everything here is atomics: the
// recording path adds a handful of uncontended Add calls per request, so
// observability never serializes queries.

// latencyBuckets are the upper bounds (seconds) of the query-latency
// histogram; an implicit +Inf bucket follows the last entry.
var latencyBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10}

// histogram is a fixed-bucket latency histogram. Buckets hold per-bucket
// (not cumulative) counts; the Prometheus writer accumulates.
type histogram struct {
	buckets [len(latencyBuckets) + 1]atomic.Uint64
	sumNs   atomic.Int64
	count   atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latencyBuckets) && s > latencyBuckets[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNs.Add(int64(d))
	h.count.Add(1)
}

// metrics holds the server's cumulative counters.
type metrics struct {
	requests atomic.Uint64 // HTTP requests served (all endpoints)
	queries  atomic.Uint64 // query/script evaluations attempted

	// Evaluation errors by class. Cancellations and limit trips get their
	// own counters because they are operational signals (load shedding,
	// guard tuning), not client mistakes. Client disconnects are split
	// from server-side cancellation: a bored client is not shed work, and
	// folding the two together makes the 503 counter useless for alerting.
	errCanceled   atomic.Uint64 // server deadline / budget expired (503)
	errClientGone atomic.Uint64 // client disconnected mid-evaluation (499)
	errLimit      atomic.Uint64 // resource guard tripped (422, retryable by tuning)
	errInvalid    atomic.Uint64 // parse/type/evaluation errors (422)

	// Admission control (see admission.go): requests admitted to run,
	// rejected at the door (429), and those that had to wait in the FIFO
	// queue first; admWait records time from arrival to admission.
	admAdmitted atomic.Uint64
	admRejected atomic.Uint64
	admQueued   atomic.Uint64
	admWait     histogram

	// admState snapshots the limiter's current occupancy (in-flight,
	// waiting, tenants); nil when admission control is off.
	admState func() (int, int, int)

	// Engine totals accumulated from each evaluation's RunStats.
	rounds      atomic.Uint64
	derived     atomic.Uint64
	solverSteps atomic.Uint64

	latency histogram

	// Materialized-view reads by how they were served, plus maintenance
	// failures. A high recompute share means views are being invalidated
	// (object writes, rule changes) faster than they pay off.
	viewCached     atomic.Uint64
	viewIncr       atomic.Uint64
	viewRecomputed atomic.Uint64
	viewErrors     atomic.Uint64

	// Subscription delivery: deltas pushed to clients by sign, plus
	// webhook-path loss/retry accounting. The authoritative per-DB
	// counters (active, dropped, resyncs) come from subStats — these
	// count what this server actually wrote to the wire.
	subDeltasPlus     atomic.Uint64
	subDeltasMinus    atomic.Uint64
	subSnapshots      atomic.Uint64
	subWebhookRetries atomic.Uint64
	subWebhookDropped atomic.Uint64

	// subStats reads the database's subscription totals; nil-safe like
	// planCache.
	subStats func() core.SubTotals

	// planCache reads the database's cross-query plan-cache counters (the
	// cache lives on core.DB, not here); nil-safe for tests constructing
	// bare metrics.
	planCache func() core.PlanCacheStats

	// backendStats reads the store's storage-backend counters (segment
	// files, block cache, flushes); nil-safe like planCache.
	backendStats func() store.BackendStats

	// Static-analysis diagnostics reported, keyed by code (VQL0001…).
	// The label set is open-ended, so this one counter is a guarded map
	// rather than an atomic; vet runs are rare next to queries, and the
	// lock is never held across an evaluation.
	vetMu    sync.Mutex
	vetDiags map[string]uint64
}

// recordVet accounts the diagnostics of one vet or lint run.
func (m *metrics) recordVet(ds []analyze.Diagnostic) {
	if len(ds) == 0 {
		return
	}
	m.vetMu.Lock()
	defer m.vetMu.Unlock()
	if m.vetDiags == nil {
		m.vetDiags = make(map[string]uint64)
	}
	for _, d := range ds {
		m.vetDiags[d.Code]++
	}
}

// vetSnapshot copies the per-code diagnostic counts.
func (m *metrics) vetSnapshot() map[string]uint64 {
	m.vetMu.Lock()
	defer m.vetMu.Unlock()
	out := make(map[string]uint64, len(m.vetDiags))
	for c, v := range m.vetDiags {
		out[c] = v
	}
	return out
}

// recordView accounts one successful view read by serving mode.
func (m *metrics) recordView(mode core.ViewMode) {
	switch mode {
	case core.ViewCached:
		m.viewCached.Add(1)
	case core.ViewIncremental:
		m.viewIncr.Add(1)
	default:
		m.viewRecomputed.Add(1)
	}
}

// recordSubEvent accounts one subscription event delivered to a client.
func (m *metrics) recordSubEvent(ev core.SubEvent) {
	switch {
	case ev.Kind == core.SubSnapshot:
		m.subSnapshots.Add(1)
	case ev.Sign >= 0:
		m.subDeltasPlus.Add(1)
	default:
		m.subDeltasMinus.Add(1)
	}
}

// isLimit reports whether an evaluation died on a resource guard.
func isLimit(err error) bool { return errors.Is(err, datalog.ErrLimitExceeded) }

// recordQuery accounts one evaluation: its latency always, its engine
// stats on success, its error class on failure. clientGone marks a
// cancellation whose cause was the client disconnecting (499), which
// must not count toward the server's shed-work (503) signal.
func (m *metrics) recordQuery(elapsed time.Duration, st *datalog.RunStats, err error, clientGone bool) {
	m.queries.Add(1)
	m.latency.observe(elapsed)
	if err != nil {
		switch {
		case clientGone:
			m.errClientGone.Add(1)
		case datalog.IsCanceled(err):
			m.errCanceled.Add(1)
		case isLimit(err):
			m.errLimit.Add(1)
		default:
			m.errInvalid.Add(1)
		}
		return
	}
	if st != nil {
		m.rounds.Add(uint64(st.Rounds))
		m.derived.Add(uint64(st.Derived))
		if st.SolverSteps > 0 {
			m.solverSteps.Add(uint64(st.SolverSteps))
		}
	}
}

// engineTotals is the cumulative-evaluation section of /v1/stats.
type engineTotals struct {
	Requests         uint64            `json:"httpRequests"`
	Queries          uint64            `json:"queries"`
	ErrorsCanceled   uint64            `json:"errorsCanceled"`
	ErrorsClientGone uint64            `json:"errorsClientGone"`
	ErrorsLimit      uint64            `json:"errorsLimit"`
	ErrorsInvalid    uint64            `json:"errorsInvalid"`
	Rounds           uint64            `json:"rounds"`
	Derived          uint64            `json:"derived"`
	SolverSteps      uint64            `json:"solverSteps"`
	ViewsCached      uint64            `json:"viewsCached"`
	ViewsIncr        uint64            `json:"viewsIncremental"`
	ViewsRecomp      uint64            `json:"viewsRecomputed"`
	ViewErrors       uint64            `json:"viewErrors"`
	VetDiagnostics   map[string]uint64 `json:"vetDiagnostics,omitempty"`

	Subscriptions core.SubTotals `json:"subscriptions"`

	// Wire-level subscription delivery: events actually written to
	// clients (SSE/webhook), as opposed to Subscriptions' queued view.
	SubWireSnapshots   uint64 `json:"subWireSnapshots"`
	SubWireDeltasPlus  uint64 `json:"subWireDeltasPlus"`
	SubWireDeltasMinus uint64 `json:"subWireDeltasMinus"`
	SubWebhookRetries  uint64 `json:"subWebhookRetries"`
	SubWebhookDropped  uint64 `json:"subWebhookDropped"`

	// Admission control (zero when the limiter is off).
	AdmissionAdmitted uint64 `json:"admissionAdmitted"`
	AdmissionRejected uint64 `json:"admissionRejected"`
	AdmissionQueued   uint64 `json:"admissionQueued"`

	PlanCache    core.PlanCacheStats `json:"planCache"`
	InternValues int                 `json:"internValues"` // process-wide value-interner size
}

func (m *metrics) totals() engineTotals {
	var pcs core.PlanCacheStats
	if m.planCache != nil {
		pcs = m.planCache()
	}
	var sub core.SubTotals
	if m.subStats != nil {
		sub = m.subStats()
	}
	return engineTotals{
		PlanCache:     pcs,
		InternValues:  datalog.InternStats().Values,
		Subscriptions: sub,

		SubWireSnapshots:   m.subSnapshots.Load(),
		SubWireDeltasPlus:  m.subDeltasPlus.Load(),
		SubWireDeltasMinus: m.subDeltasMinus.Load(),
		SubWebhookRetries:  m.subWebhookRetries.Load(),
		SubWebhookDropped:  m.subWebhookDropped.Load(),

		AdmissionAdmitted: m.admAdmitted.Load(),
		AdmissionRejected: m.admRejected.Load(),
		AdmissionQueued:   m.admQueued.Load(),

		Requests:         m.requests.Load(),
		Queries:          m.queries.Load(),
		ErrorsCanceled:   m.errCanceled.Load(),
		ErrorsClientGone: m.errClientGone.Load(),
		ErrorsLimit:      m.errLimit.Load(),
		ErrorsInvalid:    m.errInvalid.Load(),
		Rounds:           m.rounds.Load(),
		Derived:          m.derived.Load(),
		SolverSteps:      m.solverSteps.Load(),
		ViewsCached:      m.viewCached.Load(),
		ViewsIncr:        m.viewIncr.Load(),
		ViewsRecomp:      m.viewRecomputed.Load(),
		ViewErrors:       m.viewErrors.Load(),
		VetDiagnostics:   m.vetSnapshot(),
	}
}

// writeProm renders the Prometheus text exposition (format 0.0.4).
func (m *metrics) writeProm(b *bytes.Buffer, uptime time.Duration) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	// histo renders one fixed-bucket histogram (buckets are stored
	// per-bucket; Prometheus wants cumulative).
	histo := func(name, help string, h *histogram) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		var cum uint64
		for i, le := range latencyBuckets {
			cum += h.buckets[i].Load()
			fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, le, cum)
		}
		cum += h.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(b, "%s_sum %g\n", name, float64(h.sumNs.Load())/1e9)
		fmt.Fprintf(b, "%s_count %d\n", name, h.count.Load())
	}

	counter("videodb_http_requests_total", "HTTP requests served.", m.requests.Load())
	counter("videodb_queries_total", "Query and script evaluations attempted.", m.queries.Load())

	fmt.Fprintf(b, "# HELP videodb_query_errors_total Failed evaluations by class.\n")
	fmt.Fprintf(b, "# TYPE videodb_query_errors_total counter\n")
	fmt.Fprintf(b, "videodb_query_errors_total{class=\"canceled\"} %d\n", m.errCanceled.Load())
	fmt.Fprintf(b, "videodb_query_errors_total{class=\"client_gone\"} %d\n", m.errClientGone.Load())
	fmt.Fprintf(b, "videodb_query_errors_total{class=\"limit\"} %d\n", m.errLimit.Load())
	fmt.Fprintf(b, "videodb_query_errors_total{class=\"invalid\"} %d\n", m.errInvalid.Load())

	counter("videodb_query_cancellations_total",
		"Evaluations shed by the server's deadline or budget (client disconnects excluded).", m.errCanceled.Load())
	counter("videodb_query_limit_trips_total",
		"Evaluations stopped by a resource guard (rounds, derived, solver budget).", m.errLimit.Load())

	counter("videodb_admission_admitted_total",
		"Requests admitted to evaluate (immediately or after queueing).", m.admAdmitted.Load())
	counter("videodb_admission_rejected_total",
		"Requests refused with 429 because the wait queue was full.", m.admRejected.Load())
	counter("videodb_admission_queued_total",
		"Admitted or abandoned requests that had to wait for a slot.", m.admQueued.Load())
	if m.admState != nil {
		inFlight, waiting, tenants := m.admState()
		gauge("videodb_admission_in_flight", "Evaluations currently holding an admission slot.", float64(inFlight))
		gauge("videodb_admission_waiting", "Requests currently queued for a slot.", float64(waiting))
		gauge("videodb_admission_tenants", "Tenant classes with live admission state.", float64(tenants))
	}

	counter("videodb_engine_rounds_total", "Fixpoint rounds across all evaluations.", m.rounds.Load())
	counter("videodb_engine_derived_total", "Derived tuples across all evaluations.", m.derived.Load())
	counter("videodb_engine_solver_steps_total", "Constraint-solver steps across all evaluations.", m.solverSteps.Load())

	fmt.Fprintf(b, "# HELP videodb_view_maintenance_total Materialized-view reads by serving mode.\n")
	fmt.Fprintf(b, "# TYPE videodb_view_maintenance_total counter\n")
	fmt.Fprintf(b, "videodb_view_maintenance_total{mode=\"cached\"} %d\n", m.viewCached.Load())
	fmt.Fprintf(b, "videodb_view_maintenance_total{mode=\"incremental\"} %d\n", m.viewIncr.Load())
	fmt.Fprintf(b, "videodb_view_maintenance_total{mode=\"recompute\"} %d\n", m.viewRecomputed.Load())
	counter("videodb_view_errors_total",
		"Materialized-view builds or reads that failed (cancellation included).", m.viewErrors.Load())

	if m.subStats != nil {
		sub := m.subStats()
		gauge("videodb_subscriptions_active", "Standing queries currently registered.", float64(sub.Active))
		fmt.Fprintf(b, "# HELP videodb_sub_deltas_total Answer deltas queued to subscribers, by sign.\n")
		fmt.Fprintf(b, "# TYPE videodb_sub_deltas_total counter\n")
		fmt.Fprintf(b, "videodb_sub_deltas_total{sign=\"+\"} %d\n", sub.DeltasPlus)
		fmt.Fprintf(b, "videodb_sub_deltas_total{sign=\"-\"} %d\n", sub.DeltasMinus)
		counter("videodb_sub_dropped_total",
			"Queued deltas dropped on slow consumers (resynced or disconnected).", sub.Dropped)
		counter("videodb_sub_resyncs_total",
			"Snapshot resyncs sent after a dropped backlog.", sub.Resyncs)
		counter("videodb_sub_webhook_retries_total",
			"Webhook delivery attempts that failed and were retried.", m.subWebhookRetries.Load())
		counter("videodb_sub_webhook_dropped_total",
			"Events abandoned after exhausting webhook retries.", m.subWebhookDropped.Load())
	}

	fmt.Fprintf(b, "# HELP videodb_sub_wire_events_total Subscription events written to clients, by kind.\n")
	fmt.Fprintf(b, "# TYPE videodb_sub_wire_events_total counter\n")
	fmt.Fprintf(b, "videodb_sub_wire_events_total{kind=\"snapshot\"} %d\n", m.subSnapshots.Load())
	fmt.Fprintf(b, "videodb_sub_wire_events_total{kind=\"delta_plus\"} %d\n", m.subDeltasPlus.Load())
	fmt.Fprintf(b, "videodb_sub_wire_events_total{kind=\"delta_minus\"} %d\n", m.subDeltasMinus.Load())

	fmt.Fprintf(b, "# HELP videodb_vet_diagnostics_total Static-analysis diagnostics reported, by code.\n")
	fmt.Fprintf(b, "# TYPE videodb_vet_diagnostics_total counter\n")
	vet := m.vetSnapshot()
	codes := make([]string, 0, len(vet))
	for c := range vet {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(b, "videodb_vet_diagnostics_total{code=%q} %d\n", c, vet[c])
	}

	var pcs core.PlanCacheStats
	if m.planCache != nil {
		pcs = m.planCache()
	}
	counter("videodb_plan_cache_hits_total", "Cross-query plan-cache hits.", pcs.Hits)
	counter("videodb_plan_cache_misses_total", "Cross-query plan-cache misses.", pcs.Misses)
	counter("videodb_plan_cache_evictions_total", "Cross-query plan-cache LRU evictions.", pcs.Evictions)
	gauge("videodb_plan_cache_entries", "Compiled programs currently cached.", float64(pcs.Entries))
	gauge("videodb_intern_table_values", "Distinct values in the process-wide row-key interner.", float64(datalog.InternStats().Values))

	if m.backendStats != nil {
		bs := m.backendStats()
		fmt.Fprintf(b, "# HELP videodb_store_backend Storage backend serving this database (1 = active).\n")
		fmt.Fprintf(b, "# TYPE videodb_store_backend gauge\n")
		fmt.Fprintf(b, "videodb_store_backend{kind=%q} 1\n", bs.Kind)
		if bs.Kind == "segment" {
			gauge("videodb_segment_files", "Immutable segment files in the active manifest.", float64(bs.Segments))
			gauge("videodb_segment_facts", "Fact records resident in segment files (pre-tombstone).", float64(bs.SegmentFacts))
			gauge("videodb_segment_tombstones", "Tombstones resident in segment files.", float64(bs.Tombstones))
			gauge("videodb_segment_memtable_facts", "Adds and deletes buffered since the last flush.", float64(bs.MemtableFacts))
			gauge("videodb_segment_dict_values", "On-disk dictionary entries across segment files.", float64(bs.DictValues))
			counter("videodb_segment_flushes_total", "Memtable flushes since this backend opened.", bs.Flushes)
			counter("videodb_segment_compactions_total", "Full-merge compactions since this backend opened.", bs.Compactions)
			counter("videodb_segment_read_errors_total", "Block or dictionary reads that failed checksum or I/O.", bs.ReadErrors)
			counter("videodb_block_cache_hits_total", "Block-cache hits since this backend opened.", bs.CacheHits)
			counter("videodb_block_cache_misses_total", "Block-cache misses since this backend opened.", bs.CacheMisses)
			counter("videodb_block_cache_evictions_total", "Block-cache evictions since this backend opened.", bs.CacheEvictions)
			gauge("videodb_block_cache_bytes", "Decoded bytes currently held by the block cache.", float64(bs.CacheBytes))
			gauge("videodb_block_cache_budget_bytes", "Configured block-cache byte budget.", float64(bs.CacheBudget))
			gauge("videodb_block_cache_blocks", "Decoded blocks currently cached.", float64(bs.CachedBlocks))
		}
	}

	histo("videodb_query_duration_seconds", "Evaluation latency.", &m.latency)
	histo("videodb_admission_queue_wait_seconds",
		"Time from request arrival to admission (0 when a slot was free).", &m.admWait)

	gauge("videodb_uptime_seconds", "Seconds since the server was created.", uptime.Seconds())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET")
		return
	}
	var b bytes.Buffer
	s.metrics.writeProm(&b, time.Since(s.start))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}

// --- Request logging and slow queries ---------------------------------------------

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// statusWriter must keep forwarding Flush: it wraps every response, and
// the SSE endpoint flushes per event — a wrapper that silently drops the
// Flusher interface would buffer deltas until the connection dies.
var _ http.Flusher = (*statusWriter)(nil)

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer's Flusher when it has one, so
// streaming responses pass through the logging middleware unbuffered.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer, the convention used by
// http.ResponseController to find optional interfaces through wrappers.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// WithAccessLog logs every request (method, path, status, latency) to l;
// nil means log.Default().
func WithAccessLog(l *log.Logger) Option {
	return func(s *Server) {
		if l == nil {
			l = log.Default()
		}
		s.accessLog = l
	}
}

// WithSlowQueryLog logs any query or script evaluation that takes at
// least threshold to l (nil means log.Default()), with its source text
// and round/derived counts. threshold <= 0 disables the log.
func WithSlowQueryLog(threshold time.Duration, l *log.Logger) Option {
	return func(s *Server) {
		if l == nil {
			l = log.Default()
		}
		s.slowThreshold = threshold
		s.slowLog = l
	}
}

// WithPprof serves net/http/pprof profiles under /debug/pprof/. Off by
// default: profiling endpoints do not belong on an exposed listener.
func WithPprof() Option { return func(s *Server) { s.pprofOn = true } }

func (s *Server) registerPprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// logSlow writes one slow-query log line when the evaluation crossed the
// configured threshold. Failed evaluations log too — a query that dies at
// its deadline is exactly what the slow log is for.
func (s *Server) logSlow(kind, src string, elapsed time.Duration, st *datalog.RunStats, err error) {
	if s.slowLog == nil || s.slowThreshold <= 0 || elapsed < s.slowThreshold {
		return
	}
	if len(src) > 200 {
		src = src[:200] + "…"
	}
	switch {
	case err != nil:
		s.slowLog.Printf("slow %s (%v): %q error: %v", kind, elapsed.Round(time.Microsecond), src, err)
	case st != nil:
		s.slowLog.Printf("slow %s (%v): %q rounds=%d derived=%d solverSteps=%d",
			kind, elapsed.Round(time.Microsecond), src, st.Rounds, st.Derived, st.SolverSteps)
	default:
		s.slowLog.Printf("slow %s (%v): %q", kind, elapsed.Round(time.Microsecond), src)
	}
}
