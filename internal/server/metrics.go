package server

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"videodb/internal/core"
	"videodb/internal/datalog"
	"videodb/internal/datalog/analyze"
)

// Observability: cumulative counters for every evaluation the server
// runs, plus a request log and a slow-query log. The server builds one
// stats snapshot (StatsResponse): GET /v1/stats returns it as JSON and
// GET /metrics renders it in Prometheus text exposition format (0.0.4)
// through promTable, followed by the two latency histograms and uptime.
// The recording path is atomics only: a handful of uncontended Add
// calls per request, so observability never serializes queries.

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

// write renders the histogram with cumulative buckets, as Prometheus
// expects.
func (h *histogram) write(b *bytes.Buffer, name, help string) {
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

// metrics holds the server's cumulative counters. Every atomic counter
// here is copied into the stats snapshot by fill and exposed by
// promTable.
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
	// counters (active, dropped, resyncs) are the database's
	// core.SubTotals; these count what this server actually wrote to the
	// wire.
	subDeltasPlus     atomic.Uint64
	subDeltasMinus    atomic.Uint64
	subSnapshots      atomic.Uint64
	subWebhookRetries atomic.Uint64
	subWebhookDropped atomic.Uint64

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

// snapshot builds the server's one stats snapshot: GET /v1/stats
// returns it and GET /metrics renders it.
func (s *Server) snapshot() StatsResponse {
	s.mu.RLock()
	snap := StatsResponse{
		Stats:         s.db.Store().Stats(),
		PlanCache:     s.db.PlanCacheStats(),
		Backend:       s.db.Store().BackendStats(),
		Subscriptions: s.db.SubscriptionStats(),
	}
	s.mu.RUnlock()
	if a := s.admission; a != nil {
		snap.Admission = AdmissionStats{
			Enabled:       true,
			MaxConcurrent: a.cfg.MaxConcurrent,
			QueueDepth:    a.cfg.QueueDepth,
			PerTenant:     a.cfg.PerTenant,
		}
		snap.Admission.InFlight, snap.Admission.Waiting, snap.Admission.Tenants = a.occupancy()
	}
	snap.Intern.Values = datalog.InternStats().Values
	snap.Uptime = time.Since(s.start).Seconds()
	s.metrics.fill(&snap)
	return snap
}

// fill copies the counters into snap: the engine section, which repeats
// snap's plan-cache, subscription and interner sections, and the
// admission counts (kept even when the limiter is off).
func (m *metrics) fill(snap *StatsResponse) {
	snap.Engine = engineTotals{
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

		Subscriptions: snap.Subscriptions,

		SubWireSnapshots:   m.subSnapshots.Load(),
		SubWireDeltasPlus:  m.subDeltasPlus.Load(),
		SubWireDeltasMinus: m.subDeltasMinus.Load(),
		SubWebhookRetries:  m.subWebhookRetries.Load(),
		SubWebhookDropped:  m.subWebhookDropped.Load(),

		AdmissionAdmitted: m.admAdmitted.Load(),
		AdmissionRejected: m.admRejected.Load(),
		AdmissionQueued:   m.admQueued.Load(),

		PlanCache:    snap.PlanCache,
		InternValues: snap.Intern.Values,
	}
	snap.Admission.Admitted = snap.Engine.AdmissionAdmitted
	snap.Admission.Rejected = snap.Engine.AdmissionRejected
	snap.Admission.Queued = snap.Engine.AdmissionQueued
}

// promRow is one metric family of the exposition: its name, type and
// help text, an optional label, an optional condition, and a reader
// over the stats snapshot that yields its samples.
type promRow struct {
	name, typ, help string
	label           string                    // label of a family of samples; "" for one sample
	on              func(*StatsResponse) bool // nil: always exposed
	read            func(*StatsResponse) []sample
}

// sample is one exposed value, already formatted: counters as integers,
// gauges with %g.
type sample struct{ label, value string }

// counter and gauge declare a one-sample row; family declares a
// labelled one. when adds a condition.
func counter(name, help string, v func(*StatsResponse) uint64) promRow {
	return promRow{name: name, typ: "counter", help: help,
		read: func(s *StatsResponse) []sample { return []sample{{value: count(v(s))}} }}
}

func gauge(name, help string, v func(*StatsResponse) float64) promRow {
	return promRow{name: name, typ: "gauge", help: help,
		read: func(s *StatsResponse) []sample { return []sample{{value: level(v(s))}} }}
}

func family(name, typ, help, label string, read func(*StatsResponse) []sample) promRow {
	return promRow{name: name, typ: typ, help: help, label: label, read: read}
}

func (r promRow) when(on func(*StatsResponse) bool) promRow { r.on = on; return r }

func count(v uint64) string  { return strconv.FormatUint(v, 10) }
func level(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func admissionOn(s *StatsResponse) bool    { return s.Admission.Enabled }
func segmentBackend(s *StatsResponse) bool { return s.Backend.Kind == "segment" }

// promTable is the exposition, in order. Each row reads the snapshot
// that /v1/stats returns, so the two surfaces cannot drift apart.
var promTable = []promRow{
	counter("videodb_http_requests_total", "HTTP requests served.",
		func(s *StatsResponse) uint64 { return s.Engine.Requests }),
	counter("videodb_queries_total", "Query and script evaluations attempted.",
		func(s *StatsResponse) uint64 { return s.Engine.Queries }),
	family("videodb_query_errors_total", "counter", "Failed evaluations by class.", "class",
		func(s *StatsResponse) []sample {
			return []sample{{"canceled", count(s.Engine.ErrorsCanceled)}, {"client_gone", count(s.Engine.ErrorsClientGone)},
				{"limit", count(s.Engine.ErrorsLimit)}, {"invalid", count(s.Engine.ErrorsInvalid)}}
		}),
	counter("videodb_query_cancellations_total",
		"Evaluations shed by the server's deadline or budget (client disconnects excluded).",
		func(s *StatsResponse) uint64 { return s.Engine.ErrorsCanceled }),
	counter("videodb_query_limit_trips_total",
		"Evaluations stopped by a resource guard (rounds, derived, solver budget).",
		func(s *StatsResponse) uint64 { return s.Engine.ErrorsLimit }),

	counter("videodb_admission_admitted_total", "Requests admitted to evaluate (immediately or after queueing).",
		func(s *StatsResponse) uint64 { return s.Engine.AdmissionAdmitted }),
	counter("videodb_admission_rejected_total", "Requests refused with 429 because the wait queue was full.",
		func(s *StatsResponse) uint64 { return s.Engine.AdmissionRejected }),
	counter("videodb_admission_queued_total", "Admitted or abandoned requests that had to wait for a slot.",
		func(s *StatsResponse) uint64 { return s.Engine.AdmissionQueued }),
	gauge("videodb_admission_in_flight", "Evaluations currently holding an admission slot.",
		func(s *StatsResponse) float64 { return float64(s.Admission.InFlight) }).when(admissionOn),
	gauge("videodb_admission_waiting", "Requests currently queued for a slot.",
		func(s *StatsResponse) float64 { return float64(s.Admission.Waiting) }).when(admissionOn),
	gauge("videodb_admission_tenants", "Tenant classes with live admission state.",
		func(s *StatsResponse) float64 { return float64(s.Admission.Tenants) }).when(admissionOn),

	counter("videodb_engine_rounds_total", "Fixpoint rounds across all evaluations.",
		func(s *StatsResponse) uint64 { return s.Engine.Rounds }),
	counter("videodb_engine_derived_total", "Derived tuples across all evaluations.",
		func(s *StatsResponse) uint64 { return s.Engine.Derived }),
	counter("videodb_engine_solver_steps_total", "Constraint-solver steps across all evaluations.",
		func(s *StatsResponse) uint64 { return s.Engine.SolverSteps }),

	family("videodb_view_maintenance_total", "counter", "Materialized-view reads by serving mode.", "mode",
		func(s *StatsResponse) []sample {
			return []sample{{"cached", count(s.Engine.ViewsCached)}, {"incremental", count(s.Engine.ViewsIncr)},
				{"recompute", count(s.Engine.ViewsRecomp)}}
		}),
	counter("videodb_view_errors_total", "Materialized-view builds or reads that failed (cancellation included).",
		func(s *StatsResponse) uint64 { return s.Engine.ViewErrors }),

	gauge("videodb_subscriptions_active", "Standing queries currently registered.",
		func(s *StatsResponse) float64 { return float64(s.Subscriptions.Active) }),
	family("videodb_sub_deltas_total", "counter", "Answer deltas queued to subscribers, by sign.", "sign",
		func(s *StatsResponse) []sample {
			return []sample{{"+", count(s.Subscriptions.DeltasPlus)}, {"-", count(s.Subscriptions.DeltasMinus)}}
		}),
	counter("videodb_sub_dropped_total", "Queued deltas dropped on slow consumers (resynced or disconnected).",
		func(s *StatsResponse) uint64 { return s.Subscriptions.Dropped }),
	counter("videodb_sub_resyncs_total", "Snapshot resyncs sent after a dropped backlog.",
		func(s *StatsResponse) uint64 { return s.Subscriptions.Resyncs }),
	counter("videodb_sub_webhook_retries_total", "Webhook delivery attempts that failed and were retried.",
		func(s *StatsResponse) uint64 { return s.Engine.SubWebhookRetries }),
	counter("videodb_sub_webhook_dropped_total", "Events abandoned after exhausting webhook retries.",
		func(s *StatsResponse) uint64 { return s.Engine.SubWebhookDropped }),
	family("videodb_sub_wire_events_total", "counter", "Subscription events written to clients, by kind.", "kind",
		func(s *StatsResponse) []sample {
			return []sample{{"snapshot", count(s.Engine.SubWireSnapshots)},
				{"delta_plus", count(s.Engine.SubWireDeltasPlus)}, {"delta_minus", count(s.Engine.SubWireDeltasMinus)}}
		}),

	family("videodb_vet_diagnostics_total", "counter", "Static-analysis diagnostics reported, by code.", "code",
		func(s *StatsResponse) []sample {
			out := make([]sample, 0, len(s.Engine.VetDiagnostics))
			for c, n := range s.Engine.VetDiagnostics {
				out = append(out, sample{c, count(n)})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
			return out
		}),

	counter("videodb_plan_cache_hits_total", "Cross-query plan-cache hits.",
		func(s *StatsResponse) uint64 { return s.PlanCache.Hits }),
	counter("videodb_plan_cache_misses_total", "Cross-query plan-cache misses.",
		func(s *StatsResponse) uint64 { return s.PlanCache.Misses }),
	counter("videodb_plan_cache_evictions_total", "Cross-query plan-cache LRU evictions.",
		func(s *StatsResponse) uint64 { return s.PlanCache.Evictions }),
	gauge("videodb_plan_cache_entries", "Compiled programs currently cached.",
		func(s *StatsResponse) float64 { return float64(s.PlanCache.Entries) }),
	gauge("videodb_intern_table_values", "Distinct values in the process-wide row-key interner.",
		func(s *StatsResponse) float64 { return float64(s.Intern.Values) }),

	family("videodb_store_backend", "gauge", "Storage backend serving this database (1 = active).", "kind",
		func(s *StatsResponse) []sample { return []sample{{s.Backend.Kind, "1"}} }),
	gauge("videodb_segment_files", "Immutable segment files in the active manifest.",
		func(s *StatsResponse) float64 { return float64(s.Backend.Segments) }).when(segmentBackend),
	gauge("videodb_segment_facts", "Fact records resident in segment files (pre-tombstone).",
		func(s *StatsResponse) float64 { return float64(s.Backend.SegmentFacts) }).when(segmentBackend),
	gauge("videodb_segment_tombstones", "Tombstones resident in segment files.",
		func(s *StatsResponse) float64 { return float64(s.Backend.Tombstones) }).when(segmentBackend),
	gauge("videodb_segment_memtable_facts", "Adds and deletes buffered since the last flush.",
		func(s *StatsResponse) float64 { return float64(s.Backend.MemtableFacts) }).when(segmentBackend),
	gauge("videodb_segment_dict_values", "On-disk dictionary entries across segment files.",
		func(s *StatsResponse) float64 { return float64(s.Backend.DictValues) }).when(segmentBackend),
	counter("videodb_segment_flushes_total", "Memtable flushes since this backend opened.",
		func(s *StatsResponse) uint64 { return s.Backend.Flushes }).when(segmentBackend),
	counter("videodb_segment_compactions_total", "Full-merge compactions since this backend opened.",
		func(s *StatsResponse) uint64 { return s.Backend.Compactions }).when(segmentBackend),
	counter("videodb_segment_read_errors_total", "Block or dictionary reads that failed checksum or I/O.",
		func(s *StatsResponse) uint64 { return s.Backend.ReadErrors }).when(segmentBackend),
	counter("videodb_block_cache_hits_total", "Block-cache hits since this backend opened.",
		func(s *StatsResponse) uint64 { return s.Backend.CacheHits }).when(segmentBackend),
	counter("videodb_block_cache_misses_total", "Block-cache misses since this backend opened.",
		func(s *StatsResponse) uint64 { return s.Backend.CacheMisses }).when(segmentBackend),
	counter("videodb_block_cache_evictions_total", "Block-cache evictions since this backend opened.",
		func(s *StatsResponse) uint64 { return s.Backend.CacheEvictions }).when(segmentBackend),
	gauge("videodb_block_cache_bytes", "Decoded bytes currently held by the block cache.",
		func(s *StatsResponse) float64 { return float64(s.Backend.CacheBytes) }).when(segmentBackend),
	gauge("videodb_block_cache_budget_bytes", "Configured block-cache byte budget.",
		func(s *StatsResponse) float64 { return float64(s.Backend.CacheBudget) }).when(segmentBackend),
	gauge("videodb_block_cache_blocks", "Decoded blocks currently cached.",
		func(s *StatsResponse) float64 { return float64(s.Backend.CachedBlocks) }).when(segmentBackend),
}

// uptimeRow follows the histograms, closing the exposition.
var uptimeRow = gauge("videodb_uptime_seconds", "Seconds since the server was created.",
	func(s *StatsResponse) float64 { return s.Uptime })

func (r promRow) write(b *bytes.Buffer, s *StatsResponse) {
	if r.on != nil && !r.on(s) {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", r.name, r.help, r.name, r.typ)
	for _, x := range r.read(s) {
		b.WriteString(r.name)
		if r.label != "" {
			fmt.Fprintf(b, "{%s=%q}", r.label, x.label)
		}
		b.WriteByte(' ')
		b.WriteString(x.value)
		b.WriteByte('\n')
	}
}

// writeProm renders snap, then the two latency histograms and uptime, in
// Prometheus text exposition format (0.0.4).
func (m *metrics) writeProm(b *bytes.Buffer, snap *StatsResponse) {
	for _, r := range promTable {
		r.write(b, snap)
	}
	m.latency.write(b, "videodb_query_duration_seconds", "Evaluation latency.")
	m.admWait.write(b, "videodb_admission_queue_wait_seconds",
		"Time from request arrival to admission (0 when a slot was free).")
	uptimeRow.write(b, snap)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET")
		return
	}
	snap := s.snapshot()
	var b bytes.Buffer
	s.metrics.writeProm(&b, &snap)
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
