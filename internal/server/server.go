// Package server exposes a video database over HTTP with a small JSON
// API — the "openness to the external world" the paper counts among the
// advantages of building video archives on database technology
// (Section 1). The handler wraps a core.DB; queries run concurrently,
// while statements that change the rule program or the stored data are
// serialized.
//
// Endpoints:
//
//	POST /v1/query    {"query": "?- Interval(G), o1 in G.entities."}
//	POST /v1/explain  {"query": "…"}
//	POST /v1/script   {"script": "interval gi1 { … }. fact(a,b)."}
//	POST /v1/vet      {"script": "…"} — static analysis, no evaluation
//	POST /v1/rules    {"rule": "q(G) :- Interval(G)."}
//	GET  /v1/rules
//	POST /v1/views    {"name": "n", "goal": "?- reach(X, Y)"}
//	GET  /v1/views
//	GET  /v1/views/{name}
//	DELETE /v1/views/{name}
//	GET  /v1/objects
//	GET  /v1/objects/{oid}
//	GET  /v1/subscribe?goal=…        — SSE stream of answer deltas
//	POST /v1/subscribe               — webhook delivery registration
//	DELETE /v1/subscribe/{id}
//	GET  /v1/subscriptions
//	GET  /v1/stats
//	GET  /metrics
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"videodb/internal/core"
	"videodb/internal/datalog"
	"videodb/internal/datalog/analyze"
	"videodb/internal/object"
	"videodb/internal/store"
)

// MaxRequestBytes bounds request bodies (scripts included).
const MaxRequestBytes = 8 << 20

// Server is an http.Handler serving a video database.
type Server struct {
	mu           sync.RWMutex
	db           *core.DB
	mux          *http.ServeMux
	queryTimeout time.Duration // 0 = no per-request deadline

	start         time.Time
	metrics       *metrics
	accessLog     *log.Logger   // nil = no request log
	slowLog       *log.Logger   // nil = no slow-query log
	slowThreshold time.Duration // <= 0 disables the slow-query log
	pprofOn       bool

	// Admission control for evaluation endpoints (see admission.go);
	// nil = unlimited.
	admission *admission

	// Live subscription sessions (see subscribe.go).
	subs     serverSubs
	subGrace time.Duration // detached-SSE resume window; 0 = default

	// lifeCtx is the server's lifecycle: background delivery loops
	// (webhook pumps) block on it and Close cancels it, so no pump can
	// outlive the server even if its subscription is slow to close.
	//videolint:ignore ctxcheck lifecycle root stored once at construction; cancelled by Close — the http.Server.BaseContext pattern, not a request context
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
}

// Option configures a Server.
type Option func(*Server)

// WithQueryTimeout bounds each query, explain, and script evaluation by d
// (0 disables the bound). Requests that exceed it are cancelled
// mid-fixpoint and answered with 503, and the connection's own context
// still applies: a client that disconnects cancels its query either way.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) { s.queryTimeout = d }
}

// New wraps the database in an HTTP handler.
func New(db *core.DB, opts ...Option) *Server {
	s := &Server{db: db, mux: http.NewServeMux(), start: time.Now(), metrics: &metrics{}}
	//videolint:ignore ctxcheck server lifecycle root, not a request path: Close cancels it
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())
	s.metrics.planCache = func() core.PlanCacheStats {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.db.PlanCacheStats()
	}
	s.metrics.backendStats = func() store.BackendStats {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.db.Store().BackendStats()
	}
	s.metrics.subStats = func() core.SubTotals {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.db.SubscriptionStats()
	}
	for _, o := range opts {
		o(s)
	}
	if s.admission != nil {
		s.metrics.admState = s.admission.occupancy
	}
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/explain", s.handleExplain)
	s.mux.HandleFunc("/v1/script", s.handleScript)
	s.mux.HandleFunc("/v1/vet", s.handleVet)
	s.mux.HandleFunc("/v1/rules", s.handleRules)
	s.mux.HandleFunc("/v1/objects", s.handleObjects)
	s.mux.HandleFunc("/v1/objects/", s.handleObject)
	s.mux.HandleFunc("/v1/views", s.handleViews)
	s.mux.HandleFunc("/v1/views/", s.handleView)
	s.mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	s.mux.HandleFunc("/v1/subscribe/", s.handleSubscribeItem)
	s.mux.HandleFunc("/v1/subscriptions", s.handleSubscriptions)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if s.pprofOn {
		s.registerPprof()
	}
	return s
}

// requestCtx derives the evaluation context for one request: the
// request's own context (cancelled when the client disconnects) plus the
// configured per-query deadline. Streaming endpoints are exempt from the
// deadline — a standing subscription is supposed to outlive any single
// evaluation; its per-delta maintenance passes are bounded separately
// (SubOptions.RefreshBudget carries the same timeout).
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.queryTimeout <= 0 || isStreamingPath(r.URL.Path) {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.queryTimeout)
}

// isStreamingPath reports whether the endpoint holds its connection open
// indefinitely by design.
func isStreamingPath(p string) bool {
	return p == "/v1/subscribe" || strings.HasPrefix(p, "/v1/subscribe/")
}

// statusClientGone is the status recorded when the client abandoned the
// request before a response was produced (the nginx 499 convention).
// Nobody receives it — the connection is gone — but metrics and the
// access log must not confuse a bored client with a shed query.
const statusClientGone = 499

// statusFor maps evaluation errors to HTTP statuses. Cancellation
// splits on who gave up: if the request's own context is dead the
// *client* walked away (499 — not the server's failure, not counted as
// shed work), otherwise the server's deadline or budget expired after
// accepting the work (503 — genuinely shed). Everything else is the
// client's query (422). Note the check is against r.Context(), not the
// derived evaluation context: the per-query timeout cancels the derived
// context while the request's own stays alive.
func statusFor(r *http.Request, err error) int {
	if datalog.IsCanceled(err) {
		if r.Context().Err() != nil {
			return statusClientGone
		}
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// ServeHTTP implements http.Handler. Every request passes through the
// logging middleware: the response status is captured, the request
// counter bumped, and — when an access log is configured — one line
// written per request with its latency. A handler that panics is logged
// as 500 (and answered with one when nothing was written yet), then the
// panic continues to net/http, which owns stack logging and connection
// teardown.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	began := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	defer func() {
		rec := recover()
		if rec != nil && rec != http.ErrAbortHandler && sw.status == 0 {
			writeError(sw, http.StatusInternalServerError, fmt.Errorf("internal error"))
		}
		s.metrics.requests.Add(1)
		if s.accessLog != nil {
			status := sw.status
			if status == 0 {
				// Nothing was written. That is an implicit 200 only when the
				// client was still there to receive one; a request whose
				// context died went out as a cut connection.
				status = http.StatusOK
				if r.Context().Err() != nil {
					status = statusClientGone
				}
			}
			s.accessLog.Printf("%s %s %d %v", r.Method, r.URL.Path, status,
				time.Since(began).Round(time.Microsecond))
		}
		if rec != nil {
			panic(rec)
		}
	}()
	s.mux.ServeHTTP(sw, r)
}

// --- Wire types -----------------------------------------------------------------

type queryRequest struct {
	Query   string `json:"query"`
	Profile bool   `json:"profile,omitempty"` // run with the engine profiler on
	Lint    bool   `json:"lint,omitempty"`    // attach non-fatal vet diagnostics
}

type scriptRequest struct {
	Script string `json:"script"`
}

type ruleRequest struct {
	Rule string `json:"rule"`
}

// ResultJSON is the wire form of one query result.
type ResultJSON struct {
	Columns     []string             `json:"columns"`
	Rows        [][]object.Value     `json:"rows"`
	Created     []*object.Object     `json:"created,omitempty"`
	Stats       statsJSON            `json:"stats"`
	Profile     *datalog.Profile     `json:"profile,omitempty"`     // present when requested
	Diagnostics []analyze.Diagnostic `json:"diagnostics,omitempty"` // present with {"lint": true}
}

type statsJSON struct {
	Rounds         int   `json:"rounds"`
	Derived        int   `json:"derived"`
	CreatedObjects int   `json:"createdObjects"`
	SolverSteps    int64 `json:"solverSteps,omitempty"`
}

// newStatsJSON is the wire form of a run's counters, shared by query,
// script and view responses.
func newStatsJSON(st datalog.RunStats) statsJSON {
	return statsJSON{
		Rounds:         st.Rounds,
		Derived:        st.Derived,
		CreatedObjects: st.Created,
		SolverSteps:    st.SolverSteps,
	}
}

func resultJSON(rs *core.ResultSet) ResultJSON {
	out := ResultJSON{
		Columns: rs.Columns,
		Rows:    rs.Rows,
		Created: rs.Created,
		Stats:   newStatsJSON(rs.Stats),
		Profile: rs.Profile,
	}
	if out.Columns == nil {
		out.Columns = []string{} // ground queries have no variables
	}
	if out.Rows == nil {
		out.Rows = [][]object.Value{}
	}
	return out
}

type errorJSON struct {
	Error string `json:"error"`
}

// --- Handlers -------------------------------------------------------------------

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.post(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing query"))
		return
	}
	// Admission comes after the body is consumed: net/http only watches
	// for client disconnects once the body is read, and a queued waiter
	// must notice its client leaving.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	began := time.Now()
	s.mu.RLock()
	var rs *core.ResultSet
	var err error
	if req.Profile {
		rs, err = s.db.QueryProfiledContext(ctx, req.Query)
	} else {
		rs, err = s.db.QueryContext(ctx, req.Query)
	}
	var diags []analyze.Diagnostic
	if err == nil && req.Lint {
		diags = s.db.VetQuery(req.Query)
	}
	s.mu.RUnlock()
	elapsed := time.Since(began)
	if err != nil {
		status := statusFor(r, err)
		s.metrics.recordQuery(elapsed, nil, err, status == statusClientGone)
		s.logSlow("query", req.Query, elapsed, nil, err)
		writeError(w, status, err)
		return
	}
	s.metrics.recordQuery(elapsed, &rs.Stats, nil, false)
	s.metrics.recordVet(diags)
	s.logSlow("query", req.Query, elapsed, &rs.Stats, nil)
	out := resultJSON(rs)
	out.Diagnostics = diags
	writeJSON(w, http.StatusOK, out)
}

// handleVet statically analyzes a script against the database — same
// diagnostics as `videoql vet` — without evaluating anything. Analysis
// never fails a request: a script that does not even parse comes back as
// 200 with a single VQL0001 diagnostic, so clients handle one shape.
func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	var req scriptRequest
	if !s.post(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Script) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing script"))
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.mu.RLock()
	diags, err := s.db.Vet(req.Script)
	s.mu.RUnlock()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.metrics.recordVet(diags)
	if diags == nil {
		diags = []analyze.Diagnostic{} // clients must always see "diagnostics": []
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"diagnostics": diags,
		"ok":          !analyze.HasErrors(diags),
	})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.post(w, r, &req) {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	s.mu.RLock()
	plan, err := s.db.ExplainContext(ctx, req.Query)
	s.mu.RUnlock()
	if err != nil {
		writeError(w, statusFor(r, err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"plan": plan})
}

func (s *Server) handleScript(w http.ResponseWriter, r *http.Request) {
	var req scriptRequest
	if !s.post(w, r, &req) {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	began := time.Now()
	s.mu.Lock()
	results, err := s.db.LoadScriptContext(ctx, req.Script)
	s.mu.Unlock()
	elapsed := time.Since(began)
	if err != nil {
		status := statusFor(r, err)
		s.metrics.recordQuery(elapsed, nil, err, status == statusClientGone)
		s.logSlow("script", req.Script, elapsed, nil, err)
		writeError(w, status, err)
		return
	}
	var sum datalog.RunStats
	out := make([]ResultJSON, len(results))
	for i, rs := range results {
		out[i] = resultJSON(rs)
		sum.Rounds += rs.Stats.Rounds
		sum.Derived += rs.Stats.Derived
		sum.SolverSteps += rs.Stats.SolverSteps
	}
	s.metrics.recordQuery(elapsed, &sum, nil, false)
	s.logSlow("script", req.Script, elapsed, &sum, nil)
	writeJSON(w, http.StatusOK, map[string]interface{}{"results": out})
}

func (s *Server) handleRules(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.RLock()
		prog := s.db.Rules()
		s.mu.RUnlock()
		rules := make([]string, len(prog.Rules))
		for i, rule := range prog.Rules {
			rules[i] = rule.String()
		}
		writeJSON(w, http.StatusOK, map[string][]string{"rules": rules})
	case http.MethodPost:
		var req ruleRequest
		if !decode(w, r, &req) {
			return
		}
		s.mu.Lock()
		err := s.db.DefineRule(req.Rule)
		s.mu.Unlock()
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	default:
		methodNotAllowed(w, "GET, POST")
	}
}

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET")
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	type entry struct {
		OID  string `json:"oid"`
		Kind string `json:"kind"`
	}
	oids := s.db.Store().OIDs()
	// Non-nil even when empty: clients must always see "objects": [].
	out := make([]entry, 0, len(oids))
	for _, oid := range oids {
		out = append(out, entry{OID: string(oid), Kind: s.db.Object(oid).Kind().String()})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"objects": out})
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET")
		return
	}
	oid := strings.TrimPrefix(r.URL.Path, "/v1/objects/")
	if oid == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing oid"))
		return
	}
	s.mu.RLock()
	o := s.db.Object(object.OID(oid))
	s.mu.RUnlock()
	if o == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no object %q", oid))
		return
	}
	writeJSON(w, http.StatusOK, o)
}

// StatsResponse merges the store's content statistics (embedded, so its
// fields stay at the top level for existing clients) with the server's
// cumulative engine totals and uptime.
type StatsResponse struct {
	store.Stats
	Engine        engineTotals        `json:"engine"`
	PlanCache     core.PlanCacheStats `json:"planCache"`
	Intern        internJSON          `json:"intern"`
	Backend       store.BackendStats  `json:"backend"`
	Subscriptions core.SubTotals      `json:"subscriptions"`
	Admission     AdmissionStats      `json:"admission"`
	Uptime        float64             `json:"uptimeSeconds"`
}

type internJSON struct {
	Values int `json:"values"` // distinct values in the process-wide interner
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET")
		return
	}
	s.mu.RLock()
	st := s.db.Store().Stats()
	pcs := s.db.PlanCacheStats()
	bs := s.db.Store().BackendStats()
	subs := s.db.SubscriptionStats()
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, StatsResponse{
		Stats:         st,
		Engine:        s.metrics.totals(),
		PlanCache:     pcs,
		Intern:        internJSON{Values: datalog.InternStats().Values},
		Backend:       bs,
		Subscriptions: subs,
		Admission:     s.admissionStats(),
		Uptime:        time.Since(s.start).Seconds(),
	})
}

// --- Plumbing -------------------------------------------------------------------

func (s *Server) post(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, "POST")
		return false
	}
	return decode(w, r, dst)
}

func decode(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method not allowed"))
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // headers are sent; nothing left to do on error
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorJSON{Error: err.Error()})
}
