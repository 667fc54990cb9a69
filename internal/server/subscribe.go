package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"videodb/internal/core"
	"videodb/internal/object"
)

// Live subscriptions: the push counterpart of /v1/query. A standing
// VideoQL goal is registered with core.DB.SubscribeQuery and its answer
// deltas are delivered either over a Server-Sent Events stream
// (GET /v1/subscribe) or to a webhook (POST /v1/subscribe).
//
// SSE contract:
//
//   - every frame carries `id:` = the subscription's delta sequence
//     number, so EventSource's automatic Last-Event-ID resume works;
//   - `event: snapshot` frames carry the full answer set (sent first,
//     and again after a drop-resync — replace accumulated state);
//   - `event: delta` frames carry one row with sign +1/-1;
//   - a dropped connection keeps the subscription alive for a grace
//     period: reconnect with ?id=<subscription id> and the stream
//     resumes after the Last-Event-ID header's sequence number.
//
// Webhook delivery POSTs each event as JSON with retry/backoff;
// a subscriber whose endpoint keeps failing is closed.

const (
	// subDetachGrace is how long a detached SSE subscription survives
	// awaiting a resume before it is reaped.
	subDetachGrace = 30 * time.Second

	// webhook delivery tuning.
	webhookAttempts     = 3
	webhookBackoff      = 100 * time.Millisecond
	webhookTimeout      = 5 * time.Second
	webhookMaxConsecErr = 5
)

// WithSubscriptionGrace overrides how long a detached SSE subscription
// awaits a resume before it is closed (tests use short values).
func WithSubscriptionGrace(d time.Duration) Option {
	return func(s *Server) { s.subGrace = d }
}

// subSession is one server-side subscription: the core subscription plus
// its delivery state.
type subSession struct {
	id      uint64
	sub     *core.Subscription
	kind    string // "sse" | "webhook"
	goal    string
	webhook string

	mu       sync.Mutex
	attached bool        // an SSE handler is currently streaming it
	reap     *time.Timer // pending detach-grace reaper, nil when attached
}

// subRegistry tracks the server's sessions. Subscription IDs come from
// the core registry, so sessions and core subscriptions share keys.
type serverSubs struct {
	mu       sync.Mutex
	sessions map[uint64]*subSession
	closed   bool
}

// Close stops every live subscription session (SSE handlers unblock and
// finish, webhook senders stop) and refuses new ones. Call it before
// http.Server.Shutdown: an open event stream otherwise keeps graceful
// shutdown waiting forever.
func (s *Server) Close() {
	if s.admission != nil {
		// Queued waiters are rejected with 503; admitted work keeps its
		// slot and finishes (graceful drain).
		s.admission.close()
	}
	if s.lifeCancel != nil {
		s.lifeCancel() // unblock webhook pumps waiting in Next
	}
	s.subs.mu.Lock()
	s.subs.closed = true
	sessions := make([]*subSession, 0, len(s.subs.sessions))
	for _, ss := range s.subs.sessions {
		sessions = append(sessions, ss)
	}
	s.subs.sessions = nil
	s.subs.mu.Unlock()
	for _, ss := range sessions {
		ss.mu.Lock()
		if ss.reap != nil {
			ss.reap.Stop()
			ss.reap = nil
		}
		ss.mu.Unlock()
		ss.sub.Close()
	}
}

// register adds a session, or refuses if the server is closed.
func (s *Server) registerSession(ss *subSession) bool {
	s.subs.mu.Lock()
	defer s.subs.mu.Unlock()
	if s.subs.closed {
		return false
	}
	if s.subs.sessions == nil {
		s.subs.sessions = make(map[uint64]*subSession)
	}
	s.subs.sessions[ss.id] = ss
	return true
}

func (s *Server) dropSession(id uint64) {
	s.subs.mu.Lock()
	if ss := s.subs.sessions[id]; ss != nil {
		delete(s.subs.sessions, id)
	}
	s.subs.mu.Unlock()
}

func (s *Server) session(id uint64) *subSession {
	s.subs.mu.Lock()
	defer s.subs.mu.Unlock()
	return s.subs.sessions[id]
}

// subEventJSON is the wire form of one subscription event (SSE `data:`
// payload and webhook body). Rows is a pointer so an *empty* snapshot
// still serializes as "rows":[] — omitempty would drop the key and make
// the empty answer indistinguishable from a delta frame's absent field.
type subEventJSON struct {
	ID      uint64            `json:"id"` // subscription id
	Seq     uint64            `json:"seq"`
	Kind    string            `json:"kind"` // "snapshot" | "delta"
	Sign    int               `json:"sign,omitempty"`
	Row     []object.Value    `json:"row,omitempty"`
	Rows    *[][]object.Value `json:"rows,omitempty"`    // snapshots only
	Columns []string          `json:"columns,omitempty"` // snapshots only
}

func wireEvent(ss *subSession, ev core.SubEvent) subEventJSON {
	out := subEventJSON{ID: ss.id, Seq: ev.Seq}
	switch ev.Kind {
	case core.SubSnapshot:
		out.Kind = "snapshot"
		rows := ev.Rows
		if rows == nil {
			rows = [][]object.Value{}
		}
		out.Rows = &rows
		out.Columns = ss.sub.Columns()
	default:
		out.Kind = "delta"
		out.Sign = ev.Sign
		out.Row = ev.Row
	}
	return out
}

// subscribeOptions parses the shared subscription parameters (query
// string or JSON body fields).
func parseSubOptions(queue, policy, rate string) (core.SubOptions, error) {
	var opts core.SubOptions
	if queue != "" {
		n, err := strconv.Atoi(queue)
		if err != nil || n < 1 {
			return opts, fmt.Errorf("bad queue size %q", queue)
		}
		opts.QueueSize = n
	}
	switch policy {
	case "", string(core.SubDropResync):
		opts.Policy = core.SubDropResync
	case string(core.SubDisconnect):
		opts.Policy = core.SubDisconnect
	default:
		return opts, fmt.Errorf("bad policy %q (want %q or %q)", policy, core.SubDropResync, core.SubDisconnect)
	}
	if rate != "" {
		f, err := strconv.ParseFloat(rate, 64)
		if err != nil || f < 0 {
			return opts, fmt.Errorf("bad rate %q", rate)
		}
		opts.MaxPerSec = f
	}
	return opts, nil
}

// handleSubscribe serves /v1/subscribe: GET = SSE stream (new or
// resumed), POST = webhook registration.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.handleSubscribeSSE(w, r)
	case http.MethodPost:
		s.handleSubscribeWebhook(w, r)
	default:
		methodNotAllowed(w, "GET, POST")
	}
}

// handleSubscribeItem serves /v1/subscribe/{id}: DELETE closes the
// subscription.
func (s *Server) handleSubscribeItem(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		methodNotAllowed(w, "DELETE")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/subscribe/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad subscription id %q", idStr))
		return
	}
	ss := s.session(id)
	if ss == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no subscription %d", id))
		return
	}
	s.dropSession(id)
	ss.sub.Close()
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleSubscriptions lists live subscriptions.
func (s *Server) handleSubscriptions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, "GET")
		return
	}
	s.mu.RLock()
	infos := s.db.Subscriptions()
	s.mu.RUnlock()
	type wireInfo struct {
		core.SubInfo
		Kind     string `json:"kind"`
		Attached bool   `json:"attached"`
	}
	out := make([]wireInfo, 0, len(infos))
	s.subs.mu.Lock()
	for _, info := range infos {
		wi := wireInfo{SubInfo: info}
		if ss := s.subs.sessions[info.ID]; ss != nil {
			wi.Kind = ss.kind
			ss.mu.Lock()
			wi.Attached = ss.attached
			ss.mu.Unlock()
		}
		out = append(out, wi)
	}
	s.subs.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, map[string]interface{}{"subscriptions": out})
}

// lastEventID parses the SSE resume header (also accepted as a query
// parameter for clients that cannot set headers).
func lastEventID(r *http.Request) uint64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return 0
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

func (s *Server) handleSubscribeSSE(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	q := r.URL.Query()

	var ss *subSession
	if idStr := q.Get("id"); idStr != "" {
		// Resume a detached subscription.
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad subscription id %q", idStr))
			return
		}
		ss = s.session(id)
		if ss == nil {
			// Reaped or never existed: the client must subscribe fresh.
			writeError(w, http.StatusNotFound, fmt.Errorf("no subscription %d (resubscribe)", id))
			return
		}
		ss.mu.Lock()
		if ss.attached {
			ss.mu.Unlock()
			writeError(w, http.StatusConflict, fmt.Errorf("subscription %d is already attached", id))
			return
		}
		if ss.reap != nil {
			ss.reap.Stop()
			ss.reap = nil
		}
		ss.attached = true
		ss.mu.Unlock()
		if seq := lastEventID(r); seq > 0 {
			ss.sub.SkipTo(seq)
		}
	} else {
		goal := q.Get("goal")
		if strings.TrimSpace(goal) == "" {
			writeError(w, http.StatusBadRequest, fmt.Errorf("missing goal"))
			return
		}
		opts, err := parseSubOptions(q.Get("queue"), q.Get("policy"), q.Get("rate"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Registration runs the initial snapshot evaluation, so it passes
		// through admission like any query; the slot is released before
		// the stream loop — a standing connection must not pin one.
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		// Per-delta evaluation stays under the query-timeout budget even
		// though the connection itself is exempt (see requestCtx).
		opts.RefreshBudget = s.queryTimeout
		s.mu.RLock()
		sub, err := s.db.SubscribeQuery(q["rule"], goal, opts)
		s.mu.RUnlock()
		if err != nil {
			release()
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		ss = &subSession{id: sub.ID(), sub: sub, kind: "sse", goal: goal, attached: true}
		if !s.registerSession(ss) {
			release()
			sub.Close()
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down"))
			return
		}
		release()
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Videodb-Subscription", strconv.FormatUint(ss.id, 10))
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": subscription %d\n\n", ss.id)
	flusher.Flush()

	var buf bytes.Buffer
	for {
		ev, err := ss.sub.Next(r.Context())
		if err != nil {
			if r.Context().Err() != nil {
				// Client went away: detach and keep the subscription for a
				// grace period so a reconnect can resume.
				s.detachForResume(ss)
				return
			}
			// Subscription ended (server close, slow-consumer disconnect,
			// maintenance failure): tell the client not to resume.
			fmt.Fprintf(w, "event: close\ndata: %s\n\n", sseJSON(map[string]string{"error": err.Error()}))
			flusher.Flush()
			s.dropSession(ss.id)
			return
		}
		buf.Reset()
		fmt.Fprintf(&buf, "id: %d\nevent: %s\ndata: %s\n\n",
			ev.Seq, coreKindName(ev.Kind), sseJSON(wireEvent(ss, ev)))
		if _, err := w.Write(buf.Bytes()); err != nil {
			// Mid-write disconnect: same resume semantics as a clean
			// disconnect; the interrupted event re-sends via Last-Event-ID
			// (the client acks only complete frames).
			s.detachForResume(ss)
			return
		}
		flusher.Flush()
		s.metrics.recordSubEvent(ev)
	}
}

func coreKindName(k core.SubEventKind) string {
	if k == core.SubSnapshot {
		return "snapshot"
	}
	return "delta"
}

// sseJSON renders v as a single-line JSON payload (SSE data frames are
// newline-delimited; encoding/json never emits raw newlines).
func sseJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"encode failure"}`)
	}
	return b
}

// detachForResume marks the session detached and arms the grace reaper.
// A closed server resumes nothing, so it arms no reaper: Close has
// already dropped the session and closed its subscription, and a timer
// armed now would outlive it by the whole grace period. The registry
// lock orders the check against Close, which stops the reapers it finds.
func (s *Server) detachForResume(ss *subSession) {
	grace := s.subGrace
	if grace <= 0 {
		grace = subDetachGrace
	}
	s.subs.mu.Lock()
	defer s.subs.mu.Unlock()
	ss.mu.Lock()
	ss.attached = false
	if ss.reap == nil && !s.subs.closed {
		ss.reap = time.AfterFunc(grace, func() {
			ss.mu.Lock()
			stillDetached := !ss.attached
			ss.mu.Unlock()
			if stillDetached {
				s.dropSession(ss.id)
				ss.sub.Close()
			}
		})
	}
	ss.mu.Unlock()
}

// --- Webhook delivery -------------------------------------------------------------

type webhookRequest struct {
	Goal    string   `json:"goal"`
	Rules   []string `json:"rules,omitempty"`
	Webhook string   `json:"webhook"`
	Queue   int      `json:"queue,omitempty"`
	Policy  string   `json:"policy,omitempty"`
	Rate    float64  `json:"rate,omitempty"`
}

func (s *Server) handleSubscribeWebhook(w http.ResponseWriter, r *http.Request) {
	var req webhookRequest
	if !decode(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Goal) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing goal"))
		return
	}
	u, err := url.Parse(req.Webhook)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("webhook must be an absolute http(s) URL"))
		return
	}
	opts, err := parseSubOptions("", req.Policy, "")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Queue > 0 {
		opts.QueueSize = req.Queue
	}
	if req.Rate > 0 {
		opts.MaxPerSec = req.Rate
	}
	// Registration evaluates the initial snapshot; admission applies. The
	// delivery pump runs below the gate (maintenance, not request work).
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	opts.RefreshBudget = s.queryTimeout
	s.mu.RLock()
	sub, err := s.db.SubscribeQuery(req.Rules, req.Goal, opts)
	s.mu.RUnlock()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	ss := &subSession{id: sub.ID(), sub: sub, kind: "webhook", goal: req.Goal, webhook: req.Webhook}
	if !s.registerSession(ss) {
		sub.Close()
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is shutting down"))
		return
	}
	go s.deliverWebhook(ss)
	writeJSON(w, http.StatusOK, map[string]interface{}{"id": ss.id})
}

// deliverWebhook pumps subscription events to the session's endpoint.
// Each event is retried with exponential backoff; webhookMaxConsecErr
// events lost in a row closes the subscription (the endpoint is gone).
func (s *Server) deliverWebhook(ss *subSession) {
	client := &http.Client{Timeout: webhookTimeout}
	consecFails := 0
	for {
		// The server's lifecycle context, not Background: Close must be
		// able to unblock this pump even if the subscription itself is
		// slow to notice it was closed.
		ev, err := ss.sub.Next(s.lifeCtx)
		if err != nil {
			s.dropSession(ss.id)
			return
		}
		if s.postWebhookEvent(client, ss, ev) {
			consecFails = 0
			s.metrics.recordSubEvent(ev)
			continue
		}
		consecFails++
		s.metrics.subWebhookDropped.Add(1)
		if consecFails >= webhookMaxConsecErr {
			s.dropSession(ss.id)
			ss.sub.Close()
			return
		}
	}
}

// postWebhookEvent delivers one event with retry/backoff; it reports
// whether any attempt succeeded (2xx).
func (s *Server) postWebhookEvent(client *http.Client, ss *subSession, ev core.SubEvent) bool {
	body, err := json.Marshal(wireEvent(ss, ev))
	if err != nil {
		return false
	}
	backoff := webhookBackoff
	for attempt := 0; attempt < webhookAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		resp, err := client.Post(ss.webhook, "application/json", bytes.NewReader(body))
		if err != nil {
			s.metrics.subWebhookRetries.Add(1)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return true
		}
		s.metrics.subWebhookRetries.Add(1)
	}
	return false
}

// --- SSE client-side reader --------------------------------------------------------

// SSEEvent is one parsed Server-Sent Events frame.
type SSEEvent struct {
	ID    string
	Event string
	Data  string
}

// ReadSSE parses the next event frame from an SSE stream. Comment lines
// are skipped; io.EOF surfaces when the stream ends. It exists for
// clients of /v1/subscribe (tests and the bench/ workloads use it) and
// implements just the subset of the SSE grammar the server emits.
func ReadSSE(br *bufio.Reader) (SSEEvent, error) {
	var ev SSEEvent
	seen := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if seen {
				return ev, nil
			}
			// Leading blank or comment-only frame: keep scanning.
		case strings.HasPrefix(line, ":"):
			// comment
		case strings.HasPrefix(line, "id:"):
			ev.ID = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
			seen = true
		case strings.HasPrefix(line, "event:"):
			ev.Event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
			seen = true
		case strings.HasPrefix(line, "data:"):
			if ev.Data != "" {
				ev.Data += "\n"
			}
			ev.Data += strings.TrimSpace(strings.TrimPrefix(line, "data:"))
			seen = true
		}
	}
}
