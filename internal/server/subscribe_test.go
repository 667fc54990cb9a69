package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"videodb/internal/core"
	"videodb/internal/object"
)

// sseClient opens an SSE subscription and exposes parsed frames.
type sseClient struct {
	t      *testing.T
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
	subID  string
}

// openSSE subscribes to goal and consumes the stream until the caller
// closes it (via cancel or the test server shutting down).
func openSSE(t *testing.T, base, rawQuery string) *sseClient {
	t.Helper()
	c, err := tryOpenSSE(base, rawQuery, "")
	if err != nil {
		t.Fatal(err)
	}
	c.t = t
	t.Cleanup(c.close)
	return c
}

func tryOpenSSE(base, rawQuery, lastEventID string) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscribe?"+rawQuery, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var out map[string]string
		json.NewDecoder(resp.Body).Decode(&out)
		cancel()
		return nil, fmt.Errorf("subscribe status %d: %s", resp.StatusCode, out["error"])
	}
	return &sseClient{
		resp:   resp,
		br:     bufio.NewReader(resp.Body),
		cancel: cancel,
		subID:  resp.Header.Get("X-Videodb-Subscription"),
	}, nil
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// next reads one frame with a deadline.
func (c *sseClient) next(timeout time.Duration) (SSEEvent, error) {
	type result struct {
		ev  SSEEvent
		err error
	}
	ch := make(chan result, 1)
	go func() {
		ev, err := ReadSSE(c.br)
		ch <- result{ev, err}
	}()
	select {
	case r := <-ch:
		return r.ev, r.err
	case <-time.After(timeout):
		return SSEEvent{}, fmt.Errorf("timed out waiting for SSE frame")
	}
}

// decodeEvent parses the JSON payload of a frame.
func decodeEvent(t *testing.T, ev SSEEvent) subEventJSON {
	t.Helper()
	var out subEventJSON
	if err := json.Unmarshal([]byte(ev.Data), &out); err != nil {
		t.Fatalf("bad event payload %q: %v", ev.Data, err)
	}
	return out
}

// accumulate applies SSE events to a set of row keys, mirroring what a
// live dashboard would hold.
type sseState struct{ rows map[string]bool }

func (st *sseState) apply(t *testing.T, ev subEventJSON) {
	t.Helper()
	if st.rows == nil {
		st.rows = make(map[string]bool)
	}
	key := func(row []json.RawMessage) string {
		parts := make([]string, len(row))
		for i, r := range row {
			parts[i] = string(r)
		}
		return strings.Join(parts, "\x1f")
	}
	switch ev.Kind {
	case "snapshot":
		st.rows = make(map[string]bool)
		if ev.Rows == nil {
			return
		}
		for _, row := range *ev.Rows {
			raw := make([]json.RawMessage, len(row))
			for i, v := range row {
				b, _ := json.Marshal(v)
				raw[i] = b
			}
			st.rows[key(raw)] = true
		}
	case "delta":
		raw := make([]json.RawMessage, len(ev.Row))
		for i, v := range ev.Row {
			b, _ := json.Marshal(v)
			raw[i] = b
		}
		k := key(raw)
		if ev.Sign > 0 {
			st.rows[k] = true
		} else {
			delete(st.rows, k)
		}
	default:
		t.Fatalf("unexpected event kind %q", ev.Kind)
	}
}

// postScript applies mutations through the HTTP API so events flow
// through the full stack.
func postScript(t *testing.T, base, script string) {
	t.Helper()
	resp, out := postJSON(t, base+"/v1/script", map[string]string{"script": script})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("script status = %d: %v", resp.StatusCode, out)
	}
}

// TestSSEStream is the end-to-end happy path: subscribe, get a snapshot,
// mutate through /v1/script, watch deltas arrive, and check the
// accumulated state matches a one-shot query. It also regression-tests
// the statusWriter Flusher passthrough: if the metrics middleware hides
// http.Flusher, the handler 500s and openSSE fails.
func TestSSEStream(t *testing.T) {
	db := core.New()
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	c := openSSE(t, ts.URL, "goal="+escapeQuery("?- likes(X, Y)"))
	if c.subID == "" {
		t.Fatal("missing X-Videodb-Subscription header")
	}

	ev, err := c.next(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Event != "snapshot" {
		t.Fatalf("first frame event = %q, want snapshot", ev.Event)
	}
	first := decodeEvent(t, ev)
	if first.Kind != "snapshot" || first.Rows == nil || len(*first.Rows) != 0 {
		t.Fatalf("initial snapshot = %+v", first)
	}
	if !strings.Contains(ev.Data, `"rows":[]`) {
		t.Fatalf("empty snapshot must carry rows explicitly: %s", ev.Data)
	}
	if len(first.Columns) != 2 {
		t.Fatalf("snapshot columns = %v", first.Columns)
	}

	var st sseState
	st.apply(t, first)

	postScript(t, ts.URL, "likes(a, b). likes(c, d).")
	deadline := time.Now().Add(10 * time.Second)
	for len(st.rows) != 2 && time.Now().Before(deadline) {
		ev, err := c.next(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		st.apply(t, decodeEvent(t, ev))
	}
	if len(st.rows) != 2 {
		t.Fatalf("accumulated rows = %v, want 2", st.rows)
	}

	// The script language has no retraction statement; go through the
	// core API, which feeds the same changelog.
	if _, err := db.Unrelate("likes", "a", "b"); err != nil {
		t.Fatal(err)
	}
	for len(st.rows) != 1 && time.Now().Before(deadline) {
		ev, err := c.next(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		st.apply(t, decodeEvent(t, ev))
	}
	if len(st.rows) != 1 {
		t.Fatalf("after retract rows = %v, want 1", st.rows)
	}
}

// attachedSub reports whether any listed subscription has an attached
// SSE handler.
func attachedSub(t *testing.T, base string) bool {
	t.Helper()
	resp, err := http.Get(base + "/v1/subscriptions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Subscriptions []struct {
			Attached bool `json:"attached"`
		} `json:"subscriptions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	for _, s := range list.Subscriptions {
		if s.Attached {
			return true
		}
	}
	return false
}

func escapeQuery(goal string) string {
	r := strings.NewReplacer(" ", "%20", "?", "%3F", ",", "%2C", "(", "%28", ")", "%29", "+", "%2B", "-", "%2D", ">", "%3E", "<", "%3C", "=", "%3D", ".", "%2E", "\"", "%22", "{", "%7B", "}", "%7D", ":", "%3A")
	return r.Replace(goal)
}

func TestSSEValidation(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name  string
		query string
		code  int
	}{
		{"missing goal", "", http.StatusBadRequest},
		{"bad goal", "goal=" + escapeQuery("?- broken("), http.StatusUnprocessableEntity},
		{"bad queue", "goal=" + escapeQuery("?- likes(X, Y)") + "&queue=0", http.StatusBadRequest},
		{"bad policy", "goal=" + escapeQuery("?- likes(X, Y)") + "&policy=explode", http.StatusBadRequest},
		{"bad rate", "goal=" + escapeQuery("?- likes(X, Y)") + "&rate=-3", http.StatusBadRequest},
		{"unknown resume id", "id=99999", http.StatusNotFound},
		{"bad resume id", "id=banana", http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, err := tryOpenSSE(ts.URL, tc.query, "")
		if err == nil {
			t.Errorf("%s: subscribe unexpectedly succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("status %d", tc.code)) {
			t.Errorf("%s: %v, want status %d", tc.name, err, tc.code)
		}
	}
}

// TestSSEResume covers the disconnect → grace → resume path: a client
// drops mid-stream, reconnects with Last-Event-ID, and sees only events
// it has not acknowledged.
func TestSSEResume(t *testing.T) {
	db := core.New()
	srv := New(db, WithSubscriptionGrace(5*time.Second))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	c, err := tryOpenSSE(ts.URL, "goal="+escapeQuery("?- likes(X, Y)"), "")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := c.next(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Event != "snapshot" {
		t.Fatalf("first frame = %q", ev.Event)
	}
	lastID := ev.ID
	subID := c.subID

	// Drop the connection mid-stream (client context cancel) and wait for
	// the handler to observe it: an event popped before the server notices
	// the dead connection is written there and lost, which is exactly what
	// Last-Event-ID cannot recover (the client resubscribes fresh in that
	// case). Queue the mutation only once nobody is attached.
	c.close()
	deadline := time.Now().Add(5 * time.Second)
	for attachedSub(t, ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("handler never detached")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := db.Relate("likes", "a", "b"); err != nil {
		t.Fatal(err)
	}

	rc, err := tryOpenSSE(ts.URL, "id="+subID, lastID)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	defer rc.close()
	if rc.subID != subID {
		t.Fatalf("resumed id = %q, want %q", rc.subID, subID)
	}

	// The queued delta (or a fresh snapshot) arrives on the resumed
	// stream; either way the accumulated state converges.
	var st sseState
	st.rows = make(map[string]bool)
	deadline = time.Now().Add(10 * time.Second)
	for len(st.rows) != 1 && time.Now().Before(deadline) {
		ev, err := rc.next(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		st.apply(t, decodeEvent(t, ev))
	}
	if len(st.rows) != 1 {
		t.Fatalf("resumed state = %v", st.rows)
	}

	// While attached, a second attach on the same id conflicts.
	if _, err := tryOpenSSE(ts.URL, "id="+subID, ""); err == nil ||
		!strings.Contains(err.Error(), "status 409") {
		t.Fatalf("double attach: %v, want 409", err)
	}
}

// TestSSEDetachReap verifies a detached subscription is closed after the
// grace period rather than leaking.
func TestSSEDetachReap(t *testing.T) {
	db := core.New()
	srv := New(db, WithSubscriptionGrace(50*time.Millisecond))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	c, err := tryOpenSSE(ts.URL, "goal="+escapeQuery("?- likes(X, Y)"), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.next(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	subID := c.subID
	c.close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := db.SubscriptionStats().Active; got == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscription never reaped: %+v", db.SubscriptionStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := tryOpenSSE(ts.URL, "id="+subID, ""); err == nil ||
		!strings.Contains(err.Error(), "status 404") {
		t.Fatalf("resume after reap: %v, want 404", err)
	}
}

// TestSSEDetachAfterCloseArmsNoReaper is the regression test for a
// detach that lands after Server.Close: a client hangs up, Close runs,
// and the handler's notice of the hang-up comes last. No reap timer may
// be left pending (it would hold the session for the whole 30 s grace)
// and the session must be gone.
func TestSSEDetachAfterCloseArmsNoReaper(t *testing.T) {
	db := core.New()
	srv := New(db) // default grace: a leaked timer would outlive the test
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	c, err := tryOpenSSE(ts.URL, "goal="+escapeQuery("?- likes(X, Y)"), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.next(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	id, err := strconv.ParseUint(c.subID, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	ss := srv.session(id)
	if ss == nil {
		t.Fatal("no session for the live stream")
	}
	c.close()
	srv.Close()
	srv.detachForResume(ss) // the handler noticing the hang-up late

	ss.mu.Lock()
	reap, attached := ss.reap, ss.attached
	ss.mu.Unlock()
	if reap != nil {
		reap.Stop()
		t.Fatal("detach after Close armed a reap timer")
	}
	if attached {
		t.Error("session still attached after detach")
	}
	if srv.session(id) != nil {
		t.Error("session survived Server.Close")
	}
	// The core unregisters a closed subscription asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for db.SubscriptionStats().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription still active after Close: %+v", db.SubscriptionStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubscribeTimeoutExemption is the requestCtx satellite: a server
// with a tiny query timeout must keep an SSE stream alive well past the
// timeout while /v1/query still gets bounded.
func TestSubscribeTimeoutExemption(t *testing.T) {
	db := core.New()
	srv := New(db, WithQueryTimeout(50*time.Millisecond))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	c, err := tryOpenSSE(ts.URL, "goal="+escapeQuery("?- likes(X, Y)"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if _, err := c.next(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Outlive the query timeout several times over, then prove the stream
	// still works by pushing a mutation through it.
	time.Sleep(300 * time.Millisecond)
	if err := db.Relate("likes", "a", "b"); err != nil {
		t.Fatal(err)
	}
	ev, err := c.next(5 * time.Second)
	if err != nil {
		t.Fatalf("stream died after query timeout: %v", err)
	}
	if ev.Event != "delta" && ev.Event != "snapshot" {
		t.Fatalf("unexpected frame %q", ev.Event)
	}
}

// TestSubscriptionsEndpoints covers GET /v1/subscriptions and
// DELETE /v1/subscribe/{id}.
func TestSubscriptionsEndpoints(t *testing.T) {
	ts := testServer(t)
	c := openSSE(t, ts.URL, "goal="+escapeQuery("?- likes(X, Y)"))
	if _, err := c.next(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/subscriptions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Subscriptions []struct {
			ID       uint64 `json:"id"`
			Goal     string `json:"goal"`
			Kind     string `json:"kind"`
			Attached bool   `json:"attached"`
		} `json:"subscriptions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Subscriptions) != 1 {
		t.Fatalf("subscriptions = %+v", list.Subscriptions)
	}
	got := list.Subscriptions[0]
	if got.Kind != "sse" || !got.Attached || !strings.Contains(got.Goal, "likes") {
		t.Fatalf("listing = %+v", got)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/subscribe/%d", ts.URL, got.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}

	// The live stream observes the close frame.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ev, err := c.next(5 * time.Second)
		if err != nil {
			break // stream ended, also acceptable
		}
		if ev.Event == "close" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never saw close frame")
		}
	}

	// Deleting again 404s.
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/subscribe/%d", ts.URL, got.ID), nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status = %d", dresp.StatusCode)
	}
}

// TestWebhookDelivery spins up a receiving endpoint that fails the first
// attempt of one event to exercise the retry path, then checks ordered
// delivery of snapshot + deltas.
func TestWebhookDelivery(t *testing.T) {
	var (
		mu       = make(chan struct{}, 1)
		events   []subEventJSON
		failOnce atomic.Bool
	)
	mu <- struct{}{}
	failOnce.Store(true)
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev subEventJSON
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		// Fail the first delivery attempt ever seen: the server must retry
		// the same event rather than dropping it.
		if failOnce.CompareAndSwap(true, false) {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		<-mu
		events = append(events, ev)
		mu <- struct{}{}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(sink.Close)

	ts := testServer(t)
	resp, out := postJSON(t, ts.URL+"/v1/subscribe", map[string]interface{}{
		"goal":    "?- likes(X, Y)",
		"webhook": sink.URL,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("webhook subscribe status = %d: %v", resp.StatusCode, out)
	}

	postScript(t, ts.URL, "likes(a, b).")

	deadline := time.Now().Add(10 * time.Second)
	for {
		<-mu
		n := len(events)
		mu <- struct{}{}
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("webhook received %d events, want >= 2", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
	<-mu
	defer func() { mu <- struct{}{} }()
	if events[0].Kind != "snapshot" {
		t.Fatalf("first webhook event = %+v", events[0])
	}
	var sawDelta bool
	for _, ev := range events[1:] {
		if ev.Kind == "delta" && ev.Sign == 1 {
			sawDelta = true
		}
	}
	if !sawDelta {
		t.Fatalf("no +delta delivered: %+v", events)
	}
}

// TestWebhookValidation rejects bad registration payloads.
func TestWebhookValidation(t *testing.T) {
	ts := testServer(t)
	cases := []map[string]interface{}{
		{"webhook": "http://example.com/hook"},                       // missing goal
		{"goal": "?- likes(X, Y)", "webhook": "not-a-url"},           // relative URL
		{"goal": "?- likes(X, Y)", "webhook": "ftp://example.com/x"}, // bad scheme
		{"goal": "?- broken(", "webhook": "http://example.com/hook"}, // parse error (422)
	}
	for i, body := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/subscribe", body)
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("case %d: status = %d", i, resp.StatusCode)
		}
	}
}

// TestWebhookEndpointGoneDisconnects verifies a persistently failing
// endpoint eventually closes the subscription instead of retrying
// forever.
func TestWebhookEndpointGoneDisconnects(t *testing.T) {
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	t.Cleanup(sink.Close)

	db := core.New()
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	resp, out := postJSON(t, ts.URL+"/v1/subscribe", map[string]interface{}{
		"goal":    "?- likes(X, Y)",
		"webhook": sink.URL,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status = %d: %v", resp.StatusCode, out)
	}

	// Feed it enough events to blow through webhookMaxConsecErr.
	for i := 0; i < webhookMaxConsecErr+2; i++ {
		if err := db.Relate("likes", object.OID(fmt.Sprintf("a%d", i)), object.OID(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for db.SubscriptionStats().Active != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("failing webhook subscription never closed: %+v", db.SubscriptionStats())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestSubscribeMetrics checks the Prometheus surface and /v1/stats.
func TestSubscribeMetrics(t *testing.T) {
	ts := testServer(t)
	c := openSSE(t, ts.URL, "goal="+escapeQuery("?- likes(X, Y)"))
	if _, err := c.next(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	postScript(t, ts.URL, "likes(a, b).")
	if _, err := c.next(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		sb.WriteString(line)
		if err != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{
		"videodb_subscriptions_active 1",
		`videodb_sub_deltas_total{sign="+"}`,
		"videodb_sub_dropped_total",
		"videodb_sub_resyncs_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Subscriptions core.SubTotals `json:"subscriptions"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Subscriptions.Active != 1 || stats.Subscriptions.Opened < 1 {
		t.Errorf("stats subscriptions = %+v", stats.Subscriptions)
	}
}

// TestServerCloseEndsStreams verifies Server.Close unblocks live SSE
// handlers (the graceful-shutdown prerequisite) and refuses new
// subscriptions.
func TestServerCloseEndsStreams(t *testing.T) {
	db := core.New()
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	c, err := tryOpenSSE(ts.URL, "goal="+escapeQuery("?- likes(X, Y)"), "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if _, err := c.next(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	srv.Close()

	// The stream ends with a close frame or EOF.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ev, err := c.next(5 * time.Second)
		if err != nil {
			break
		}
		if ev.Event == "close" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream survived Server.Close")
		}
	}

	if _, err := tryOpenSSE(ts.URL, "goal="+escapeQuery("?- likes(X, Y)"), ""); err == nil ||
		!strings.Contains(err.Error(), "status 503") {
		t.Fatalf("subscribe after close: %v, want 503", err)
	}
}

// TestStatusWriterFlusher is the satellite-1 regression test at the unit
// level: the metrics middleware's wrapper must forward Flush and expose
// Unwrap so SSE streaming survives the wrapping.
func TestStatusWriterFlusher(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	var f http.Flusher = sw
	f.Flush()
	if !rec.Flushed {
		t.Error("statusWriter.Flush did not reach the underlying writer")
	}
	if sw.Unwrap() != rec {
		t.Error("statusWriter.Unwrap did not return the wrapped writer")
	}
}
