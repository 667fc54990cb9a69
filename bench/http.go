package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"videodb/internal/core"
	"videodb/internal/server"
)

// requestTimeout fails an op whose request (or awaited delta) takes
// longer; nothing on these workloads should come near it.
const requestTimeout = 5 * time.Second

// served is a database behind the real HTTP handler on a loopback
// listener: what a client of the system talks to.
type served struct {
	db   *core.DB
	api  *server.Server
	hs   *http.Server
	base string
	tr   *http.Transport
	done chan struct{}
}

// serve starts the server with admission control at the shipped default
// (2 slots per CPU, as cmd/loadgen and videoserver size it), so the
// admission layer is on the measured path as it is in production.
func serve(db *core.DB) (*served, error) {
	slots := 2 * runtime.NumCPU()
	api := server.New(db,
		server.WithQueryTimeout(requestTimeout),
		server.WithAdmission(server.AdmissionConfig{MaxConcurrent: slots, QueueDepth: 2 * slots}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		api.Close()
		return nil, err
	}
	s := &served{
		db:   db,
		api:  api,
		hs:   &http.Server{Handler: api},
		base: "http://" + ln.Addr().String(),
		tr:   &http.Transport{MaxIdleConnsPerHost: 4},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop; the database is
// the caller's to close.
func (s *served) close() {
	s.api.Close()
	_ = s.hs.Close() // listener and connections; nothing to report
	<-s.done
	s.tr.CloseIdleConnections()
}

// client is one closed-loop caller: one keep-alive connection, one
// reusable response buffer.
type client struct {
	base string
	http *http.Client
	buf  bytes.Buffer
}

func (s *served) newClient() *client {
	return &client{base: s.base, http: &http.Client{Transport: s.tr, Timeout: requestTimeout}}
}

// post sends body to path and leaves the response in c.buf. Any status
// but 200 is an error.
func (c *client) post(ctx context.Context, path string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *client) get(ctx context.Context, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req)
}

func (c *client) do(req *http.Request) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s: read response: %w", req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := c.buf.String()
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return fmt.Errorf("%s: status %d: %s", req.URL.Path, resp.StatusCode, strings.TrimSpace(msg))
	}
	return nil
}

// query posts one VideoQL query and returns the number of rows in the
// answer and the response size in bytes.
func (c *client) query(ctx context.Context, q string) (rows, bytes int, err error) {
	body, err := json.Marshal(map[string]string{"query": q})
	if err != nil {
		return 0, 0, err
	}
	if err := c.post(ctx, "/v1/query", body); err != nil {
		return 0, 0, err
	}
	rows, err = countRows(c.buf.Bytes())
	return rows, c.buf.Len(), err
}

// script posts one VideoQL script.
func (c *client) script(ctx context.Context, src string) error {
	body, err := json.Marshal(map[string]string{"script": src})
	if err != nil {
		return err
	}
	return c.post(ctx, "/v1/script", body)
}

// stats fetches /v1/stats.
func (c *client) stats() (*server.StatsResponse, error) {
	return server.NewClient(c.base, c.http).Stats()
}

// queueWait reads the admission queue-wait histogram's sum (seconds)
// and count from /metrics; /v1/stats carries the counts but not the wait.
func (c *client) queueWait(ctx context.Context) (sumSec float64, count uint64, err error) {
	if err := c.get(ctx, "/metrics"); err != nil {
		return 0, 0, err
	}
	const name = "videodb_admission_queue_wait_seconds"
	for _, line := range strings.Split(c.buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, name+"_sum "):
			sumSec, err = strconv.ParseFloat(strings.TrimPrefix(line, name+"_sum "), 64)
		case strings.HasPrefix(line, name+"_count "):
			count, err = strconv.ParseUint(strings.TrimPrefix(line, name+"_count "), 10, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("/metrics: %q: %w", line, err)
		}
	}
	return sumSec, count, nil
}

// countRows counts the elements of the top-level "rows" array of a
// /v1/query response without decoding it: the client's own JSON decode
// would otherwise be a large share of the CPU and allocation the
// benchmark charges to an op on result-bound queries.
func countRows(body []byte) (int, error) {
	const key = `"rows":[`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("response has no rows array")
	}
	depth, rows, inStr := 1, 0, false
	for j := i + len(key); j < len(body); j++ {
		ch := body[j]
		if inStr {
			switch ch {
			case '\\':
				j++
			case '"':
				inStr = false
			}
			continue
		}
		switch ch {
		case '"':
			inStr = true
		case '[', '{':
			if depth == 1 {
				rows++
			}
			depth++
		case ']', '}':
			depth--
			if depth == 0 {
				return rows, nil
			}
		}
	}
	return 0, fmt.Errorf("response rows array is not closed")
}

// sseEvent is the wire form of a subscription event (see
// internal/server: subEventJSON).
type sseEvent struct {
	Seq  uint64              `json:"seq"`
	Kind string              `json:"kind"`
	Sign int                 `json:"sign"`
	Row  []json.RawMessage   `json:"row"`
	Rows [][]json.RawMessage `json:"rows"`
}

// subscriber holds one SSE subscription and accumulates its answer:
// snapshot rows plus applied deltas, keyed by the rows' wire JSON.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	rows      map[string]bool
	snapshots int
	plus      int // +deltas received so far
	minus     int
	lastAt    time.Time // arrival of the latest event
	err       error
	wake      chan struct{} // one token per state change, coalesced
}

func wireKey(row []json.RawMessage) string {
	var b strings.Builder
	for i, r := range row {
		if i > 0 {
			b.WriteByte(0x1f)
		}
		b.Write(r)
	}
	return b.String()
}

// subscribe opens the SSE stream for goal and starts the reader.
func (s *served) subscribe(goal string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	u := s.base + "/v1/subscribe?queue=4096&goal=" + url.QueryEscape(goal)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// No client timeout: the stream is open for the whole run.
	resp, err := (&http.Client{Transport: s.tr}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the error below
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d: %s", resp.StatusCode, msg)
	}
	sub := &subscriber{cancel: cancel, done: make(chan struct{}), rows: map[string]bool{}, wake: make(chan struct{}, 1)}
	go sub.read(resp.Body)
	return sub, nil
}

func (s *subscriber) read(body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	br := bufio.NewReader(body)
	for {
		ev, err := server.ReadSSE(br)
		if err == nil && ev.Event == "close" {
			err = fmt.Errorf("subscription closed by server: %s", ev.Data)
		}
		var wire sseEvent
		if err == nil {
			if jerr := json.Unmarshal([]byte(ev.Data), &wire); jerr != nil {
				err = fmt.Errorf("bad subscription frame %q: %w", ev.Data, jerr)
			}
		}
		s.mu.Lock()
		if err != nil {
			s.err = err
		} else {
			s.apply(wire)
		}
		s.mu.Unlock()
		select {
		case s.wake <- struct{}{}:
		default:
		}
		if err != nil {
			return
		}
	}
}

// apply folds one event into the accumulated answer; s.mu is held.
func (s *subscriber) apply(ev sseEvent) {
	s.lastAt = time.Now()
	switch ev.Kind {
	case "snapshot":
		s.snapshots++
		s.rows = make(map[string]bool, len(ev.Rows))
		for _, r := range ev.Rows {
			s.rows[wireKey(r)] = true
		}
	case "delta":
		if ev.Sign > 0 {
			s.plus++
			s.rows[wireKey(ev.Row)] = true
		} else {
			s.minus++
			delete(s.rows, wireKey(ev.Row))
		}
	}
}

// await blocks until cond holds for the subscriber's state (called with
// s.mu held), the stream fails, or the request timeout passes. It
// returns the arrival time of the event that satisfied cond.
func (s *subscriber) await(ctx context.Context, cond func(*subscriber) bool) (time.Time, error) {
	timer := time.NewTimer(requestTimeout)
	defer timer.Stop()
	for {
		s.mu.Lock()
		ok, at, err := cond(s), s.lastAt, s.err
		s.mu.Unlock()
		if err != nil {
			return at, err
		}
		if ok {
			return at, nil
		}
		select {
		case <-s.wake:
		case <-timer.C:
			return at, fmt.Errorf("timed out after %v waiting for subscription deltas", requestTimeout)
		case <-ctx.Done():
			return at, ctx.Err()
		}
	}
}

// close ends the stream and waits for the reader to exit.
func (s *subscriber) close() {
	s.cancel()
	<-s.done
}
