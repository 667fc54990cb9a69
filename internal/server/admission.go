package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Admission control: a per-tenant concurrency limiter with a bounded,
// deadline-aware FIFO wait queue in front of every evaluation endpoint
// (query, vet, explain, script, view create/read, subscription
// registration). The contract, from the client's side:
//
//   - up to MaxConcurrent evaluations per tenant run at once;
//   - the next QueueDepth requests wait their turn in FIFO order,
//     abandoning the queue the moment their request context dies;
//   - anything beyond that is refused immediately with 429 and a
//     Retry-After hint — the server never accepts work it already knows
//     it cannot run. 503 stays reserved for work that was accepted and
//     then shed (deadline expiry mid-evaluation, shutdown).
//
// Tenants are identified by the X-API-Key header when present, else by
// the request's remote address; PerTenant=false collapses everyone into
// one class, making the limits global. Cheap metadata endpoints
// (/v1/rules GET, /v1/objects, /v1/stats, /metrics) stay outside the
// limiter so an overloaded server remains observable.

// AdmissionConfig bounds concurrent evaluation work.
type AdmissionConfig struct {
	// MaxConcurrent is the number of evaluations one tenant may run at
	// once. <= 0 disables admission control entirely.
	MaxConcurrent int

	// QueueDepth is how many requests per tenant may wait for a slot
	// beyond MaxConcurrent; 0 means reject the moment all slots are busy.
	QueueDepth int

	// PerTenant keys the limits by tenant (X-API-Key, else remote host).
	// False applies them to all traffic as one class.
	PerTenant bool

	// RetryAfter is the hint sent with 429 responses; 0 means one second.
	RetryAfter time.Duration
}

// WithAdmission puts the server's evaluation endpoints behind admission
// control. A zero or negative MaxConcurrent leaves the server unlimited.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) {
		if cfg.MaxConcurrent <= 0 {
			s.admission = nil
			return
		}
		if cfg.QueueDepth < 0 {
			cfg.QueueDepth = 0
		}
		if cfg.RetryAfter <= 0 {
			cfg.RetryAfter = time.Second
		}
		s.admission = &admission{
			cfg:     cfg,
			m:       s.metrics,
			tenants: make(map[string]*tenantQueue),
		}
	}
}

// Rejection reasons. errAdmissionQueueFull maps to 429 (the client can
// back off and retry); errAdmissionClosed to 503 (the server is going
// away and queued work will never run).
var (
	errAdmissionQueueFull = errors.New("server at capacity, retry later")
	errAdmissionClosed    = errors.New("server is shutting down")
)

// waiter is one queued request. ready is closed exactly once, after err
// and admitted are final (both guarded by admission.mu), so the waking
// request reads them without further synchronization.
type waiter struct {
	ready    chan struct{}
	err      error // nil = admitted; set before ready closes
	admitted bool  // a slot was transferred to this waiter
}

// tenantQueue is one tenant's slots and FIFO wait line.
type tenantQueue struct {
	inFlight int
	waiters  []*waiter
}

// admission is the limiter shared by all evaluation handlers.
type admission struct {
	cfg AdmissionConfig
	m   *metrics

	mu      sync.Mutex
	tenants map[string]*tenantQueue
	closed  bool
}

// tenantKey classifies one request. The key space is unbounded (one
// entry per API key or source host), but empty tenantQueues are removed
// on release, so resident state tracks live traffic, not history.
func (a *admission) tenantKey(r *http.Request) string {
	if !a.cfg.PerTenant {
		return ""
	}
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// admit acquires an evaluation slot for tenant, waiting in FIFO order
// behind earlier arrivals when all slots are busy. It returns a release
// function (call exactly once, when the evaluation finishes) or an
// error: errAdmissionQueueFull, errAdmissionClosed, or ctx's error if
// the request died while queued.
func (a *admission) admit(ctx context.Context, tenant string) (func(), error) {
	began := time.Now()
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, errAdmissionClosed
	}
	tq := a.tenants[tenant]
	if tq == nil {
		tq = &tenantQueue{}
		a.tenants[tenant] = tq
	}
	if tq.inFlight < a.cfg.MaxConcurrent {
		tq.inFlight++
		a.mu.Unlock()
		a.m.admAdmitted.Add(1)
		a.m.admWait.observe(time.Since(began))
		return func() { a.release(tenant) }, nil
	}
	if len(tq.waiters) >= a.cfg.QueueDepth {
		a.maybeDropLocked(tenant, tq)
		a.mu.Unlock()
		a.m.admRejected.Add(1)
		return nil, errAdmissionQueueFull
	}
	w := &waiter{ready: make(chan struct{})}
	tq.waiters = append(tq.waiters, w)
	a.mu.Unlock()
	a.m.admQueued.Add(1)

	select {
	case <-w.ready:
		if w.err != nil {
			return nil, w.err
		}
		a.m.admAdmitted.Add(1)
		a.m.admWait.observe(time.Since(began))
		return func() { a.release(tenant) }, nil
	case <-ctx.Done():
		a.mu.Lock()
		if w.admitted {
			// Lost the race: release already handed this waiter a slot.
			// Pass it on rather than strand it.
			a.mu.Unlock()
			a.release(tenant)
			return nil, ctx.Err()
		}
		if w.err != nil {
			// close() rejected this waiter in the same instant.
			a.mu.Unlock()
			return nil, w.err
		}
		if tq := a.tenants[tenant]; tq != nil {
			for i, qw := range tq.waiters {
				if qw == w {
					tq.waiters = append(tq.waiters[:i], tq.waiters[i+1:]...)
					break
				}
			}
			a.maybeDropLocked(tenant, tq)
		}
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// release returns one slot: the longest-queued waiter inherits it, or —
// with nobody waiting — the tenant's in-flight count drops and an idle
// tenant's record is removed.
func (a *admission) release(tenant string) {
	a.mu.Lock()
	tq := a.tenants[tenant]
	if tq == nil {
		a.mu.Unlock()
		return
	}
	if len(tq.waiters) > 0 {
		w := tq.waiters[0]
		tq.waiters = tq.waiters[1:]
		w.admitted = true
		close(w.ready) // inFlight unchanged: the slot transfers
		a.mu.Unlock()
		return
	}
	if tq.inFlight > 0 {
		tq.inFlight--
	}
	a.maybeDropLocked(tenant, tq)
	a.mu.Unlock()
}

// maybeDropLocked removes an idle tenant's record. Caller holds mu.
func (a *admission) maybeDropLocked(tenant string, tq *tenantQueue) {
	if tq.inFlight == 0 && len(tq.waiters) == 0 {
		delete(a.tenants, tenant)
	}
}

// close drains the limiter for shutdown: queued waiters are rejected
// (their work never started, so 503 is honest), while already-admitted
// requests keep their slots and release normally.
func (a *admission) close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	for tenant, tq := range a.tenants {
		for _, w := range tq.waiters {
			w.err = errAdmissionClosed
			close(w.ready)
		}
		tq.waiters = nil
		a.maybeDropLocked(tenant, tq)
	}
	a.mu.Unlock()
}

// occupancy snapshots current limiter state for /v1/stats and /metrics.
func (a *admission) occupancy() (inFlight, waiting, tenants int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, tq := range a.tenants {
		inFlight += tq.inFlight
		waiting += len(tq.waiters)
	}
	return inFlight, waiting, len(a.tenants)
}

// AdmissionStats is the admission section of /v1/stats.
type AdmissionStats struct {
	Enabled       bool   `json:"enabled"`
	MaxConcurrent int    `json:"maxConcurrent,omitempty"`
	QueueDepth    int    `json:"queueDepth,omitempty"`
	PerTenant     bool   `json:"perTenant,omitempty"`
	Admitted      uint64 `json:"admitted"`
	Rejected      uint64 `json:"rejected"`
	Queued        uint64 `json:"queued"`
	InFlight      int    `json:"inFlight"`
	Waiting       int    `json:"waiting"`
	Tenants       int    `json:"tenants"`
}

// admit gates one evaluation request through admission control. The
// returned release is never nil; when ok is false the response has
// already been written and the handler must return without evaluating.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.admission == nil {
		return func() {}, true
	}
	release, err := s.admission.admit(r.Context(), s.admission.tenantKey(r))
	if err == nil {
		return release, true
	}
	switch {
	case errors.Is(err, errAdmissionQueueFull):
		secs := int(math.Ceil(s.admission.cfg.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, errAdmissionClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		// The request died while queued. Nobody is reading the response,
		// but writing the 499 records the real status in the access log.
		writeError(w, statusClientGone, fmt.Errorf("request abandoned while queued: %w", err))
	}
	return func() {}, false
}
