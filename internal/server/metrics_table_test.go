package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"videodb/internal/core"
	"videodb/internal/datalog/analyze"
	"videodb/internal/store"
)

// fixtureSnapshot is a fixed server state: every counter non-zero and
// distinct, the segment backend, admission on, two vet codes, and a
// fixed uptime. testdata/metrics.golden is this state rendered by the
// hand-written exposition the table replaced; it is never regenerated.
func fixtureSnapshot() (*metrics, StatsResponse) {
	m := &metrics{}
	for i, c := range []*atomic.Uint64{
		&m.requests, &m.queries, &m.errCanceled, &m.errClientGone, &m.errLimit, &m.errInvalid,
		&m.admAdmitted, &m.admRejected, &m.admQueued, &m.rounds, &m.derived, &m.solverSteps,
		&m.viewCached, &m.viewIncr, &m.viewRecomputed, &m.viewErrors,
		&m.subDeltasPlus, &m.subDeltasMinus, &m.subSnapshots, &m.subWebhookRetries, &m.subWebhookDropped,
	} {
		c.Store(uint64(101 + i))
	}
	m.recordVet([]analyze.Diagnostic{{Code: "VQL0003"}, {Code: "VQL0001"}, {Code: "VQL0003"}})
	for _, d := range []time.Duration{300 * time.Microsecond, 40 * time.Millisecond, 3 * time.Second, 20 * time.Second} {
		m.latency.observe(d)
	}
	m.admWait.observe(0)
	m.admWait.observe(2 * time.Millisecond)

	snap := StatsResponse{
		PlanCache: core.PlanCacheStats{Hits: 201, Misses: 202, Evictions: 203, Entries: 204},
		Backend: store.BackendStats{Kind: "segment", Segments: 301, SegmentFacts: 302, Tombstones: 303,
			MemtableFacts: 304, DictValues: 305, CacheHits: 306, CacheMisses: 307, CacheEvictions: 308,
			CacheBytes: 309, CacheBudget: 64 << 20, CachedBlocks: 311, Flushes: 312, Compactions: 313, ReadErrors: 314},
		Subscriptions: core.SubTotals{Active: 401, Opened: 402, DeltasPlus: 403, DeltasMinus: 404, Dropped: 405, Resyncs: 406},
		Admission:     AdmissionStats{Enabled: true, MaxConcurrent: 4, QueueDepth: 8, InFlight: 3, Waiting: 5, Tenants: 2},
		Uptime:        (90*time.Second + 250*time.Millisecond).Seconds(),
	}
	m.fill(&snap)
	return m, snap
}

// TestMetricsExpositionGolden: the table renders the fixed state byte
// for byte as the hand-written exposition did.
func TestMetricsExpositionGolden(t *testing.T) {
	m, snap := fixtureSnapshot()
	var b bytes.Buffer
	m.writeProm(&b, &snap)
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition differs from testdata/metrics.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
	}
}

// TestMetricNames: every family of the exposition (table rows, the two
// histograms, uptime) is named videodb_[a-z0-9_]+ and declared once.
func TestMetricNames(t *testing.T) {
	m, snap := fixtureSnapshot()
	var b bytes.Buffer
	m.writeProm(&b, &snap)
	nameRE := regexp.MustCompile(`^videodb_[a-z0-9_]+$`)
	seen := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q violates the videodb_[a-z0-9_]+ convention", name)
		}
		if seen[name] {
			t.Errorf("metric %q is declared twice", name)
		}
		seen[name] = true
	}
	if len(seen) != len(promTable)+3 {
		t.Errorf("%d families rendered, want %d table rows + 2 histograms + uptime", len(seen), len(promTable))
	}
}

// TestStatsTotalsCoverWireCounters: reflection sets every atomic counter
// of metrics to a distinct value, and each value must appear both in
// GET /v1/stats and in GET /metrics. A counter added to metrics but
// left out of the snapshot or the table fails here.
func TestStatsTotalsCoverWireCounters(t *testing.T) {
	s := New(core.New())
	defer s.Close()
	mv := reflect.ValueOf(s.metrics).Elem()
	want := map[string]string{}
	for i := 0; i < mv.NumField(); i++ {
		f := mv.Type().Field(i)
		v := uint64(900_001 + 1_000*i)
		p := unsafe.Pointer(mv.Field(i).UnsafeAddr())
		switch f.Type {
		case reflect.TypeOf(atomic.Uint64{}):
			(*atomic.Uint64)(p).Store(v)
		case reflect.TypeOf(atomic.Int64{}):
			(*atomic.Int64)(p).Store(int64(v))
		default:
			continue
		}
		want[f.Name] = strconv.FormatUint(v, 10)
	}
	if len(want) == 0 {
		t.Fatal("no atomic counters found on metrics")
	}

	get := func(h http.HandlerFunc, path string) string {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec.Body.String()
	}

	// Every number anywhere in the /v1/stats document.
	var doc interface{}
	dec := json.NewDecoder(strings.NewReader(get(s.handleStats, "/v1/stats")))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	inStats := map[string]bool{}
	var walk func(interface{})
	walk = func(x interface{}) {
		switch x := x.(type) {
		case map[string]interface{}:
			for _, v := range x {
				walk(v)
			}
		case json.Number:
			inStats[x.String()] = true
		}
	}
	walk(doc)

	// Every sample value of the exposition.
	inProm := map[string]bool{}
	for _, line := range strings.Split(get(s.handleMetrics, "/metrics"), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			inProm[f[1]] = true
		}
	}

	for name, v := range want {
		if !inStats[v] {
			t.Errorf("counter %s (%s) is missing from /v1/stats", name, v)
		}
		if !inProm[v] {
			t.Errorf("counter %s (%s) is missing from /metrics", name, v)
		}
	}
}
