package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"videodb/internal/core"
)

// promValue extracts the value of a single-sample metric from a
// Prometheus text exposition body.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %q not found in exposition:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %q value %q: %v", name, m[1], err)
	}
	return v
}

func scrape(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)

	body, ctype := scrape(t, ts.URL)
	if ctype != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ctype)
	}

	// Prometheus-parseable shape: every non-comment line is `name{labels} value`.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9.eE+-]+$`)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
	for _, want := range []string{
		`videodb_query_errors_total{class="canceled"}`,
		`videodb_query_errors_total{class="limit"}`,
		`videodb_query_errors_total{class="invalid"}`,
		`videodb_query_duration_seconds_bucket{le="+Inf"}`,
		"videodb_query_duration_seconds_sum",
		"videodb_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}

	q0 := promValue(t, body, "videodb_queries_total")
	d0 := promValue(t, body, "videodb_query_duration_seconds_count")

	// One good query, one invalid query: counters must rise accordingly.
	postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- Interval(G)."})
	postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- nope((("})

	body2, _ := scrape(t, ts.URL)
	if q1 := promValue(t, body2, "videodb_queries_total"); q1 != q0+2 {
		t.Errorf("queries_total %g -> %g, want +2", q0, q1)
	}
	if d1 := promValue(t, body2, "videodb_query_duration_seconds_count"); d1 != d0+2 {
		t.Errorf("duration count %g -> %g, want +2", d0, d1)
	}
	if hist := promValue(t, body2, "videodb_query_duration_seconds_count"); hist <= 0 {
		t.Errorf("histogram count = %g", hist)
	}

	// Histogram buckets are cumulative and monotone, ending at count.
	re := regexp.MustCompile(`videodb_query_duration_seconds_bucket\{le="[^"]*"\} ([0-9]+)`)
	var prev float64 = -1
	var last float64
	for _, m := range re.FindAllStringSubmatch(body2, -1) {
		v, _ := strconv.ParseFloat(m[1], 64)
		if v < prev {
			t.Errorf("histogram buckets not monotone: %g after %g", v, prev)
		}
		prev, last = v, v
	}
	if count := promValue(t, body2, "videodb_query_duration_seconds_count"); last != count {
		t.Errorf("+Inf bucket %g != count %g", last, count)
	}
}

func TestMetricsErrorClasses(t *testing.T) {
	db := core.New()
	if _, err := db.LoadScript(`
object o1 { name: "a" }.
e(o1, o1).
`); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	body, _ := scrape(t, ts.URL)
	inv0 := promValue(t, body, `videodb_query_errors_total{class="invalid"}`)

	postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- broken(("})
	body2, _ := scrape(t, ts.URL)
	if inv1 := promValue(t, body2, `videodb_query_errors_total{class="invalid"}`); inv1 != inv0+1 {
		t.Errorf("invalid errors %g -> %g, want +1", inv0, inv1)
	}
}

func TestStatsMergesEngineTotals(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- Interval(G)."})

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 4 {
		t.Errorf("store stats lost: %+v", st.Stats)
	}
	if st.Engine.Queries < 1 {
		t.Errorf("engine totals missing: %+v", st.Engine)
	}
	if st.Uptime < 0 {
		t.Errorf("uptime = %g", st.Uptime)
	}
}

func TestSlowQueryLog(t *testing.T) {
	db := core.New()
	if _, err := db.LoadScript(`
object o1 { name: "a" }.
e(o1, o1).
`); err != nil {
		t.Fatal(err)
	}

	// Threshold 0ns-above-everything: every query logs.
	var buf bytes.Buffer
	srv := New(db, WithSlowQueryLog(time.Nanosecond, log.New(&buf, "", 0)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- e(X, Y)."})
	if got := buf.String(); !strings.Contains(got, "slow query") || !strings.Contains(got, "e(X, Y)") {
		t.Errorf("expected a slow-query line, got %q", got)
	}

	// A threshold far above any test query: nothing logs.
	var quiet bytes.Buffer
	srv2 := New(db, WithSlowQueryLog(time.Hour, log.New(&quiet, "", 0)))
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	postJSON(t, ts2.URL+"/v1/query", map[string]string{"query": "?- e(X, Y)."})
	if quiet.Len() != 0 {
		t.Errorf("sub-threshold query logged: %q", quiet.String())
	}
}

func TestAccessLog(t *testing.T) {
	db := core.New()
	var buf bytes.Buffer
	srv := New(db, WithAccessLog(log.New(&buf, "", 0)))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := buf.String(); !strings.Contains(got, "GET /v1/stats 200") {
		t.Errorf("access log = %q", got)
	}
}

func TestQueryProfileField(t *testing.T) {
	ts := testServer(t)
	resp, out := postJSON(t, ts.URL+"/v1/query",
		map[string]interface{}{"query": "?- Interval(G).", "profile": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %v", resp.StatusCode, out)
	}
	raw, ok := out["profile"]
	if !ok {
		t.Fatal("profiled query response has no profile field")
	}
	var prof struct {
		Rounds  []json.RawMessage `json:"rounds"`
		TotalNs int64             `json:"totalNs"`
	}
	if err := json.Unmarshal(raw, &prof); err != nil {
		t.Fatal(err)
	}
	if len(prof.Rounds) == 0 || prof.TotalNs <= 0 {
		t.Errorf("profile = %s", raw)
	}

	// Unprofiled queries must not carry the field.
	_, plain := postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- Interval(G)."})
	if _, ok := plain["profile"]; ok {
		t.Error("unprofiled query response carries a profile field")
	}
}

func TestPprofGated(t *testing.T) {
	dbOff := core.New()
	off := httptest.NewServer(New(dbOff))
	t.Cleanup(off.Close)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without WithPprof")
	}

	dbOn := core.New()
	on := httptest.NewServer(New(dbOn, WithPprof()))
	t.Cleanup(on.Close)
	resp2, err := http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d with WithPprof", resp2.StatusCode)
	}
}
