package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"videodb/internal/core"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	db := core.New()
	_, err := db.LoadScript(`
interval gi1 { duration: (t > 0 and t < 30), entities: {o1, o2} }.
interval gi2 { duration: (t > 40 and t < 80), entities: {o1} }.
object o1 { name: "David" }.
object o2 { name: "Philip" }.
in(o1, o2, gi1).
`)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	ts := httptest.NewServer(srv)
	// Cleanups run last-registered first: the server's subscriptions and
	// webhook deliveries, then the HTTP server, then the database.
	t.Cleanup(func() { db.Close() })
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestQueryEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, out := postJSON(t, ts.URL+"/v1/query",
		map[string]string{"query": "?- Interval(G), o1 in G.entities."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %v", resp.StatusCode, out)
	}
	var rows [][]json.RawMessage
	if err := json.Unmarshal(out["rows"], &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
	var cols []string
	json.Unmarshal(out["columns"], &cols)
	if len(cols) != 1 || cols[0] != "G" {
		t.Errorf("columns = %v", cols)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- broken("})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("parse error status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/query", map[string]string{"query": ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/query", map[string]string{"nope": "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d", resp.StatusCode)
	}
	// GET on a POST endpoint.
	getResp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", getResp.StatusCode)
	}
	if allow := getResp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("Allow = %q", allow)
	}
}

func TestRulesEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/rules",
		map[string]string{"rule": "together(G) :- Interval(G), {o1, o2} subset G.entities"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("define rule status = %d", resp.StatusCode)
	}
	// The rule is visible and usable.
	getResp, err := http.Get(ts.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var listed struct {
		Rules []string `json:"rules"`
	}
	if err := json.NewDecoder(getResp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if len(listed.Rules) != 1 || !strings.Contains(listed.Rules[0], "together") {
		t.Errorf("rules = %v", listed.Rules)
	}
	resp, out := postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- together(G)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %v", resp.StatusCode, out)
	}
	var rows []json.RawMessage
	json.Unmarshal(out["rows"], &rows)
	if len(rows) != 1 {
		t.Errorf("together rows = %d", len(rows))
	}
	// Bad rule rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/rules", map[string]string{"rule": "broken("})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad rule status = %d", resp.StatusCode)
	}
}

func TestScriptEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, out := postJSON(t, ts.URL+"/v1/script", map[string]string{"script": `
object o3 { name: "Brandon" }.
?- Object(O), O.name = "Brandon".
`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("script status = %d: %v", resp.StatusCode, out)
	}
	var results []ResultJSON
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].Rows) != 1 {
		t.Errorf("results = %+v", results)
	}
}

func TestObjectEndpoints(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/objects")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listed struct {
		Objects []struct{ OID, Kind string } `json:"objects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if len(listed.Objects) != 4 {
		t.Errorf("objects = %v", listed.Objects)
	}

	one, err := http.Get(ts.URL + "/v1/objects/o1")
	if err != nil {
		t.Fatal(err)
	}
	defer one.Body.Close()
	if one.StatusCode != http.StatusOK {
		t.Errorf("object status = %d", one.StatusCode)
	}
	missing, err := http.Get(ts.URL + "/v1/objects/zzz")
	if err != nil {
		t.Fatal(err)
	}
	defer missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("missing object status = %d", missing.StatusCode)
	}
}

func TestStatsAndExplain(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct{ Objects, Intervals, Entities int }
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 4 || st.Intervals != 2 {
		t.Errorf("stats = %+v", st)
	}
	r2, out := postJSON(t, ts.URL+"/v1/explain",
		map[string]string{"query": "?- Interval(G), o1 in G.entities."})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("explain status = %d", r2.StatusCode)
	}
	var plan struct {
		Plan string `json:"plan"`
	}
	raw, _ := json.Marshal(map[string]json.RawMessage(out))
	if err := json.Unmarshal(raw, &plan); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Plan, "stratum 0") {
		t.Errorf("plan = %q", plan.Plan)
	}
}

func TestConcurrentQueriesAndRuleChanges(t *testing.T) {
	ts := testServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if i%3 == 0 {
					postJSONQuiet(t, ts.URL+"/v1/rules", map[string]string{
						"rule": fmt.Sprintf("r%d_%d(G) :- Interval(G)", i, j)})
				} else {
					postJSONQuiet(t, ts.URL+"/v1/query", map[string]string{
						"query": "?- Interval(G), o1 in G.entities."})
				}
			}
		}(i)
	}
	wg.Wait()
}

func postJSONQuiet(t *testing.T, url string, body interface{}) {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Error(err)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("%s: status %d", url, resp.StatusCode)
	}
}
