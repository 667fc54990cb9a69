package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"videodb/internal/core"
	"videodb/internal/object"
)

func viewTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	db := core.New()
	for _, r := range []string{
		"reach(X, Y) :- edge(X, Y)",
		"reach(X, Z) :- reach(X, Y), edge(Y, Z)",
	} {
		if err := db.DefineRule(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if err := db.Relate("edge", object.OID(e[0]), object.OID(e[1])); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)
	// Keep a handle for mutating mid-test.
	viewTestDB = db
	return ts
}

var viewTestDB *core.DB

func getJSON(t *testing.T, url string) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Get(url)
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

func TestViewEndpoints(t *testing.T) {
	ts := viewTestServer(t)

	// Create.
	resp, out := postJSON(t, ts.URL+"/v1/views",
		map[string]string{"name": "closure", "goal": "?- reach(X, Y)"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create status = %d: %v", resp.StatusCode, out)
	}
	var mode string
	if err := json.Unmarshal(out["mode"], &mode); err != nil || mode != "recompute" {
		t.Fatalf("create mode = %q (%v)", mode, err)
	}
	var rows [][]json.RawMessage
	if err := json.Unmarshal(out["rows"], &rows); err != nil || len(rows) != 3 {
		t.Fatalf("create rows = %d (%v)", len(rows), err)
	}

	// Duplicate create conflicts.
	resp, _ = postJSON(t, ts.URL+"/v1/views",
		map[string]string{"name": "closure", "goal": "?- reach(X, Y)"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate status = %d, want 409", resp.StatusCode)
	}

	// Read without mutations: cached.
	resp, out = getJSON(t, ts.URL+"/v1/views/closure")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(out["mode"], &mode); err != nil || mode != "cached" {
		t.Fatalf("idle read mode = %q", mode)
	}

	// Mutate, read again: incremental, one more row pair.
	if err := viewTestDB.Relate("edge", "c", "d"); err != nil {
		t.Fatal(err)
	}
	resp, out = getJSON(t, ts.URL+"/v1/views/closure")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation read status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(out["mode"], &mode); err != nil || mode != "incremental" {
		t.Fatalf("post-mutation mode = %q", mode)
	}
	if err := json.Unmarshal(out["rows"], &rows); err != nil || len(rows) != 6 {
		t.Fatalf("post-mutation rows = %d", len(rows))
	}

	// List.
	resp, out = getJSON(t, ts.URL+"/v1/views")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	var infos []core.ViewInfo
	if err := json.Unmarshal(out["views"], &infos); err != nil || len(infos) != 1 {
		t.Fatalf("list = %v (%v)", infos, err)
	}
	if infos[0].Name != "closure" || infos[0].Rows != 6 || infos[0].IncrementalRuns != 1 {
		t.Fatalf("list info = %+v", infos[0])
	}

	// Metrics expose the maintenance counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`videodb_view_maintenance_total{mode="cached"} 1`,
		`videodb_view_maintenance_total{mode="incremental"} 1`,
		`videodb_view_maintenance_total{mode="recompute"} 1`,
		"videodb_view_errors_total 1", // the duplicate create above
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Delete; a second delete and a read both 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/views/closure", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status = %d, want 404", dresp2.StatusCode)
	}
	resp, _ = getJSON(t, ts.URL+"/v1/views/closure")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("read after delete status = %d, want 404", resp.StatusCode)
	}
}

func TestViewEndpointValidation(t *testing.T) {
	ts := viewTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/views", map[string]string{"name": "", "goal": "?- reach(X, Y)"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty name status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/views", map[string]string{"name": "v", "goal": "?- reach(X"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad goal status = %d, want 422", resp.StatusCode)
	}
}

// TestViewStatsMatchQueryStats: a view reports the same run counters as
// the one-shot query over the same goal, createdObjects included, both
// when it is created and when it is read back.
func TestViewStatsMatchQueryStats(t *testing.T) {
	script, err := os.ReadFile("../../examples/scripts/editing.vql")
	if err != nil {
		t.Fatal(err)
	}
	db := core.New()
	if _, err := db.LoadScript(string(script)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)

	stats := func(what string, resp *http.Response, out map[string]json.RawMessage) statsJSON {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, resp.StatusCode, out["error"])
		}
		var st statsJSON
		if err := json.Unmarshal(out["stats"], &st); err != nil {
			t.Fatalf("%s: stats: %v", what, err)
		}
		return st
	}
	resp, out := postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- stitched(G)."})
	query := stats("query", resp, out)
	if query.CreatedObjects != 1 {
		t.Fatalf("query createdObjects = %d, want 1", query.CreatedObjects)
	}
	resp, out = postJSON(t, ts.URL+"/v1/views", map[string]string{"name": "stitched", "goal": "?- stitched(G)"})
	if got := stats("view create", resp, out); got != query {
		t.Errorf("view create stats = %+v, query stats = %+v", got, query)
	}
	resp, out = getJSON(t, ts.URL+"/v1/views/stitched")
	if got := stats("view read", resp, out); got != query {
		t.Errorf("view read stats = %+v, query stats = %+v", got, query)
	}
}
