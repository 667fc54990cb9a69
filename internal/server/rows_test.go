package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"videodb/internal/core"
	"videodb/internal/datalog"
	"videodb/internal/datalog/analyze"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// The row writer's bodies must be byte-identical to what writeJSON —
// encoding/json over the same wire struct — writes. Value encoding
// itself (AppendJSON against the legacy tagged struct) is pinned in the
// object package; these tests pin the framing: the members around the
// rows, the row arrays, the 32 KiB flushes, and the trailing newline.

// randomWireValue draws values whose encoding departs from the obvious:
// HTML and control characters, line separators, invalid UTF-8, floats
// at the 'e'-notation cutoffs, empty and nested sets, temporal values.
func randomWireValue(r *rand.Rand, depth int) object.Value {
	pieces := []string{"a", "<", ">", "&", `"`, `\`, "\x00", "\x1f", "\n", " ", " ", "\xff", "é", "∪"}
	str := func() string {
		var b strings.Builder
		for i := r.Intn(5); i > 0; i-- {
			b.WriteString(pieces[r.Intn(len(pieces))])
		}
		return b.String()
	}
	floats := []float64{0, 1, -2.5, 1e-6, 9.99e-7, 1e-7, 1e20, 9.99e20, 1e21, 2.5e21, -1e21}
	switch k := r.Intn(7); {
	case k == 0:
		return object.Str(str())
	case k == 1:
		return object.Num(floats[r.Intn(len(floats))] * (1 + float64(r.Intn(3))/7))
	case k == 2:
		return object.Ref(object.OID(str()))
	case k == 3:
		lo := float64(r.Intn(50))
		return object.Temporal(interval.FromPairs(lo, lo+1+float64(r.Intn(9))))
	case k == 4:
		return object.Null()
	case depth == 0:
		return object.Set()
	default:
		elems := make([]object.Value, r.Intn(3))
		for i := range elems {
			elems[i] = randomWireValue(r, depth-1)
		}
		return object.Set(elems...)
	}
}

func randomWireRows(r *rand.Rand, n, arity int) [][]object.Value {
	if n == 0 && r.Intn(2) == 0 {
		return nil
	}
	rows := make([][]object.Value, n)
	for i := range rows {
		rows[i] = make([]object.Value, arity)
		for j := range rows[i] {
			rows[i][j] = randomWireValue(r, 2)
		}
	}
	return rows
}

// randomResultSet draws a result with optional created objects, profile
// and lint diagnostics.
func randomResultSet(r *rand.Rand, maxRows int) (*core.ResultSet, []analyze.Diagnostic) {
	arity := r.Intn(4)
	var cols []string
	for i := 0; i < arity; i++ {
		cols = append(cols, fmt.Sprintf("V%d", i))
	}
	rs := &core.ResultSet{
		Columns: cols,
		Rows:    randomWireRows(r, r.Intn(maxRows+1), arity),
		Stats:   datalog.RunStats{Rounds: r.Intn(5), Derived: r.Intn(100), Created: r.Intn(3), SolverSteps: int64(r.Intn(2)) * 17},
	}
	if r.Intn(3) == 0 {
		rs.Created = []*object.Object{
			object.NewInterval("g1+g2", interval.FromPairs(0, 5, 10, 20)).
				Set(object.AttrEntities, object.RefSet("o<1>", "o&2")),
			object.NewEntity("e ").Set("name", randomWireValue(r, 1)),
		}
	}
	if r.Intn(3) == 0 {
		rs.Profile = &datalog.Profile{
			Rules:       []datalog.RuleProfile{{Rule: "p(X) :- q(X, \"<&>\").", Evals: 2, Firings: 3, Derived: 1, Time: time.Microsecond}},
			Rounds:      []datalog.RoundProfile{{Round: 1, Tasks: 2, Firings: 3, Derived: 1, Time: 2 * time.Microsecond}},
			Total:       time.Millisecond,
			SolverSteps: 9,
		}
	}
	var diags []analyze.Diagnostic
	if r.Intn(3) == 0 {
		diags = []analyze.Diagnostic{{
			Severity: analyze.SeverityWarn, Code: "VQL0005", Pos: datalog.Pos{Line: 1, Col: 4},
			Message: "singleton variable <X> & more", Suggestion: "rename to _X",
		}}
	}
	return rs, diags
}

type recorded struct {
	status int
	ctype  string
	body   string
}

func record(f func(w http.ResponseWriter)) recorded {
	rec := httptest.NewRecorder()
	f(rec)
	return recorded{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
}

func sameResponse(t *testing.T, what string, got, want recorded) {
	t.Helper()
	if got.status != want.status || got.ctype != want.ctype {
		t.Fatalf("%s: status %d %q, writeJSON %d %q", what, got.status, got.ctype, want.status, want.ctype)
	}
	if got.body != want.body {
		t.Fatalf("%s: body differs from writeJSON\n got %.400q\nwant %.400q", what, got.body, want.body)
	}
}

func TestRowWriterMatchesWriteJSON(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		maxRows := 12
		if i%50 == 0 {
			maxRows = 3000 // bodies past several 32 KiB flushes
		}

		rs, diags := randomResultSet(r, maxRows)
		out := resultJSON(rs)
		out.Diagnostics = diags
		want := record(func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, out) })
		got := record(func(w http.ResponseWriter) { writeResult(w, out) })
		sameResponse(t, fmt.Sprintf("query %d", i), got, want)

		results := make([]ResultJSON, r.Intn(4))
		for j := range results {
			rs, _ := randomResultSet(r, maxRows/4)
			results[j] = resultJSON(rs)
		}
		want = record(func(w http.ResponseWriter) {
			writeJSON(w, http.StatusOK, map[string]interface{}{"results": results})
		})
		got = record(func(w http.ResponseWriter) {
			var b rowBody
			b.raw(`{"results":[`)
			for j, res := range results {
				if j > 0 {
					b.raw(",")
				}
				b.result(res)
			}
			b.raw("]}")
			b.write(w, http.StatusOK)
		})
		sameResponse(t, fmt.Sprintf("script %d", i), got, want)

		vr := &core.ViewResult{
			Name: "v<&>", Columns: rs.Columns, Rows: rs.Rows, Mode: core.ViewIncremental,
			AppliedInserts: r.Intn(4), AppliedDeletes: r.Intn(4), Stats: rs.Stats,
		}
		want = record(func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, viewJSON(vr)) })
		got = record(func(w http.ResponseWriter) { writeView(w, viewJSON(vr)) })
		sameResponse(t, fmt.Sprintf("view %d", i), got, want)
	}
}

// TestNonFiniteNumberIs500: a row, a view row or an object attribute
// holding NaN or ±Inf has no JSON form. Each endpoint answers 500 with
// an error body — never a 200 whose body stops short.
func TestNonFiniteNumberIs500(t *testing.T) {
	db := core.New()
	if _, err := db.Store().AddFactErr(store.NewFact("m", object.Str("ok"), object.Num(math.NaN()))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Store().AddFactErr(store.NewFact("m", object.Str("inf"), object.Set(object.Num(math.Inf(-1))))); err != nil {
		t.Fatal(err)
	}
	if err := db.Store().Put(object.NewEntity("x").Set("score", object.Num(math.Inf(1)))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(ts.Close)

	check := func(what string, resp *http.Response, out map[string]json.RawMessage) {
		t.Helper()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500", what, resp.StatusCode)
		}
		if _, ok := out["error"]; !ok {
			t.Errorf("%s: body %v has no error", what, out)
		}
	}
	resp, out := postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- m(A, B)."})
	check("query", resp, out)
	resp, out = postJSON(t, ts.URL+"/v1/query", map[string]string{"query": `?- m("inf", B).`})
	check("bound query", resp, out)
	resp, out = postJSON(t, ts.URL+"/v1/script", map[string]string{"script": "?- m(A, B)."})
	check("script", resp, out)
	resp, out = postJSON(t, ts.URL+"/v1/views", map[string]string{"name": "nan", "goal": "?- m(A, B)"})
	check("view create", resp, out)
	resp, out = getJSON(t, ts.URL+"/v1/views/nan")
	check("view read", resp, out)
	resp, out = getJSON(t, ts.URL+"/v1/objects/x")
	check("object", resp, out)

	// A finite answer from the same store still encodes.
	resp, out = postJSON(t, ts.URL+"/v1/query", map[string]string{"query": "?- Object(O)."})
	if resp.StatusCode != http.StatusOK || out["rows"] == nil {
		t.Errorf("finite query: status %d, body %v", resp.StatusCode, out)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so allocation
// counts are the writer's own.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header       { return d.h }
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) WriteHeader(int)             {}

// scanResult is a result shaped like a scan answer: n rows of two
// references and a number.
func scanResult(n int) ResultJSON {
	rows := make([][]object.Value, n)
	for i := range rows {
		rows[i] = []object.Value{
			object.Ref(object.OID(fmt.Sprintf("o%d", i%97))),
			object.Ref(object.OID(fmt.Sprintf("o%d", i%89))),
			object.Num(float64(i) / 4),
		}
	}
	return resultJSON(&core.ResultSet{Columns: []string{"A", "B", "S"}, Rows: rows})
}

// TestRowWriterAllocsConstant guards against per-row reflection creeping
// back: a 5,000-row body costs the same allocations as a 50-row one.
func TestRowWriterAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		out := scanResult(n)
		w := discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(50, func() { writeResult(w, out) })
	}
	small, large := allocs(50), allocs(5000)
	if large > small+1 {
		t.Fatalf("writing 5000 rows: %.0f allocations, 50 rows: %.0f — the writer allocates per row", large, small)
	}
}

func BenchmarkWriteResultJSON(b *testing.B) {
	out := scanResult(5000)
	b.SetBytes(int64(len(record(func(w http.ResponseWriter) { writeResult(w, out) }).body)))
	w := discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeResult(w, out)
	}
}
