package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.90, 90}, {0.95, 95}, {0.99, 99}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

// op_p95_ms is p95 only with at least ten samples beyond it, else p90.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 0.95}, {200, 0.95}, {199, 0.90}, {12, 0.90}} {
		if got := opTailPercentile(c.n); got != c.want {
			t.Errorf("opTailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..5) = %v, want (4.5-1.5)/3 = 1", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestWindows(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	r := &loadRun{}
	for k := 0; k <= numWindows; k++ {
		r.edges = append(r.edges, boundary{at: sec(float64(k)), cpu: sec(float64(k) * 0.5), alloc: uint64(k) * 4096})
	}
	// Window 1: four ops of 10, 20, 30, 40 ms. Window 2: one ok, one failed.
	for i, d := range []float64{10, 20, 30, 40} {
		r.samples = append(r.samples, opSample{end: sec(0.1 + 0.2*float64(i)), dur: sec(d / 1000)})
	}
	r.samples = append(r.samples,
		opSample{end: sec(1.5), dur: sec(0.005)},
		opSample{end: sec(1.6), err: fmt.Errorf("boom")},
		// Still in flight at the last edge: dropped when ok, charged to
		// the last window when failed.
		opSample{end: sec(5.2), dur: sec(0.3)},
		opSample{end: sec(5.3), err: fmt.Errorf("late")},
	)
	// Resident set: one peak per window, the run's own highest in window 2.
	for k, mb := range []float64{50, 90, 60, 70, 40} {
		r.rss = append(r.rss, rssSample{at: sec(float64(k) + 0.3), mb: mb - 5}, rssSample{at: sec(float64(k) + 0.6), mb: mb})
	}
	ws := r.windows(0.95)
	if w := ws[0]; w.Attempted != 4 || w.OK != 4 || w.Failed != 0 || w.P50Ms != 20 || w.TailMs != 40 || w.OpsPerS != 4 {
		t.Errorf("window 1 = %+v", w)
	}
	if w := ws[0]; w.CPUMs != 125 || w.AllocKB != 1 {
		t.Errorf("window 1 per-op cost = %v ms, %v KiB; want 125, 1", w.CPUMs, w.AllocKB)
	}
	if w := ws[1]; w.Attempted != 2 || w.OK != 1 || w.Failed != 1 || w.P50Ms != 5 {
		t.Errorf("window 2 = %+v", w)
	}
	if w := ws[4]; w.Attempted != 1 || w.OK != 0 || w.Failed != 1 {
		t.Errorf("window 5 = %+v, want only the late failure", w)
	}
	attempted, failed, first := r.totals()
	if attempted != 8 || failed != 2 || first == nil {
		t.Errorf("totals = %d, %d, %v", attempted, failed, first)
	}
	m, _ := endToEnd(r, []float64{0.3, 0.1, 0.2})
	if m["setup_s"].Value != 0.2 || m["failed_share"].Value != 0.25 {
		t.Errorf("setup_s = %v, failed_share = %v", m["setup_s"].Value, m["failed_share"].Value)
	}
	if ws[1].PeakRSSMB != 90 || m["peak_rss_mb"].Value != 60 {
		t.Errorf("peak_rss_mb = %v with window 2 at %v; want the median window peak 60, window 2 at 90", m["peak_rss_mb"].Value, ws[1].PeakRSSMB)
	}
	if !strings.HasPrefix(m["op_p95_ms"].Note, "p90") {
		t.Errorf("6 ok ops must report p90 and say so, note = %q", m["op_p95_ms"].Note)
	}
	for _, e := range endToEndCatalog {
		if _, ok := m[e.name]; !ok {
			t.Errorf("endToEnd lacks %s", e.name)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(1)
	tr.began = time.Now().Add(-time.Hour) // spans are stamped by hand below
	op := tr.beginOp(0, 0)
	rt := op.begin(rootID, spanRoundtrip, "k", false)
	q := op.begin(rt, spanQuery, "k", true)
	p := op.begin(q, spanParse, "k", true)
	e := op.begin(q, spanEval, "k", true)
	for _, id := range []int{p, e, q, rt} {
		op.end(id)
	}
	op.count("derived", 7)
	op.endOp()
	set := func(id int, startMs, endMs int64) {
		s := &tr.clients[0][id-1]
		s.Start, s.End = startMs*1e6, endMs*1e6
	}
	set(rootID, 0, 100)
	set(rt, 0, 40)
	set(q, 40, 70) // replay: after the round trip, not inside it
	set(p, 70, 71)
	set(e, 71, 95)

	sum := tr.summarize()
	if sum.ops != 1 || sum.realOverruns != 0 || sum.replayOverrun != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	for _, c := range []struct {
		name       string
		dur, self_ float64
	}{{spanOp, 100, 60}, {spanRoundtrip, 40, 10}, {spanQuery, 30, 5}, {spanEval, 24, 24}} {
		if d, _ := sum.opMs(c.name); d != c.dur {
			t.Errorf("%s duration = %v, want %v", c.name, d, c.dur)
		}
		if s, _ := sum.selfMs(c.name); s != c.self_ {
			t.Errorf("%s self = %v, want %v", c.name, s, c.self_)
		}
	}
	if v, n := sum.spanMs(spanEval + "/k"); v != 24 || n != 1 {
		t.Errorf("tagged span = %v (n=%d), want 24", v, n)
	}
	if got := sum.total("derived"); got != 7 {
		t.Errorf("count total = %v, want 7", got)
	}

	// A replayed child longer than its parent is noise, counted; a real
	// child longer than its parent is a tracer bug.
	set(e, 71, 120)
	if sum := tr.summarize(); sum.replayOverrun != 1 || sum.realOverruns != 0 {
		t.Errorf("replay overrun: %+v", sum)
	}
	if s, _ := tr.summarize().selfMs(spanQuery); s != 0 {
		t.Errorf("self time under an overrun = %v, want floor 0", s)
	}
	set(e, 71, 95)
	set(rt, 0, 101)
	if sum := tr.summarize(); sum.realOverruns != 1 {
		t.Errorf("real overrun not detected: %+v", sum)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 {
		t.Fatalf("trace has %d lines, want 5", len(lines))
	}
	var first span
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Name != spanOp || first.Parent != 0 {
		t.Errorf("first span = %+v, %v", first, err)
	}
}

// hashOf hashes a generated sequence.
func hashOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func requestSequence(t *testing.T, kind string, seed int64) string {
	t.Helper()
	w := &queryWorkload{kind: kind}
	if err := w.prepare(&runConfig{Seed: seed, Quick: true}); err != nil {
		t.Fatal(err)
	}
	parts := []string{w.corpus.script}
	for c := 0; c < 2; c++ {
		g := w.gen(streamLoad, c)
		for i := 0; i < 200; i++ {
			for _, r := range g.next() {
				parts = append(parts, r.kind, r.text)
			}
		}
	}
	return hashOf(parts...)
}

func batchSequence(t *testing.T, seed int64) string {
	t.Helper()
	w := &ingestWorkload{}
	if err := w.prepare(&runConfig{Seed: seed, Quick: true}); err != nil {
		t.Fatal(err)
	}
	parts := []string{w.prologue}
	// Well into the second lap, where oids are renamed.
	for n := 0; n < len(w.shots)+w.window+5; n++ {
		s := w.at(n)
		parts = append(parts, s.oid, s.text)
	}
	return hashOf(parts...)
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	if a, b := requestSequence(t, "probe", 1), requestSequence(t, "probe", 1); a != b {
		t.Error("probe: same seed, different request sequence")
	}
	if a, b := requestSequence(t, "probe", 1), requestSequence(t, "probe", 2); a == b {
		t.Error("probe: different seeds, same request sequence")
	}
	if a, b := batchSequence(t, 1), batchSequence(t, 1); a != b {
		t.Error("ingest: same seed, different batch sequence")
	}
	if a, b := batchSequence(t, 1), batchSequence(t, 2); a == b {
		t.Error("ingest: different seeds, same batch sequence")
	}
	ra, rb := &rulesWorkload{}, &rulesWorkload{}
	if err := ra.prepare(&runConfig{Seed: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if err := rb.prepare(&runConfig{Seed: 2, Quick: true}); err != nil {
		t.Fatal(err)
	}
	if ra.rules == rb.rules {
		t.Error("rules: different seeds fixed the same three objects")
	}
}

func TestLapsRenameOnlyTheShot(t *testing.T) {
	s := shot{text: "interval shot0007 { kind: \"shot\" }.\nappears_with(obj001, obj002, shot0007).\n", oid: "shot0007"}
	l := s.inLap(3)
	if l.oid != "lap3shot0007" || strings.Count(l.text, "lap3shot0007") != 2 || !strings.Contains(l.text, `kind: "shot"`) {
		t.Errorf("lap 3 = %q %q", l.oid, l.text)
	}
	if got := s.inLap(0); got.oid != s.oid || got.text != s.text {
		t.Errorf("lap 0 must be the shot itself, got %q", got.oid)
	}
}

// The seed-1 archive is the corpus the README quotes, and every other
// seed's archive has its shape.
func TestArchiveShape(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seq, _, err := archiveSequence(seed)
		if err != nil {
			t.Fatal(err)
		}
		sh := shapeOf(seq)
		if !sh.near(archiveShape) {
			t.Errorf("seed %d: shape %+v is not near %+v", seed, sh, archiveShape)
		}
		if seed == 1 && sh != archiveShape {
			t.Errorf("seed 1: shape %+v, want exactly %+v", sh, archiveShape)
		}
	}
}

// pickTriple judges candidates with a model of the handoff and follows
// rules on shot indexes; the model must give the engine's own counts.
func TestTripleModelMatchesEngine(t *testing.T) {
	w := &rulesWorkload{}
	if err := w.prepare(&runConfig{Seed: 3, Quick: true}); err != nil {
		t.Fatal(err)
	}
	in := map[string][]bool{w.a: nil, w.b: nil, w.c: nil}
	for o := range in {
		in[o] = make([]bool, len(w.corpus.seq.Shots))
	}
	for i := range w.corpus.seq.Shots {
		for _, o := range w.corpus.seq.ShotObjects(i) {
			if _, ok := in[o]; ok {
				in[o][i] = true
			}
		}
	}
	runs := handoffRuns(in[w.a], in[w.b])
	db, err := w.corpus.load(w.rules)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	handoff, err := db.Query("?- handoff(G).")
	if err != nil {
		t.Fatal(err)
	}
	follows, err := db.Query("?- follows(G1, G2).")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 || handoff.Stats.Created != len(runs) {
		t.Errorf("handoff(%s, %s): engine created %d intervals, model %d", w.a, w.b, handoff.Stats.Created, len(runs))
	}
	if want := followsPairs(runs, in[w.c]); want == 0 || len(follows.Rows) != want {
		t.Errorf("follows(%s): engine has %d rows, model %d", w.c, len(follows.Rows), want)
	}
}

func TestCountRows(t *testing.T) {
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"columns":[],"rows":[],"stats":{}}`, 0},
		{`{"columns":["S"],"rows":[[{"ref":"shot0001"}],[{"ref":"shot0002"}]],"stats":{"rounds":1}}`, 2},
		{`{"columns":["A","B"],"rows":[[{"s":"a ]] \" [["},{"n":1}],[{"set":[{"ref":"x"},{"ref":"y"}]},{"n":2}],[{"s":"\\"},{"n":3}]],"stats":{}}`, 3},
	} {
		got, err := countRows([]byte(c.body))
		if err != nil || got != c.want {
			t.Errorf("countRows(%s) = %d, %v; want %d", c.body, got, err, c.want)
		}
	}
	for _, bad := range []string{`{"columns":[]}`, `{"rows":[[1],[2]`} {
		if _, err := countRows([]byte(bad)); err == nil {
			t.Errorf("countRows(%s) must fail", bad)
		}
	}
}

func TestParseBounds(t *testing.T) {
	b, err := parseBounds([]byte(`{"end_to_end":[
		{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.25}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := b["op_p50_ms"]; got.share != 0.1 || got.higher {
		t.Errorf("op_p50_ms = %+v", got)
	}
	if got := b["ops_per_s"]; got.share != 0.25 || !got.higher {
		t.Errorf("ops_per_s = %+v", got)
	}
	if got := b["failed_share"]; got.share != failedShareBound {
		t.Errorf("failed_share = %+v, want the fixed absolute bound", got)
	}
	for _, bad := range []string{
		`{"end_to_end":[{"name":"x","better":"lower"}]}`,
		`{"end_to_end":[{"name":"x","better":"lower","bound":1}]}`,
		`{"end_to_end":[{"name":"x","better":"lower","bound":0}]}`,
		`{"end_to_end":[{"name":"x","better":"faster","bound":0.1}]}`,
		`{"end_to_end":[]}`,
		`not json`,
	} {
		if _, err := parseBounds([]byte(bad)); err == nil {
			t.Errorf("parseBounds(%s) must fail", bad)
		}
	}
}

// BENCHMARK.json and the code's catalogs say the same thing.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit, Better, Why string }
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []listed
		EndToEnd   []listed `json:"end_to_end"`
		PerLayer   []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if _, err := parseBounds(data); err != nil {
		t.Error(err)
	}
	if file.RunSeconds < 5*4 {
		t.Errorf("run_seconds %d: windows must not be shorter than 4 s", file.RunSeconds)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d exist", len(file.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := file.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: file has %q (%q), code has %q (%q)", i, w.Name, w.Why, sp.name, sp.why)
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	var e2e []listed
	for _, m := range endToEndCatalog {
		if m.name != "failed_share" { // always 0, which the file may not list
			e2e = append(e2e, listed{Name: m.name, Unit: m.unit, Better: better(m.higher)})
		}
	}
	var layers []listed
	for _, m := range layerCatalog {
		layers = append(layers, listed{Name: m.name, Unit: m.unit, Better: better(m.higher)})
	}
	for _, c := range []struct {
		what      string
		got, want []listed
	}{{"end_to_end", file.EndToEnd, e2e}, {"per_layer", file.PerLayer, layers}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: file lists %d metrics, catalog %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: file has %+v, catalog %+v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) metric { return metric{Value: v, Windows: []float64{v, v, v, v, v}} }
	lower, higher := bound{share: 0.10}, bound{share: 0.10, higher: true}
	for _, c := range []struct {
		name     string
		old, new metric
		b        bound
		want     string
	}{
		{"op_p50_ms", steady(100), steady(105), lower, same},
		{"op_p50_ms", steady(100), steady(111), lower, worse},
		{"op_p50_ms", steady(100), steady(89), lower, better},
		{"ops_per_s", steady(100), steady(89), higher, worse},
		{"ops_per_s", steady(100), steady(111), higher, better},
		{"op_p50_ms", metric{Value: 100, Windows: []float64{70, 90, 100, 110, 130}}, steady(150), lower, unresolved},
		{"op_p50_ms", steady(100), metric{Value: 150, Windows: []float64{100, 130, 150, 170, 200}}, lower, unresolved},
		{"setup_s", steady(0.10), steady(0.25), bound{share: 0.2}, same},  // under the 0.2 s floor
		{"setup_s", steady(1.00), steady(1.30), bound{share: 0.2}, worse}, // over it, and over 20 %
		{"setup_s", steady(1.00), steady(1.25), bound{share: 0.25}, same}, // over the floor, within 25 %
		{"failed_share", steady(0), steady(0.0005), bound{share: failedShareBound}, same},
		{"failed_share", steady(0), steady(0.002), bound{share: failedShareBound}, worse},
		{"failed_share", steady(0.01), steady(0), bound{share: failedShareBound}, better},
	} {
		if _, got := judge(c.name, c.old, c.new, c.b); got != c.want {
			t.Errorf("judge(%s, %v → %v) = %s, want %s", c.name, c.old.Value, c.new.Value, got, c.want)
		}
	}
	if ratio, _ := judge("op_p50_ms", steady(200), steady(100), lower); ratio != 0.5 {
		t.Errorf("ratio = %v, want new/old = 0.5", ratio)
	}
}

func TestCompareTable(t *testing.T) {
	mk := func(p50 float64) map[string]*result {
		m := map[string]metric{}
		for _, e := range endToEndCatalog {
			m[e.name] = metric{Value: 1, Unit: e.unit}
		}
		m["op_p50_ms"] = metric{Value: p50, Unit: "ms"}
		return map[string]*result{"probe": {Workload: "probe", EndToEnd: m}}
	}
	bounds := map[string]bound{}
	for _, e := range endToEndCatalog {
		bounds[e.name] = bound{share: 0.1, higher: e.higher}
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "table"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	counts, err := compareTable(out, mk(10), mk(20), bounds)
	if err != nil {
		t.Fatal(err)
	}
	if counts[worse] != 1 || counts[same] != len(endToEndCatalog)-1 {
		t.Errorf("counts = %v, want one worse and the rest same", counts)
	}
	if _, err := compareTable(out, mk(10), map[string]*result{}, bounds); err == nil {
		t.Error("comparing files that share no workload must fail")
	}
}

// A traced-only run divides by the warm-up's median latency.
func TestTracedOnlyRunNeedsWarmup(t *testing.T) {
	_, err := runWorkload(context.Background(), runConfig{Workload: "rules", Seed: 1, Seconds: 1, Trace: "1", Out: t.TempDir(), Quick: true})
	if err == nil || !strings.Contains(err.Error(), "warm-up") {
		t.Errorf("-trace 1 without a warm-up: err = %v, want a refusal naming the warm-up", err)
	}
}

// TestQuickSmoke runs all four drivers end to end on a small corpus:
// set-up, oracle checks, measured run, traced run, end-of-run checks.
func TestQuickSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{
				Workload: sp.name, Seed: 2, Seconds: 1, Warmup: 0.2, Trace: "both", TraceSeconds: 0.6,
				Out: t.TempDir(), Quick: true,
			}
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Checks) < 2 {
				t.Fatalf("correct=%v attempted=%d failed=%d checks=%q", res.Correct, res.Attempted, res.Failed, res.Checks)
			}
			for _, e := range endToEndCatalog {
				m, ok := res.EndToEnd[e.name]
				if !ok || (m.Value <= 0 && e.name != "failed_share") {
					t.Errorf("end-to-end %s = %v (present %v), want a positive value", e.name, m.Value, ok)
				}
			}
			want := map[string]bool{}
			for _, l := range layerCatalog {
				for _, on := range l.on {
					if on == sp.name {
						want[l.name] = true
					}
				}
			}
			for name := range want {
				if _, ok := res.PerLayer[name]; !ok {
					t.Errorf("per-layer %s has no value on %s", name, sp.name)
				}
			}
			for name := range res.PerLayer {
				if !want[name] {
					t.Errorf("per-layer %s is reported on %s but the catalog does not list it there", name, sp.name)
				}
			}
			if info, err := os.Stat(res.TraceFile); err != nil || info.Size() == 0 {
				t.Errorf("trace file %q: %v", res.TraceFile, err)
			}
			if res.CorpusFacts == 0 || res.Meta.GoVersion == "" || res.Meta.NumCPU == 0 {
				t.Errorf("metadata incomplete: %+v facts=%d", res.Meta, res.CorpusFacts)
			}
		})
	}
}
