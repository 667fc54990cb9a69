package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// workload is one named benchmark workload: a generator of inputs from
// the seed and a set-up that builds the system under test over them.
type workload interface {
	// prepare derives every input from cfg.Seed. It runs once, untimed:
	// it is the benchmark's work, not the system's.
	prepare(cfg *runConfig) error
	// inputs describes what prepare generated — generator seed, sizes,
	// chosen names — for the result file.
	inputs() map[string]any
	// setup builds a ready-to-serve system over the prepared inputs. It
	// is what setup_s times, and may run several times per process.
	setup() (instance, error)
}

// instance is one set-up system plus the closed-loop driver of its ops.
type instance interface {
	// verify checks every query template against the naive oracle and
	// returns the names of the checks that passed.
	verify(ctx context.Context) ([]string, error)
	// op runs client c's next operation and returns how long the
	// operation itself took. With ot non-nil it then replays the
	// operation through the layer entry points, recording spans; the
	// replay is not part of the returned duration.
	op(ctx context.Context, c int, ot *opTrace) (time.Duration, error)
	// beginTrace prepares whatever only the traced run needs (replay
	// twins); it runs once, before the traced run's first op.
	beginTrace(ctx context.Context) error
	// counters snapshots the layers' cumulative counters; the traced
	// run reports their deltas.
	counters(ctx context.Context) (map[string]float64, error)
	// layers adds the workload's per-layer metrics for a traced run.
	layers(ctx context.Context, lr *layerRun) error
	// finish runs the end-of-run correctness checks (after all load has
	// stopped) and returns the names of those that passed.
	finish(ctx context.Context, lr *layerRun) ([]string, error)
	// corpusSize reports the objects and facts the system holds.
	corpusSize() (objects, facts int)
	close() error
}

// spec is the fixed description of a workload; BENCHMARK.json and the
// README repeat it and a self-test keeps them in step.
type spec struct {
	name    string
	clients int
	backend string
	why     string
	make    func() workload
}

var specs = []spec{
	{"probe", 2, "mem", "bound goals with small answers over HTTP: the per-query snapshot/seed floor of server+core+store dominates, so goal-directed evaluation, plan-cache keying and result caches show here", func() workload { return &queryWorkload{kind: "probe"} }},
	{"scan", 2, "mem", "the same server/core/datalog path result-bound (5k and 17k rows): join kernel, row sort and JSON encode dominate, so a bound-goal optimisation must predict no change here", func() workload { return &queryWorkload{kind: "scan"} }},
	{"rules", 1, "mem", "the paper's language in process, server bypassed: fixpoint, dense-order entailment, set-order constraints, constructive heads and stratified negation over six rule templates", func() workload { return &rulesWorkload{} }},
	{"ingest", 1, "segment", "the write side: a shot-by-shot stream with a retention window under a standing costar subscription on the segment backend, timed from POST to the last SSE delta", func() workload { return &ingestWorkload{} }},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// runConfig is one run's settings; every field is recorded in the result.
type runConfig struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`       // measured, cut into numWindows windows
	Warmup       float64 `json:"warmup"`        // discarded
	Trace        string  `json:"trace"`         // "0" end to end only, "1" traced only, "both"
	TraceSeconds float64 `json:"trace_seconds"` // traced run length when Trace is "both"
	Out          string  `json:"out"`
	Quick        bool    `json:"quick"`
}

func (c *runConfig) tmpDir() string { return filepath.Join(c.Out, "tmp-"+c.Workload) }

// opSample is one completed op: when it ended (since the run began),
// how long it took, and whether it succeeded.
type opSample struct {
	end time.Duration
	dur time.Duration
	err error
}

// boundary is the process state sampled at a window edge.
type boundary struct {
	at    time.Duration
	cpu   time.Duration
	alloc uint64
}

// loadRun is what one closed-loop run (warm-up, measured or traced) saw.
type loadRun struct {
	samples []opSample  // all clients, unordered
	edges   []boundary  // numWindows+1 edges
	end     boundary    // after the last op completed
	rss     []rssSample // resident set size, every rssSampleEvery
}

// runLoad drives inst with its clients for dur, closed loop: each client
// issues its next op when the previous one has completed. The main
// goroutine samples CPU and allocation at the numWindows window edges.
func runLoad(ctx context.Context, inst instance, clients int, dur time.Duration, tr *tracer) (_ *loadRun, err error) {
	perClient := make([][]opSample, clients)
	start := time.Now()
	sample := func() (boundary, error) {
		cpu, err := cpuTime()
		return boundary{at: time.Since(start), cpu: cpu, alloc: allocBytes()}, err
	}
	first, err := sample()
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := uint64(0); time.Since(start) < dur && ctx.Err() == nil; n++ {
				var ot *opTrace
				if tr != nil {
					ot = tr.beginOp(c, n)
				}
				d, err := inst.op(ctx, c, ot)
				if ot != nil {
					ot.endOp()
				}
				perClient[c] = append(perClient[c], opSample{end: time.Since(start), dur: d, err: err})
			}
		}(c)
	}
	run := &loadRun{edges: []boundary{first}}
	stopRSS, rssDone := make(chan struct{}), make(chan error, 1)
	go func() {
		var err error
		run.rss, err = watchRSS(start, stopRSS)
		rssDone <- err
	}()
	defer func() {
		close(stopRSS)
		if rerr := <-rssDone; err == nil {
			err = rerr
		}
	}()
	for k := 1; k <= numWindows; k++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(k) / numWindows)))
		b, err := sample()
		if err != nil {
			wg.Wait()
			return nil, err
		}
		run.edges = append(run.edges, b)
	}
	wg.Wait()
	if run.end, err = sample(); err != nil {
		return nil, err
	}
	for _, s := range perClient {
		run.samples = append(run.samples, s...)
	}
	return run, ctx.Err()
}

// windowStats is one window of a measured run.
type windowStats struct {
	Attempted int     `json:"attempted"`
	OK        int     `json:"ok"`
	Failed    int     `json:"failed"`
	P50Ms     float64 `json:"op_p50_ms"`
	TailMs    float64 `json:"op_tail_ms"`
	OpsPerS   float64 `json:"ops_per_s"`
	CPUMs     float64 `json:"cpu_ms_per_op"`
	AllocKB   float64 `json:"alloc_kb_per_op"`
	PeakRSSMB float64 `json:"peak_rss_mb"` // highest resident set size sampled in the window
}

// windows cuts the run at its sampled edges. An op belongs to the window
// it completed in; an op still in flight at the last edge belongs to
// none, except that its failure is charged to the last window.
func (r *loadRun) windows(tailP float64) []windowStats {
	out := make([]windowStats, numWindows)
	lat := make([][]float64, numWindows)
	for _, s := range r.samples {
		k := sort.Search(numWindows, func(k int) bool { return s.end <= r.edges[k+1].at })
		if k == numWindows {
			if s.err == nil {
				continue
			}
			k = numWindows - 1
		}
		out[k].Attempted++
		if s.err != nil {
			out[k].Failed++
			continue
		}
		out[k].OK++
		lat[k] = append(lat[k], ms(s.dur))
	}
	for _, s := range r.rss {
		if k := sort.Search(numWindows, func(k int) bool { return s.at <= r.edges[k+1].at }); k < numWindows {
			out[k].PeakRSSMB = max(out[k].PeakRSSMB, s.mb)
		}
	}
	for k := range out {
		sort.Float64s(lat[k])
		w, lo, hi := &out[k], r.edges[k], r.edges[k+1]
		w.P50Ms = percentile(lat[k], 0.50)
		w.TailMs = percentile(lat[k], tailP)
		w.OpsPerS = float64(w.OK) / (hi.at - lo.at).Seconds()
		if w.OK > 0 {
			w.CPUMs = ms(hi.cpu-lo.cpu) / float64(w.OK)
			w.AllocKB = float64(hi.alloc-lo.alloc) / 1024 / float64(w.OK)
		}
	}
	return out
}

func (r *loadRun) totals() (attempted, failed int, firstErr error) {
	for _, s := range r.samples {
		attempted++
		if s.err != nil {
			failed++
			if firstErr == nil {
				firstErr = s.err
			}
		}
	}
	return attempted, failed, firstErr
}

// p50 is the median latency of the run's successful ops.
func (r *loadRun) p50() float64 {
	var lat []float64
	for _, s := range r.samples {
		if s.err == nil {
			lat = append(lat, ms(s.dur))
		}
	}
	return median(lat)
}

// endToEnd derives the eight end-to-end metrics from a measured run.
// Percentile and rate metrics are the median of the five per-window
// values, and keep those values so `compare` can tell a noisy side from
// a changed one. CPU and allocation per op are the whole run's totals
// over every op it completed: ops straddle window edges, and with a few
// dozen ops per window that alone would blur them by a percent or two.
// The resident set peak is the median of the windows' peaks — under
// ingest it saw-tooths with the segment store's flush cycle, and the one
// highest tooth of a run varies twice as much as the typical tooth — and
// does not carry them: a saw-tooth's windows differ by design, not noise.
func endToEnd(r *loadRun, setups []float64) (map[string]metric, []windowStats) {
	attempted, failed, _ := r.totals()
	tailP := opTailPercentile(attempted - failed)
	ws := r.windows(tailP)
	col := func(f func(windowStats) float64) []float64 {
		out := make([]float64, len(ws))
		for i, w := range ws {
			out[i] = f(w)
		}
		return out
	}
	ok := attempted - failed
	overWindows := func(unit string, f func(windowStats) float64) metric {
		v := col(f)
		return metric{Value: median(v), Unit: unit, Samples: ok, Windows: v}
	}
	tail := overWindows("ms", func(w windowStats) float64 { return w.TailMs })
	if tailP != 0.95 {
		tail.Note = fmt.Sprintf("p%.0f: fewer than 200 ops in the window set, so p95 would have under ten samples beyond it", tailP*100)
	}
	m := map[string]metric{
		"setup_s":         {Value: median(setups), Unit: "s", Samples: len(setups), Windows: setups},
		"op_p50_ms":       overWindows("ms", func(w windowStats) float64 { return w.P50Ms }),
		"op_p95_ms":       tail,
		"ops_per_s":       overWindows("1/s", func(w windowStats) float64 { return w.OpsPerS }),
		"failed_share":    {Value: float64(failed) / float64(max(attempted, 1)), Unit: "share", Samples: attempted},
		"cpu_ms_per_op":   {Value: ms(r.end.cpu-r.edges[0].cpu) / float64(max(ok, 1)), Unit: "ms", Samples: ok},
		"alloc_kb_per_op": {Value: float64(r.end.alloc-r.edges[0].alloc) / 1024 / float64(max(ok, 1)), Unit: "KiB", Samples: ok},
		"peak_rss_mb":     {Value: median(col(func(w windowStats) float64 { return w.PeakRSSMB })), Unit: "MiB", Samples: len(r.rss)},
	}
	return m, ws
}

// layerRun is what a traced run hands to the workload's layers method.
type layerRun struct {
	trace   *traceSummary
	run     *loadRun
	delta   map[string]float64 // counters after − before
	ops     int                // successful traced ops
	metrics map[string]metric
}

func (lr *layerRun) put(name, unit string, v float64, samples int) {
	lr.metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// putOpMs records the per-op summed duration of a span name.
func (lr *layerRun) putOpMs(metricName, spanName string) {
	v, n := lr.trace.opMs(spanName)
	lr.put(metricName, "ms", v, n)
}

// putSelfMs records the per-op summed self time of a span name.
func (lr *layerRun) putSelfMs(metricName, spanName string) {
	v, n := lr.trace.selfMs(spanName)
	lr.put(metricName, "ms", v, n)
}

// putSpan records the median single-span duration for a name or
// name/tag key, in ms or us.
func (lr *layerRun) putSpan(metricName, unit, key string) {
	v, n := lr.trace.spanMs(key)
	if unit == "us" {
		v *= 1000
	}
	lr.put(metricName, unit, v, n)
}

// putPerOp records a count metric as its median per-op value, which
// repeats exactly when every op does the same work.
func (lr *layerRun) putPerOp(metricName, countName string) {
	v := lr.trace.counts[countName]
	lr.put(metricName, "count", median(v), len(v))
}

// share is a/(a+b), 0 when both are 0.
func share(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// result is what one workload's run produced; it is written to
// <out>/result-<workload>.json and merged into the suite's result.json.
type result struct {
	Workload      string            `json:"workload"`
	Why           string            `json:"why"`
	Backend       string            `json:"backend"`
	Clients       int               `json:"clients"`
	Loop          string            `json:"loop"`
	Config        runConfig         `json:"config"`
	Meta          meta              `json:"meta"`
	Inputs        map[string]any    `json:"inputs"`
	CorpusObjects int               `json:"corpus_objects"`
	CorpusFacts   int               `json:"corpus_facts"`
	WindowSeconds float64           `json:"window_seconds"`
	Windows       []windowStats     `json:"windows,omitempty"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	Correct       bool              `json:"correct"`
	Checks        []string          `json:"checks"`
	Error         string            `json:"error,omitempty"`
	OracleSeconds float64           `json:"oracle_s"`
	EndToEnd      map[string]metric `json:"end_to_end,omitempty"`
	PerLayer      map[string]metric `json:"per_layer,omitempty"`
	TraceFile     string            `json:"trace_file,omitempty"`
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples"`
	Windows []float64 `json:"windows,omitempty"` // the per-window (or per-set-up) values behind Value
	Note    string    `json:"note,omitempty"`
}

// runWorkload runs one workload in this process: set-up (timed, several
// times) → oracle checks → warm-up → measured run → traced run →
// end-of-run checks. The returned result is complete even on error,
// with Correct false and Error set.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	sp, ok := findSpec(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Trace == "1" && cfg.Warmup == 0 {
		return nil, fmt.Errorf("-trace 1 needs a warm-up: its p50 is the untraced latency trace_overhead_share is taken against")
	}
	res := &result{
		Workload: sp.name, Why: sp.why, Backend: sp.backend, Clients: sp.clients,
		Loop:   fmt.Sprintf("closed loop, %d client(s) in the bench process, next op when the previous completes", sp.clients),
		Config: cfg, Meta: collectMeta(), WindowSeconds: cfg.Seconds / numWindows,
	}
	err := runInto(ctx, cfg, sp, res)
	res.Correct = err == nil && res.Failed == 0
	if err != nil {
		res.Error = err.Error()
	}
	return res, err
}

func runInto(ctx context.Context, cfg runConfig, sp spec, res *result) error {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return err
	}
	w := sp.make()
	if err := w.prepare(&cfg); err != nil {
		return fmt.Errorf("prepare inputs: %w", err)
	}
	res.Inputs = w.inputs()

	// Set-up, timed. Every set-up but the last is torn down again; a
	// collection in between keeps one set-up's garbage out of the next.
	var inst instance
	var setups []float64
	times := numSetups
	if cfg.Quick {
		times = quickSetups
	}
	for i := 0; i < times; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			_ = inst.close() // error path only; the first error is the one reported
		}
	}()
	res.CorpusObjects, res.CorpusFacts = inst.corpusSize()

	t0 := time.Now()
	checks, err := inst.verify(ctx)
	res.Checks = append(res.Checks, checks...)
	if err != nil {
		return fmt.Errorf("oracle check: %w", err)
	}
	res.OracleSeconds = time.Since(t0).Seconds()
	// Hand the set-ups' and the oracle's garbage back to the OS, so the
	// resident set the run samples is the system's own.
	debug.FreeOSMemory()

	dur := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	warm, err := runLoad(ctx, inst, sp.clients, dur(cfg.Warmup), nil)
	if err != nil {
		return err
	}
	if _, failed, ferr := warm.totals(); failed > 0 {
		return fmt.Errorf("warm-up: %d ops failed, first: %w", failed, ferr)
	}

	untracedP50 := warm.p50()
	if cfg.Trace != "1" {
		run, err := runLoad(ctx, inst, sp.clients, dur(cfg.Seconds), nil)
		if err != nil {
			return err
		}
		res.EndToEnd, res.Windows = endToEnd(run, setups)
		var ferr error
		res.Attempted, res.Failed, ferr = run.totals()
		if ferr != nil {
			return fmt.Errorf("%d of %d ops failed, first: %w", res.Failed, res.Attempted, ferr)
		}
		untracedP50 = res.EndToEnd["op_p50_ms"].Value
	}

	lr := &layerRun{metrics: map[string]metric{}}
	if cfg.Trace != "0" {
		traceSec := cfg.Seconds
		if cfg.Trace == "both" {
			traceSec = cfg.TraceSeconds
		}
		if err := inst.beginTrace(ctx); err != nil {
			return fmt.Errorf("prepare traced run: %w", err)
		}
		before, err := inst.counters(ctx)
		if err != nil {
			return fmt.Errorf("read counters: %w", err)
		}
		tr := newTracer(sp.clients)
		run, err := runLoad(ctx, inst, sp.clients, dur(traceSec), tr)
		if err != nil {
			return err
		}
		after, err := inst.counters(ctx)
		if err != nil {
			return fmt.Errorf("read counters: %w", err)
		}
		attempted, failed, ferr := run.totals()
		if cfg.Trace == "1" {
			res.Attempted, res.Failed = attempted, failed
		}
		if ferr != nil {
			return fmt.Errorf("traced run: %d of %d ops failed, first: %w", failed, attempted, ferr)
		}
		lr.trace, lr.run, lr.ops, lr.delta = tr.summarize(), run, attempted, map[string]float64{}
		for k, v := range after {
			lr.delta[k] = v - before[k]
		}
		lr.put("trace_ops", "count", float64(attempted), attempted)
		lr.put("trace_overhead_share", "share", run.p50()/untracedP50-1, attempted)
		lr.put("trace_replay_overrun_share", "share", lr.trace.replayOverrun, attempted)
		if n := lr.trace.realOverruns; n > 0 {
			return fmt.Errorf("trace: %d spans are shorter than the calls made inside them", n)
		}
		if err := inst.layers(ctx, lr); err != nil {
			return fmt.Errorf("per-layer metrics: %w", err)
		}
		res.TraceFile = filepath.Join(cfg.Out, "trace-"+sp.name+".jsonl")
		if err := tr.writeJSONL(res.TraceFile); err != nil {
			return err
		}
	}

	checks, err = inst.finish(ctx, lr)
	res.Checks = append(res.Checks, checks...)
	if err != nil {
		return fmt.Errorf("end-of-run check: %w", err)
	}
	if cfg.Trace != "0" {
		res.PerLayer = lr.metrics
	}
	closed = true
	return inst.close()
}
