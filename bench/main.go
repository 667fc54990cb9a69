// Command bench is the repository's one tracked benchmark: four named
// workloads (probe, scan, rules, ingest) against an in-process database
// and HTTP server, the same eight end-to-end metrics on each, and a
// traced run that times every layer from outside. See README.md.
//
//	go run ./bench                       the suite, one process per workload
//	go run ./bench -workload probe       one workload in this process
//	go run ./bench -workload scan -trace 1 -seconds 10    the traced run only
//	go run ./bench compare OLD.json NEW.json
//	go run ./bench repeat -n 3
//
// With -workload the last line of standard output is the one-line JSON
// object the benchmark driver reads (BENCHMARK.json names its metrics).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:])
	case len(args) > 0 && args[0] == "repeat":
		err = repeatMain(ctx, args[1:])
	default:
		err = runMain(ctx, args)
	}
	if err != nil {
		if !errors.Is(err, errReported) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		stop()
		os.Exit(1)
	}
}

// errReported marks a failure whose details are already printed.
var errReported = errors.New("failed")

func parseRunFlags(name string, args []string, extra func(*flag.FlagSet)) (runConfig, error) {
	var c runConfig
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.StringVar(&c.Workload, "workload", "all", "probe, scan, rules, ingest, or all (one process each)")
	fs.Int64Var(&c.Seed, "seed", 1, "seed of corpus, key draws and shot stream")
	fs.Float64Var(&c.Seconds, "seconds", 30, "measured seconds, cut into five windows")
	fs.Float64Var(&c.Warmup, "warmup", 5, "warm-up seconds, discarded")
	fs.StringVar(&c.Trace, "trace", "both", "0: end-to-end metrics only; 1: traced run only (per-layer metrics, for -seconds); both")
	fs.Float64Var(&c.TraceSeconds, "trace-seconds", 10, "length of the traced run when -trace is both")
	fs.StringVar(&c.Out, "out", filepath.Join("bench", "out"), "directory for result files, traces and temporary databases")
	fs.BoolVar(&c.Quick, "quick", false, "smoke run: small corpus, 2 s per workload")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.Quick {
		c.Seconds, c.Warmup, c.TraceSeconds = 2, 0.5, 1
	}
	if c.Trace != "0" && c.Trace != "1" && c.Trace != "both" {
		return c, fmt.Errorf("-trace must be 0, 1 or both, not %q", c.Trace)
	}
	if c.Seconds <= 0 || c.Warmup < 0 || c.TraceSeconds <= 0 {
		return c, fmt.Errorf("-seconds and -trace-seconds must be positive, -warmup not negative")
	}
	if _, ok := findSpec(c.Workload); !ok && c.Workload != "all" {
		return c, fmt.Errorf("unknown workload %q", c.Workload)
	}
	return c, nil
}

// args renders the config back into flags, for the per-workload child
// processes of a suite run.
func (c runConfig) args() []string {
	return []string{
		"-workload", c.Workload,
		"-seed", fmt.Sprint(c.Seed),
		"-seconds", fmt.Sprint(c.Seconds),
		"-warmup", fmt.Sprint(c.Warmup),
		"-trace", c.Trace,
		"-trace-seconds", fmt.Sprint(c.TraceSeconds),
		"-out", c.Out,
		fmt.Sprintf("-quick=%v", c.Quick),
	}
}

func runMain(ctx context.Context, args []string) error {
	cfg, err := parseRunFlags("bench", args, nil)
	if err != nil {
		return err
	}
	if cfg.Workload == "all" {
		_, err := runSuite(ctx, cfg)
		return err
	}
	res, runErr := runWorkload(ctx, cfg)
	if res == nil {
		return runErr
	}
	printResult(os.Stdout, res)
	if err := writeJSON(filepath.Join(cfg.Out, "result-"+cfg.Workload+".json"), res); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	return printDriverLine(res)
}

// meta is the environment a result was measured in.
type meta struct {
	GitCommit  string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	When       string `json:"when"`
	HeldOut    string `json:"held_out_seed"`
}

func collectMeta() meta {
	commit := "unknown" // a source archive has no .git
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return meta{
		GitCommit:  commit,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		When:       time.Now().UTC().Format(time.RFC3339),
		HeldOut:    "seed 1 is the development seed; a result only counts if -seed 2 also passes every correctness check",
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// printResult prints every metric by name with its unit and sample count.
func printResult(w *os.File, r *result) {
	fmt.Fprintf(w, "workload %s  seed %d  backend %s  %s\n", r.Workload, r.Config.Seed, r.Backend, r.Loop)
	fmt.Fprintf(w, "corpus: %d objects, %d facts; window %.1f s x %d; oracle checks took %.2f s\n",
		r.CorpusObjects, r.CorpusFacts, r.WindowSeconds, numWindows, r.OracleSeconds)
	printMetrics(w, "end to end", r.EndToEnd, endToEndOrder)
	printMetrics(w, "per layer (traced run)", r.PerLayer, nil)
	for i, ws := range r.Windows {
		fmt.Fprintf(w, "  window %d: attempted %d ok %d failed %d\n", i+1, ws.Attempted, ws.OK, ws.Failed)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  check passed: %s\n", c)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
	if r.Error != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", r.Error)
	}
}

func printMetrics(w *os.File, title string, m map[string]metric, order []string) {
	if len(m) == 0 {
		return
	}
	if order == nil {
		for name := range m {
			order = append(order, name)
		}
		sort.Strings(order)
	}
	fmt.Fprintf(w, "%s:\n", title)
	for _, name := range order {
		v, ok := m[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d", name, v.Value, v.Unit, v.Samples)
		if len(v.Windows) > 0 {
			fmt.Fprintf(w, "  spread %.1f%%", 100*spread(v.Windows))
		}
		if v.Note != "" {
			fmt.Fprintf(w, "  (%s)", v.Note)
		}
		fmt.Fprintln(w)
	}
}

// driverLine is the one-line object the benchmark driver parses.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints, as the last line of standard output, exactly
// the metrics BENCHMARK.json lists: the end-to-end ones of an untraced
// run, or every per-layer one of a traced run. A per-layer metric that
// is not measured on this workload reads 0.
func printDriverLine(r *result) error {
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	if r.Config.Trace == "1" {
		for _, m := range layerCatalog {
			line.Metrics[m.name] = driverMetric{Value: r.PerLayer[m.name].Value, Unit: m.unit}
		}
	} else {
		for _, m := range endToEndCatalog {
			if m.name == "failed_share" {
				continue // always 0; the driver reads attempted and failed instead
			}
			line.Metrics[m.name] = driverMetric{Value: r.EndToEnd[m.name].Value, Unit: m.unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// suiteResult is result.json: every workload of one suite run.
type suiteResult struct {
	Schema    string             `json:"schema"`
	Config    runConfig          `json:"config"`
	Meta      meta               `json:"meta"`
	Workloads map[string]*result `json:"workloads"`
	// Claim is always null: the benchmark measures, it claims nothing.
	Claim *string `json:"claim"`
}

// runSuite runs every workload in a process of its own — peak RSS, the
// value interner and the solver memo are process-wide — and merges the
// per-workload result files into <out>/result.json.
func runSuite(ctx context.Context, cfg runConfig) (*suiteResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	suite := &suiteResult{Schema: "videodb-bench/1", Config: cfg, Meta: collectMeta(), Workloads: map[string]*result{}}
	failed := false
	for _, sp := range specs {
		child := cfg
		child.Workload = sp.name
		cmd := exec.CommandContext(ctx, exe, child.args()...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", sp.name, err)
			failed = true
		}
		var res result
		if err := readJSON(filepath.Join(cfg.Out, "result-"+sp.name+".json"), &res); err != nil {
			return nil, err
		}
		suite.Workloads[sp.name] = &res
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	path := filepath.Join(cfg.Out, "result.json")
	if err := writeJSON(path, suite); err != nil {
		return nil, err
	}
	printSummary(suite, path)
	if failed {
		return suite, errReported
	}
	return suite, nil
}

// printSummary prints the suite's end-to-end table as JSON, ending with
// the claim — null, always.
func printSummary(s *suiteResult, path string) {
	type row map[string]float64
	sum := struct {
		Result   string          `json:"result_file"`
		Correct  map[string]bool `json:"correct"`
		EndToEnd map[string]row  `json:"end_to_end"`
		Claim    *string         `json:"claim"`
	}{Result: path, Correct: map[string]bool{}, EndToEnd: map[string]row{}}
	for name, r := range s.Workloads {
		sum.Correct[name] = r.Correct
		sum.EndToEnd[name] = row{}
		for m, v := range r.EndToEnd {
			sum.EndToEnd[name][m] = v.Value
		}
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: summary:", err)
		return
	}
	fmt.Println(string(data))
}
