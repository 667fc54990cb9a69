package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	share  float64 // share of the old value the metric may worsen by
	higher bool    // higher is better
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json and adds
// failed_share's absolute bound, which the file cannot carry.
func loadBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseBounds(data)
}

func parseBounds(data []byte) (map[string]bound, error) {
	var file struct {
		EndToEnd []struct {
			Name   string   `json:"name"`
			Better string   `json:"better"`
			Bound  *float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("benchmark file: %w", err)
	}
	out := map[string]bound{"failed_share": {share: failedShareBound}}
	for _, m := range file.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound >= 1 {
			return nil, fmt.Errorf("benchmark file: metric %q needs a bound that is a share, above 0 and below 1", m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("benchmark file: metric %q: better must be lower or higher, not %q", m.Name, m.Better)
		}
		out[m.Name] = bound{share: *m.Bound, higher: m.Better == "higher"}
	}
	if len(out) == 1 {
		return nil, fmt.Errorf("benchmark file lists no end_to_end metrics")
	}
	return out, nil
}

// Verdicts of compare.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares one metric across two runs. The ratio is new/old (its
// base is the old value). A side whose own per-window spread exceeds
// the bound cannot resolve a difference of that size: unresolved.
func judge(name string, old, new metric, b bound) (ratio float64, verdict string) {
	ratio = math.NaN()
	if old.Value != 0 {
		ratio = new.Value / old.Value
	}
	switch name {
	case "failed_share":
		switch d := new.Value - old.Value; {
		case d > b.share:
			return ratio, worse
		case d < -b.share:
			return ratio, better
		}
		return ratio, same
	case "setup_s":
		if math.Abs(new.Value-old.Value) < setupFloorS {
			return ratio, same
		}
	default:
		// setup_s's "windows" are its repeated set-ups, whose first is
		// cold; their spread says nothing about the median's noise.
		if spread(old.Windows) > b.share || spread(new.Windows) > b.share {
			return ratio, unresolved
		}
	}
	gain := ratio - 1 // positive = grew
	if !b.higher {
		gain = -gain
	}
	switch {
	case math.IsNaN(ratio):
		return ratio, unresolved
	case gain < -b.share:
		return ratio, worse
	case gain > b.share:
		return ratio, better
	}
	return ratio, same
}

// loadWorkloads reads a suite result.json or a single-workload result
// file into a map by workload name.
func loadWorkloads(path string) (map[string]*result, error) {
	var suite suiteResult
	if err := readJSON(path, &suite); err != nil {
		return nil, err
	}
	if len(suite.Workloads) > 0 {
		return suite.Workloads, nil
	}
	var one result
	if err := readJSON(path, &one); err != nil {
		return nil, err
	}
	if one.Workload == "" {
		return nil, fmt.Errorf("%s: neither a suite result nor a workload result", path)
	}
	return map[string]*result{one.Workload: &one}, nil
}

// compareMain prints one row per (workload, end-to-end metric) and
// fails on any worse.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "benchmark file holding the per-metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare [-bounds BENCHMARK.json] OLD.json NEW.json")
	}
	bounds, err := loadBounds(*boundsPath)
	if err != nil {
		return err
	}
	old, err := loadWorkloads(fs.Arg(0))
	if err != nil {
		return err
	}
	new, err := loadWorkloads(fs.Arg(1))
	if err != nil {
		return err
	}
	counts, err := compareTable(os.Stdout, old, new, bounds)
	if err != nil {
		return err
	}
	fmt.Printf("%d better, %d same, %d worse, %d unresolved\n", counts[better], counts[same], counts[worse], counts[unresolved])
	if counts[worse] > 0 {
		return errReported
	}
	return nil
}

func compareTable(w *os.File, old, new map[string]*result, bounds map[string]bound) (map[string]int, error) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tnew/old\tbound\tverdict")
	counts := map[string]int{}
	for _, sp := range specs {
		o, n := old[sp.name], new[sp.name]
		if o == nil || n == nil {
			continue
		}
		for _, m := range endToEndCatalog {
			b, ok := bounds[m.name]
			if !ok {
				return nil, fmt.Errorf("no bound for %s", m.name)
			}
			ov, nv := o.EndToEnd[m.name], n.EndToEnd[m.name]
			ratio, v := judge(m.name, ov, nv, b)
			counts[v]++
			kind := "of old"
			if m.name == "failed_share" {
				kind = "absolute"
			}
			rs := "-" // failed_share: 0 over 0
			if !math.IsNaN(ratio) {
				rs = fmt.Sprintf("%.3f", ratio)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%s\t%.3f %s\t%s\n", sp.name, m.name, ov.Value, nv.Value, m.unit, rs, b.share, kind, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("the two files share no workload")
	}
	return counts, nil
}

// repeatMain runs the suite N times and prints, per workload and
// end-to-end metric, the spread of the N values against the bound.
func repeatMain(ctx context.Context, args []string) error {
	var n int
	var boundsPath string
	cfg, err := parseRunFlags("repeat", args, func(fs *flag.FlagSet) {
		fs.IntVar(&n, "n", 3, "number of suite runs")
		fs.StringVar(&boundsPath, "bounds", "BENCHMARK.json", "benchmark file holding the per-metric bounds")
	})
	if err != nil {
		return err
	}
	if n < 2 {
		return fmt.Errorf("repeat needs -n of at least 2")
	}
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return err
	}
	out := cfg.Out
	var suites []*suiteResult
	for i := 1; i <= n; i++ {
		cfg.Out = filepath.Join(out, fmt.Sprintf("repeat-%d", i))
		s, err := runSuite(ctx, cfg)
		if err != nil {
			return err
		}
		suites = append(suites, s)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian of %d\tunit\tspread\tbound\t\n", n)
	exceeded := 0
	for _, sp := range specs {
		for _, m := range endToEndCatalog {
			var vals []float64
			for _, s := range suites {
				if r := s.Workloads[sp.name]; r != nil {
					vals = append(vals, r.EndToEnd[m.name].Value)
				}
			}
			sort.Float64s(vals)
			sp2, b, note := spread(vals), bounds[m.name].share, ""
			switch {
			case m.name == "failed_share":
				sp2 = vals[len(vals)-1] - vals[0] // absolute, like its bound
			case m.name == "setup_s" && vals[len(vals)-1]-vals[0] < setupFloorS:
				note = fmt.Sprintf("differences under %.1f s are ignored", setupFloorS)
			}
			if sp2 > b && note == "" {
				exceeded++
				note = "EXCEEDS BOUND"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%s\t%.3f\t%.3f\t%s\n", sp.name, m.name, median(vals), m.unit, sp2, b, note)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if exceeded > 0 {
		fmt.Printf("%d metric(s) spread wider than their bound\n", exceeded)
		return errReported
	}
	return nil
}
