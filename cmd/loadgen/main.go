// Command loadgen drives a videodb server with traffic shaped like a
// real archive front end and measures how it degrades (experiment E18).
//
// Usage:
//
//	loadgen [-url http://host:port]               target an existing server
//	        [-max-concurrent 8] [-queue-depth 32] [-per-tenant]
//	        [-query-timeout 2s]                   in-process server knobs
//	        [-seed 1] [-corpus-duration 600] [-objects 40]
//	        [-clients 100000] [-zipf 1.1]
//	        [-steps 100,200,400,800,1600,3200] [-step-duration 5s]
//	        [-timeout 2s] [-smoke] [-o report.json]
//
// Without -url it starts an in-process server (admission control per the
// flags) over a videogen corpus, so one command reproduces the whole
// experiment. The generator is open-loop: requests are dispatched on a
// fixed schedule at each offered-load step regardless of how fast the
// server answers — exactly the regime where a server without admission
// control collapses. Clients are simulated as a zipfian population
// (-clients distinct API keys, a few hot ones sending most traffic) and
// each request draws from a zipfian mix of query templates over the
// corpus (cheap fact probes through a self-join scan).
//
// Per step it records sent/200/429/503, client timeouts, latency
// percentiles of accepted requests, throughput, and reject rate, and logs
// one line per step; -o also writes all steps as JSON. It exits non-zero
// if graceful degradation is violated: beyond the first step that rejects
// (saturation), accepted-request p99 must stay within 2x the
// pre-saturation p99, and no accepted request may be dropped (503).
// -smoke shrinks everything to a ~30s CI-sized run with the same
// assertions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"videodb/internal/core"
	"videodb/internal/server"
	"videodb/internal/video"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

type config struct {
	url           string
	maxConcurrent int
	queueDepth    int
	perTenant     bool
	queryTimeout  time.Duration

	seed           int64
	corpusDuration float64
	objects        int

	clients int
	zipfS   float64
	steps   []float64
	stepDur time.Duration
	timeout time.Duration
	out     string
	smoke   bool
}

func parseFlags() (config, error) {
	var c config
	flag.StringVar(&c.url, "url", "", "target server base URL (default: start an in-process server)")
	flag.IntVar(&c.maxConcurrent, "max-concurrent", 0, "in-process server: max concurrent evaluations (0 = 2x CPUs)")
	flag.IntVar(&c.queueDepth, "queue-depth", -1, "in-process server: admission wait-queue depth (-1 = 2x max-concurrent)")
	flag.BoolVar(&c.perTenant, "per-tenant", false, "in-process server: per-tenant admission limits")
	flag.DurationVar(&c.queryTimeout, "query-timeout", 2*time.Second, "in-process server: per-query evaluation bound")
	flag.Int64Var(&c.seed, "seed", 1, "random seed (corpus and traffic)")
	flag.Float64Var(&c.corpusDuration, "corpus-duration", 600, "videogen corpus length in seconds")
	flag.IntVar(&c.objects, "objects", 40, "videogen corpus object count")
	flag.IntVar(&c.clients, "clients", 100000, "simulated client population (zipfian)")
	flag.Float64Var(&c.zipfS, "zipf", 1.1, "zipf skew for clients and query mix (>1)")
	steps := flag.String("steps", "100,200,400,800,1600,3200", "offered-load steps in requests/second")
	flag.DurationVar(&c.stepDur, "step-duration", 5*time.Second, "time spent at each offered-load step")
	flag.DurationVar(&c.timeout, "timeout", 2*time.Second, "client-side request timeout")
	flag.StringVar(&c.out, "o", "", "also write the per-step report to this JSON file")
	flag.BoolVar(&c.smoke, "smoke", false, "CI-sized run: small corpus, low load, same assertions")
	flag.Parse()

	if c.smoke {
		c.corpusDuration = 120
		c.objects = 20
		c.clients = 1000
		*steps = "50,150,400"
		c.stepDur = 3 * time.Second
	}
	if c.maxConcurrent <= 0 {
		// Evaluation is CPU-bound: slots beyond the core count just make
		// admitted queries degrade each other instead of queueing excess
		// at the door, which is exactly what E18 shows going wrong.
		c.maxConcurrent = 2 * runtime.NumCPU()
	}
	if c.queueDepth < 0 {
		c.queueDepth = 2 * c.maxConcurrent
	}
	for _, f := range strings.Split(*steps, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return c, fmt.Errorf("bad -steps entry %q", f)
		}
		c.steps = append(c.steps, v)
	}
	return c, nil
}

// queryTemplates is the zipfian query mix, ordered hot-to-cold so the
// zipf draw makes cheap probes dominate with a heavy tail of scans —
// the shape of an interactive archive workload.
func queryTemplates(objects []string, rng *rand.Rand) []func() string {
	pick := func() string { return objects[rng.Intn(len(objects))] }
	return []func() string{
		func() string { return fmt.Sprintf("?- appears_with(%s, %s, S).", pick(), pick()) },
		func() string { return fmt.Sprintf("?- Interval(G), %s in G.entities.", pick()) },
		func() string { return "?- appears_with(A, B, S)." },
		func() string { return "?- appears_with(A, B, S), appears_with(B, C, S)." },
	}
}

// startServer builds the corpus, loads it, and serves on a loopback
// listener. It returns the base URL, the corpus object names, and a
// shutdown function.
func startServer(c config) (string, []string, func(), error) {
	seq := video.Generate(video.GenConfig{
		Seed:        c.seed,
		DurationSec: c.corpusDuration,
		NumObjects:  c.objects,
	})
	var script bytes.Buffer
	if err := video.WriteVQL(&script, seq); err != nil {
		return "", nil, nil, err
	}
	db := core.New()
	if _, err := db.LoadScript(script.String()); err != nil {
		return "", nil, nil, err
	}
	api := server.New(db,
		server.WithQueryTimeout(c.queryTimeout),
		server.WithAdmission(server.AdmissionConfig{
			MaxConcurrent: c.maxConcurrent,
			QueueDepth:    c.queueDepth,
			PerTenant:     c.perTenant,
		}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	hs := &http.Server{Handler: api}
	go hs.Serve(ln)
	stop := func() {
		api.Close()
		hs.Close()
		db.Close()
	}
	return "http://" + ln.Addr().String(), seq.Objects(), stop, nil
}

// stepResult is one offered-load step's measurements.
type stepResult struct {
	Bench         string  `json:"bench"`
	OfferedRPS    float64 `json:"offered_rps"`
	Sent          int     `json:"sent"`
	OK            int     `json:"ok"`
	Rejected429   int     `json:"rejected_429"`
	Shed503       int     `json:"shed_503"`
	ClientTimeout int     `json:"client_timeout"`
	OtherErrors   int     `json:"other_errors"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	RejectRate    float64 `json:"reject_rate"`
}

type reqOutcome struct {
	status  int // 0 = transport error, -1 = client timeout
	latency time.Duration
}

// runStep offers rate req/s for dur, open-loop: dispatch times are fixed
// by the schedule, never by responses. Each request carries a zipfian
// client identity and query.
func runStep(c config, url string, client *http.Client, rate float64,
	objects []string, rng *rand.Rand) stepResult {

	n := int(rate * c.stepDur.Seconds())
	templates := queryTemplates(objects, rng)
	clientZipf := rand.NewZipf(rng, c.zipfS, 1, uint64(c.clients-1))
	queryZipf := rand.NewZipf(rng, c.zipfS, 1, uint64(len(templates)-1))

	outcomes := make([]reqOutcome, n)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; i < n; i++ {
		// Draws happen on the pacer goroutine (rand is not safe for
		// concurrent use); only the network call fans out.
		tenant := fmt.Sprintf("client-%06d", clientZipf.Uint64())
		query := templates[queryZipf.Uint64()]()
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = doRequest(client, url, tenant, query)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := stepResult{
		Bench:      fmt.Sprintf("E18Load/offered=%grps", rate),
		OfferedRPS: rate,
		Sent:       n,
	}
	var okLat []time.Duration
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			res.OK++
			okLat = append(okLat, o.latency)
		case http.StatusTooManyRequests:
			res.Rejected429++
		case http.StatusServiceUnavailable:
			res.Shed503++
		case -1:
			res.ClientTimeout++
		default:
			res.OtherErrors++
		}
	}
	sort.Slice(okLat, func(i, j int) bool { return okLat[i] < okLat[j] })
	res.P50Ms = percentileMs(okLat, 0.50)
	res.P95Ms = percentileMs(okLat, 0.95)
	res.P99Ms = percentileMs(okLat, 0.99)
	if len(okLat) > 0 {
		res.MaxMs = float64(okLat[len(okLat)-1]) / 1e6
	}
	res.ThroughputRPS = float64(res.OK) / elapsed.Seconds()
	if n > 0 {
		res.RejectRate = float64(res.Rejected429) / float64(n)
	}
	return res
}

func doRequest(client *http.Client, url, tenant, query string) reqOutcome {
	body, _ := json.Marshal(map[string]string{"query": query})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return reqOutcome{}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", tenant)
	began := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(began)
	if err != nil {
		if strings.Contains(err.Error(), "Client.Timeout") {
			return reqOutcome{status: -1, latency: lat}
		}
		return reqOutcome{latency: lat}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return reqOutcome{status: resp.StatusCode, latency: lat}
}

func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e6
}

// report is the -o JSON shape.
type report struct {
	Generated  string                 `json:"generated"`
	GOOS       string                 `json:"goos"`
	GOARCH     string                 `json:"goarch"`
	CPUs       int                    `json:"cpus"`
	Experiment string                 `json:"experiment"`
	Note       string                 `json:"note"`
	Config     map[string]interface{} `json:"config"`
	Results    []stepResult           `json:"results"`
	Saturation *saturationJSON        `json:"saturation,omitempty"`
	Graceful   bool                   `json:"graceful_degradation"`
}

type saturationJSON struct {
	OfferedRPS    float64 `json:"offered_rps"` // first step that rejected
	BaselineP99Ms float64 `json:"baseline_p99_ms"`
	WorstP99Ms    float64 `json:"worst_accepted_p99_ms"`
}

// assess applies the E18 acceptance criteria and returns the failures.
func assess(results []stepResult, rep *report) []string {
	var problems []string
	for _, r := range results {
		if r.Shed503 > 0 {
			problems = append(problems,
				fmt.Sprintf("%s: %d accepted requests were dropped (503) — admission must reject up front", r.Bench, r.Shed503))
		}
	}
	sat := -1
	for i, r := range results {
		if r.Rejected429 > 0 {
			sat = i
			break
		}
	}
	if sat <= 0 {
		// Never saturated (or rejecting from the first step, leaving no
		// baseline): nothing to compare degradation against.
		rep.Graceful = len(problems) == 0
		return problems
	}
	baseline := 0.0
	for _, r := range results[:sat] {
		if r.P99Ms > baseline {
			baseline = r.P99Ms
		}
	}
	worst := baseline
	for _, r := range results[sat:] {
		if r.P99Ms > worst {
			worst = r.P99Ms
		}
	}
	rep.Saturation = &saturationJSON{
		OfferedRPS:    results[sat].OfferedRPS,
		BaselineP99Ms: baseline,
		WorstP99Ms:    worst,
	}
	if baseline > 0 && worst > 2*baseline {
		problems = append(problems, fmt.Sprintf(
			"accepted p99 beyond saturation %.1fms exceeds 2x pre-saturation p99 %.1fms", worst, baseline))
	}
	rep.Graceful = len(problems) == 0
	return problems
}

func run() error {
	c, err := parseFlags()
	if err != nil {
		return err
	}
	url := c.url
	objects := make([]string, c.objects)
	for i := range objects {
		objects[i] = fmt.Sprintf("obj%03d", i)
	}
	if url == "" {
		var stop func()
		url, objects, stop, err = startServer(c)
		if err != nil {
			return err
		}
		defer stop()
		log.Printf("loadgen: in-process server on %s (max-concurrent=%d queue-depth=%d per-tenant=%v)",
			url, c.maxConcurrent, c.queueDepth, c.perTenant)
	}

	client := &http.Client{
		Timeout: c.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        4096,
			MaxIdleConnsPerHost: 4096,
		},
	}
	rng := rand.New(rand.NewSource(c.seed))
	var results []stepResult
	for _, rate := range c.steps {
		r := runStep(c, url, client, rate, objects, rng)
		results = append(results, r)
		log.Printf("loadgen: offered %5.0f rps → ok=%d 429=%d 503=%d timeout=%d p50=%.1fms p99=%.1fms throughput=%.0f rps reject=%.1f%%",
			r.OfferedRPS, r.OK, r.Rejected429, r.Shed503, r.ClientTimeout, r.P50Ms, r.P99Ms, r.ThroughputRPS, 100*r.RejectRate)
	}

	rep := report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Experiment: "E18",
		Note: "open-loop zipfian load over a videogen corpus; accepted = 200, rejected = 429 (queue full), " +
			"shed = 503 (accepted then dropped — must be zero); latencies are accepted requests only",
		Config: map[string]interface{}{
			"maxConcurrent": c.maxConcurrent,
			"queueDepth":    c.queueDepth,
			"perTenant":     c.perTenant,
			"clients":       c.clients,
			"zipf":          c.zipfS,
			"stepSeconds":   c.stepDur.Seconds(),
			"smoke":         c.smoke,
		},
		Results: results,
	}
	problems := assess(results, &rep)
	if c.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("loadgen: wrote %s", c.out)
	}
	if len(problems) > 0 {
		return fmt.Errorf("graceful degradation violated:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
