package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Tracing is done from outside: the benchmark times its own calls into
// each layer's public entry points and keeps the spans in memory until
// the run ends. A traced op performs the real operation (for a served
// workload, the HTTP round trips) and then replays the same request
// through the layers below it, so a replayed span is parented to the
// span it decomposes by cause, not by containment in time: self time is
// a span's duration minus the summed durations of its children, and for
// replayed children it holds over the run's medians, not op by op.

// Span names, one per layer boundary.
const (
	spanOp        = "op"
	spanRoundtrip = "server.roundtrip"
	spanPost      = "server.script_post"
	spanSSEWait   = "server.sse_wait"
	spanQuery     = "core.query"
	spanRetire    = "core.retire"
	spanParse     = "parser.parse"
	spanScript    = "parser.script_parse"
	spanEval      = "datalog.eval"
	spanScan      = "store.scan"
	spanPut       = "store.put"
	spanAddFact   = "store.addfact"
	spanDelFact   = "store.delfact"
	spanDelete    = "store.delete"
)

// span is one timed call. ID is unique within its op; Parent is the ID
// of the span that caused it (0 for the op's root).
type span struct {
	Op     uint64 `json:"op_id"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // request kind or rule template
	Replay bool   `json:"replay,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects the spans of one traced run. Each client appends to
// its own slice, so recording takes no lock.
type tracer struct {
	began   time.Time
	clients [][]span
	counts  [][]map[string]float64 // per client, one map per op that counted anything
}

func newTracer(clients int) *tracer {
	return &tracer{
		began:   time.Now(),
		clients: make([][]span, clients),
		counts:  make([][]map[string]float64, clients),
	}
}

// opTrace records the spans of one op of one client.
type opTrace struct {
	t      *tracer
	client int
	op     uint64
	first  int // index of the op's first span in the client's slice
	counts map[string]float64
}

// beginOp opens the root span of client's n-th op; the op's spans are
// numbered from 1, the root being 1.
func (t *tracer) beginOp(client int, n uint64) *opTrace {
	o := &opTrace{t: t, client: client, op: uint64(client)<<32 | n, first: len(t.clients[client])}
	o.begin(0, spanOp, "", false)
	return o
}

// begin opens a span and returns its ID.
func (o *opTrace) begin(parent int, name, tag string, replay bool) int {
	spans := &o.t.clients[o.client]
	id := len(*spans) - o.first + 1
	*spans = append(*spans, span{
		Op: o.op, ID: id, Parent: parent, Name: name, Tag: tag, Replay: replay,
		Start: int64(time.Since(o.t.began)),
	})
	return id
}

func (o *opTrace) end(id int) {
	o.t.clients[o.client][o.first+id-1].End = int64(time.Since(o.t.began))
}

// count adds v to the op's counter name: work counts (derived tuples,
// solver steps, rows) recorded at the same boundaries as the spans.
func (o *opTrace) count(name string, v float64) {
	if o.counts == nil {
		o.counts = map[string]float64{}
	}
	o.counts[name] += v
}

// rootID is the ID of every op's root span.
const rootID = 1

// endOp closes the root span and files the op's counts.
func (o *opTrace) endOp() {
	o.end(rootID)
	if o.counts != nil {
		o.t.counts[o.client] = append(o.t.counts[o.client], o.counts)
	}
}

// ops returns the recorded spans grouped by op, in recording order.
func (t *tracer) ops() [][]span {
	var out [][]span
	for _, spans := range t.clients {
		for i := 0; i < len(spans); {
			j := i + 1
			for j < len(spans) && spans[j].Op == spans[i].Op {
				j++
			}
			out = append(out, spans[i:j])
			i = j
		}
	}
	return out
}

// childTimes returns, for each span of op, the summed duration of its
// children. real reports a span whose children are all real (not
// replayed) calls: those lie inside the span in time, so their sum can
// never exceed it.
func childTimes(op []span) (children []time.Duration, real []bool) {
	children = make([]time.Duration, len(op))
	real = make([]bool, len(op))
	for i := range real {
		real[i] = true
	}
	for _, s := range op {
		if s.Parent > 0 && s.Parent <= len(op) {
			children[s.Parent-1] += s.dur()
			if s.Replay {
				real[s.Parent-1] = false
			}
		}
	}
	return children, real
}

// traceSummary aggregates a traced run for the per-layer metrics.
type traceSummary struct {
	ops int
	// perOp[name] holds, for every op, the summed duration of its spans
	// of that name; childPerOp the summed duration of their children.
	perOp      map[string][]float64
	childPerOp map[string][]float64
	// perSpan[name or name/tag] holds every span's own duration.
	perSpan map[string][]float64
	// counts[name] holds every op's value of a work counter.
	counts map[string][]float64
	// realOverruns counts spans whose real (contained) children summed
	// to more than the span: a tracer bug, never noise. replayOverrun is
	// the share of ops in which a replayed decomposition took longer
	// than the call it decomposes, which separate executions of a
	// 20 ms query on a busy two-core host do by chance.
	realOverruns  int
	replayOverrun float64
}

func (t *tracer) summarize() *traceSummary {
	sum := &traceSummary{
		perOp:      map[string][]float64{},
		childPerOp: map[string][]float64{},
		perSpan:    map[string][]float64{},
		counts:     map[string][]float64{},
	}
	for _, ops := range t.counts {
		for _, op := range ops {
			for name, v := range op {
				sum.counts[name] = append(sum.counts[name], v)
			}
		}
	}
	overruns := 0
	for _, op := range t.ops() {
		sum.ops++
		children, real := childTimes(op)
		over := false
		dur := map[string]float64{}
		kids := map[string]float64{}
		for i, s := range op {
			d := ms(s.dur())
			dur[s.Name] += d
			kids[s.Name] += ms(children[i])
			if children[i] > s.dur() {
				if real[i] {
					sum.realOverruns++
				} else {
					over = true
				}
			}
			sum.perSpan[s.Name] = append(sum.perSpan[s.Name], d)
			if s.Tag != "" {
				k := s.Name + "/" + s.Tag
				sum.perSpan[k] = append(sum.perSpan[k], d)
			}
		}
		if over {
			overruns++
		}
		for name, d := range dur {
			sum.perOp[name] = append(sum.perOp[name], d)
			sum.childPerOp[name] = append(sum.childPerOp[name], kids[name])
		}
	}
	if sum.ops > 0 {
		sum.replayOverrun = float64(overruns) / float64(sum.ops)
	}
	return sum
}

// opMs is the median over ops of the summed duration of spans named
// name, in milliseconds; spanMs the median single-span duration for a
// name or name/tag key.
func (s *traceSummary) opMs(name string) (float64, int) {
	return median(s.perOp[name]), len(s.perOp[name])
}

// selfMs is the self time of spans named name per op: the median of
// their summed durations minus the median of their children's. Taking
// the difference of medians, not the median of per-op differences,
// keeps replay noise from being floored into a positive bias.
func (s *traceSummary) selfMs(name string) (float64, int) {
	return max(0, median(s.perOp[name])-median(s.childPerOp[name])), len(s.perOp[name])
}
func (s *traceSummary) spanMs(key string) (float64, int) {
	return median(s.perSpan[key]), len(s.perSpan[key])
}

// total sums a work counter over all ops.
func (s *traceSummary) total(name string) float64 {
	var t float64
	for _, v := range s.counts[name] {
		t += v
	}
	return t
}

// writeJSONL writes every span as one JSON line, ordered by start time.
func (t *tracer) writeJSONL(path string) error {
	var all []span
	for _, spans := range t.clients {
		all = append(all, spans...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
