// Package metriccheck_a reproduces the metric-convention violations:
// names off videodb_*, registration outside the single site, and
// divergence between the Prometheus exposition and the stats payload.
package metriccheck_a

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics mirrors the server counter block.
type metrics struct {
	a atomic.Uint64
	b atomic.Uint64
	c atomic.Uint64
}

func (m *metrics) record() {
	m.a.Add(1)
	m.b.Add(1)
	m.c.Add(1) // want "incremented but exposed by neither"
}

// writeProm is the single exposition site.
func (m *metrics) writeProm(w io.Writer) {
	counter := func(name string, v uint64) {
		fmt.Fprintf(w, "# HELP %s total\n# TYPE %s counter\n%s %d\n", name, name, name, v)
	}
	counter("videodb_a_total", m.a.Load())
	counter("videodb_b_total", m.b.Load()) // want "missing from /v1/stats"
	counter("videodb_Bad_total", 0)        // want "violates the videodb_"
	counter("plain_total", 0)              // want "violates the videodb_"
}

// totals is the /v1/stats payload: it reads a but not b.
func (m *metrics) totals() map[string]uint64 {
	return map[string]uint64{"a": m.a.Load()}
}

// rogueExpo writes exposition text outside writeProm.
func rogueExpo(w io.Writer) { // want "metric exposition in rogueExpo"
	fmt.Fprintf(w, "# TYPE videodb_dup_total counter\n")
}
