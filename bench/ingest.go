package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"videodb/internal/core"
	"videodb/internal/datalog"
	"videodb/internal/object"
	"videodb/internal/parser"
	"videodb/internal/store"
	"videodb/internal/video"
)

// ingestGoal is the standing query the subscriber holds. It is unbound
// and over an IDB predicate so that every batch changes its answer: a
// hop whose batch changed nothing could not be observed.
const ingestGoal = "?- costar(X, Y, S)"

// retention is W: a shot is retired when the shot W positions later
// arrives, so the live set is stationary.
const retention = 100

// shot is one batch of the stream: the script that ingests it and what
// retiring it has to remove.
type shot struct {
	text  string
	oid   string
	pairs [][2]string // appears_with(a, b, oid)
}

// inLap renames the shot for a lap of the stream, so the stream is
// endless and every oid is new.
func (s shot) inLap(lap int) shot {
	if lap == 0 {
		return s
	}
	oid := fmt.Sprintf("lap%d%s", lap, s.oid)
	return shot{text: strings.ReplaceAll(s.text, s.oid, oid), oid: oid, pairs: s.pairs}
}

// ingestWorkload replays a detector-style fact stream into the segment
// backend over HTTP while one SSE subscriber holds ingestGoal.
type ingestWorkload struct {
	cfg      *runConfig
	prologue string // object declarations
	shots    []shot
	window   int
	setups   int
}

func (w *ingestWorkload) prepare(cfg *runConfig) error {
	w.cfg, w.window = cfg, retention
	sec := float64(streamSec)
	if cfg.Quick {
		sec, w.window = 600, 20
	}
	seq := video.Generate(video.GenConfig{Seed: cfg.Seed, DurationSec: sec, NumObjects: archiveObjects})
	batches := video.StreamBatches(seq)
	w.prologue = batches[0]
	for _, text := range batches[1:] {
		sc, err := parser.Parse(text)
		if err != nil {
			return fmt.Errorf("stream batch: %w", err)
		}
		// A shot with fewer than two objects induces no fact: posting it
		// would be a hop no subscriber can see.
		if len(sc.Facts) == 0 || len(sc.Objects) != 1 {
			continue
		}
		s := shot{text: text, oid: string(sc.Objects[0].OID())}
		for _, f := range sc.Facts {
			a, _ := f.Args[0].AsRef()
			b, _ := f.Args[1].AsRef()
			s.pairs = append(s.pairs, [2]string{string(a), string(b)})
		}
		w.shots = append(w.shots, s)
	}
	if len(w.shots) <= w.window {
		return fmt.Errorf("stream has %d usable shots, need more than the retention window %d", len(w.shots), w.window)
	}
	return nil
}

func (w *ingestWorkload) inputs() map[string]any {
	_, facts := w.preload()
	return map[string]any{"generator_seed": w.cfg.Seed, "stream_shots": len(w.shots), "retention_shots": w.window, "preloaded_facts": facts}
}

// at returns the shot at stream position n; the stream repeats in laps.
func (w *ingestWorkload) at(n int) shot {
	return w.shots[n%len(w.shots)].inLap(n / len(w.shots))
}

// preload is the script of set-up: the objects, the costar rules and
// the first W shots; facts is how many facts those shots induce.
func (w *ingestWorkload) preload() (script string, facts int) {
	var pre strings.Builder
	pre.WriteString(w.prologue)
	pre.WriteString(costarRules)
	for n := 0; n < w.window; n++ {
		s := w.at(n)
		pre.WriteString(s.text)
		facts += len(s.pairs)
	}
	return pre.String(), facts
}

// setup opens a fresh segment database, preloads the first W shots so
// the live set is already at its stationary size, starts the server and
// attaches the subscriber. The subscription's first event is a snapshot
// that could already contain a racing write, so set-up waits for it
// before any hop is posted.
func (w *ingestWorkload) setup() (instance, error) {
	w.setups++
	dir := filepath.Join(w.cfg.tmpDir(), fmt.Sprintf("db-%d", w.setups))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db, err := core.OpenSegment(dir)
	if err != nil {
		return nil, err
	}
	script, facts := w.preload()
	if _, err := db.LoadScript(script); err != nil {
		db.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	srv, err := serve(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	inst := &ingestInstance{w: w, dir: dir, db: db, srv: srv, cl: srv.newClient(), next: w.window}
	if inst.sub, err = srv.subscribe(ingestGoal); err != nil {
		inst.close()
		return nil, err
	}
	_, err = inst.sub.await(context.Background(), func(s *subscriber) bool { return s.snapshots > 0 })
	if err == nil && len(inst.sub.rows) != 2*facts {
		err = fmt.Errorf("snapshot has %d rows, the preloaded window implies %d", len(inst.sub.rows), 2*facts)
	}
	if err != nil {
		inst.close()
		return nil, fmt.Errorf("subscription snapshot: %w", err)
	}
	return inst, nil
}

type ingestInstance struct {
	w   *ingestWorkload
	dir string
	db  *core.DB
	srv *served
	cl  *client
	sub *subscriber

	next        int // stream position of the next shot to post
	plus, minus int // deltas the acknowledged hops must have produced

	// Traced run only: a twin store the posted batch is replayed into,
	// call by call.
	twin *core.DB
}

func (g *ingestInstance) corpusSize() (int, int) {
	st := g.db.Store().Stats()
	return st.Objects, st.Facts
}

func (g *ingestInstance) close() error {
	g.stopServing()
	g.closeTwin()
	var err error
	if g.db != nil {
		err = g.db.Close()
		g.db = nil
	}
	for _, dir := range []string{g.dir, g.twinDir()} {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}
	_ = os.Remove(filepath.Dir(g.dir)) // the workload's temporary directory, once its last database is gone
	return err
}

// stopServing ends the subscription and stops the server. The server
// ends the stream ("event: close") and the reader exits on that frame:
// a client that hangs up first is detached for resume, and a detach that
// lands after Server.Close arms a 30 s reap timer that keeps the closed
// database alive through the next set-up's run (4 MiB each, in two
// set-ups of five).
func (g *ingestInstance) stopServing() {
	if g.sub != nil {
		g.srv.api.Close()
		select {
		case <-g.sub.done:
		case <-time.After(requestTimeout):
		}
		g.sub.close()
		g.sub = nil
	}
	if g.srv != nil {
		g.srv.close()
		g.srv = nil
	}
}

func (g *ingestInstance) twinDir() string { return g.dir + "-twin" }

func (g *ingestInstance) closeTwin() {
	if g.twin != nil {
		_ = g.twin.Close() // scratch replay store; nothing durable to lose
		g.twin = nil
	}
}

// verify checks the preloaded answer against a naive twin fed the same
// script; the per-hop expectation (2 costar rows per fact) rests on it.
func (g *ingestInstance) verify(ctx context.Context) ([]string, error) {
	twin := core.New(core.WithEngineOptions(datalog.Naive()))
	defer twin.Close()
	script, _ := g.w.preload()
	if _, err := twin.LoadScript(script); err != nil {
		return nil, err
	}
	for _, q := range []string{ingestGoal, queryScan} {
		if _, err := sameAnswer(ctx, g.db, twin, q); err != nil {
			return nil, err
		}
	}
	return []string{"the preloaded window's costar and appears_with answers equal the naive oracle's"}, nil
}

// op is one hop: post the next shot, retire the shot W positions
// older, and wait until the subscriber holds every delta the two imply.
func (g *ingestInstance) op(ctx context.Context, _ int, ot *opTrace) (time.Duration, error) {
	in, out := g.w.at(g.next), g.w.at(g.next-g.w.window)
	g.next++
	g.plus += 2 * len(in.pairs)
	g.minus += 2 * len(out.pairs)

	var id int
	t0 := time.Now()
	if ot != nil {
		id = ot.begin(rootID, spanPost, "", false)
	}
	err := g.cl.script(ctx, in.text)
	if ot != nil {
		ot.end(id)
	}
	if err != nil {
		return 0, err
	}
	if err := g.retire(ot, out); err != nil {
		return 0, err
	}
	if ot != nil {
		id = ot.begin(rootID, spanSSEWait, "", false)
	}
	plus, minus := g.plus, g.minus
	_, err = g.sub.await(ctx, func(s *subscriber) bool { return s.plus >= plus && s.minus >= minus })
	if ot != nil {
		ot.end(id)
	}
	if err != nil {
		return 0, fmt.Errorf("hop %d: %w", g.next-1, err)
	}
	e2e := time.Since(t0)
	if ot != nil {
		if err := g.replay(ot, in, out); err != nil {
			return 0, fmt.Errorf("replay: %w", err)
		}
	}
	return e2e, nil
}

// retire removes a shot: every fact, then the interval object itself —
// leaving the object behind would grow the store without bound.
func (g *ingestInstance) retire(ot *opTrace, s shot) error {
	var rid, id int
	if ot != nil {
		rid = ot.begin(rootID, spanRetire, "", false)
		defer ot.end(rid)
	}
	for _, p := range s.pairs {
		if ot != nil {
			id = ot.begin(rid, spanDelFact, "", false)
		}
		ok, err := g.db.Unrelate("appears_with", object.OID(p[0]), object.OID(p[1]), object.OID(s.oid))
		if ot != nil {
			ot.end(id)
		}
		if err != nil {
			return fmt.Errorf("retire appears_with(%s, %s, %s): %w", p[0], p[1], s.oid, err)
		}
		if !ok {
			return fmt.Errorf("retire appears_with(%s, %s, %s): fact was not live", p[0], p[1], s.oid)
		}
	}
	if ot != nil {
		id = ot.begin(rid, spanDelete, "", false)
	}
	ok, err := g.db.Store().DeleteErr(object.OID(s.oid))
	if ot != nil {
		ot.end(id)
	}
	if err != nil {
		return fmt.Errorf("retire interval %s: %w", s.oid, err)
	}
	if !ok {
		return fmt.Errorf("retire interval %s: object was not stored", s.oid)
	}
	return nil
}

func (g *ingestInstance) beginTrace(context.Context) error {
	if err := os.MkdirAll(g.twinDir(), 0o755); err != nil {
		return err
	}
	var err error
	if g.twin, err = core.OpenSegment(g.twinDir()); err != nil {
		return err
	}
	_, err = g.twin.LoadScript(g.w.prologue)
	return err
}

// replay applies the posted batch to the twin store one public call at
// a time — parse, put the interval, add each fact — as spans under the
// POST they decompose, then retires the twin's old shot untimed so the
// twin stays the size of the live window.
func (g *ingestInstance) replay(ot *opTrace, in, out shot) error {
	post := rootID + 1 // the POST is every hop's first span after the root
	id := ot.begin(post, spanScript, "", true)
	sc, err := parser.Parse(in.text)
	ot.end(id)
	if err != nil {
		return err
	}
	st := g.twin.Store()
	for _, o := range sc.Objects {
		id = ot.begin(post, spanPut, "", true)
		err := st.Put(o)
		ot.end(id)
		if err != nil {
			return err
		}
	}
	for _, f := range sc.Facts {
		id = ot.begin(post, spanAddFact, "", true)
		_, err := st.AddFactErr(f)
		ot.end(id)
		if err != nil {
			return err
		}
	}
	if !st.Has(object.OID(out.oid)) {
		return nil // the twin has not yet seen W shots
	}
	for _, p := range out.pairs {
		if _, err := st.DeleteFactErr(store.RefFact("appears_with", object.OID(p[0]), object.OID(p[1]), object.OID(out.oid))); err != nil {
			return err
		}
	}
	_, err = st.DeleteErr(object.OID(out.oid))
	return err
}

func (g *ingestInstance) counters(ctx context.Context) (map[string]float64, error) {
	st, err := g.cl.stats()
	if err != nil {
		return nil, err
	}
	g.sub.mu.Lock()
	deltas := g.sub.plus + g.sub.minus
	g.sub.mu.Unlock()
	out := map[string]float64{
		"flushes":      float64(st.Backend.Flushes),
		"compactions":  float64(st.Backend.Compactions),
		"cache_hits":   float64(st.Backend.CacheHits),
		"cache_misses": float64(st.Backend.CacheMisses),
		"sse_deltas":   float64(deltas),
	}
	for _, info := range g.db.Subscriptions() {
		out["sse_flushes"] = float64(info.Flushes)
	}
	return out, nil
}

func (g *ingestInstance) layers(ctx context.Context, lr *layerRun) error {
	ops := float64(lr.ops)
	lr.putSpan("server.script_post_ms", "ms", spanPost)
	lr.putSpan("server.sse_lag_ms", "ms", spanSSEWait)
	lr.putOpMs("core.retire_ms", spanRetire)
	if err := g.putRecomputeShare(ctx, lr); err != nil {
		return err
	}
	lr.put("core.sub_flushes_per_op", "count", lr.delta["sse_flushes"]/ops, lr.ops)
	lr.put("core.sub_deltas_per_op", "count", lr.delta["sse_deltas"]/ops, lr.ops)
	ws := lr.run.windows(0.95)
	if first := ws[0].P50Ms; first > 0 {
		lr.put("core.hop_drift", "ratio", ws[numWindows-1].P50Ms/first, lr.ops)
	}
	lr.putSpan("parser.script_parse_us", "us", spanScript)
	lr.put("datalog.intern_values", "count", float64(datalog.InternStats().Values), 1)

	lr.putSpan("store.put_us", "us", spanPut)
	lr.putSpan("store.addfact_us", "us", spanAddFact)
	lr.putSpan("store.delfact_us", "us", spanDelFact)
	stall, writes := 0.0, 0
	for _, name := range []string{spanPut, spanAddFact, spanDelFact, spanDelete} {
		for _, d := range lr.trace.perSpan[name] {
			stall = max(stall, d)
			writes++
		}
	}
	lr.put("store.stall_max_ms", "ms", stall, writes)
	lr.put("store.flushes", "count", lr.delta["flushes"], 1)
	lr.put("store.compactions", "count", lr.delta["compactions"], 1)
	lr.put("store.cache_hit_share", "share", share(lr.delta["cache_hits"], lr.delta["cache_misses"]), int(lr.delta["cache_hits"]+lr.delta["cache_misses"]))
	return nil
}

// putRecomputeShare reports how many of a subscription's maintenance
// passes were full recomputes. The wire carries only the flush count, so
// an in-process subscription to the same goal is attached for a few
// extra hops after the traced run and its SubStats read; attaching it
// during the traced run would double the maintenance work being timed.
func (g *ingestInstance) putRecomputeShare(ctx context.Context, lr *layerRun) error {
	// A queue as large as the SSE subscriber's, drained as fast as it
	// fills: a resync would restart the counts.
	sub, err := g.db.SubscribeQuery(nil, ingestGoal, core.SubOptions{QueueSize: 4096})
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, err := sub.Next(context.Background()); err != nil {
				return // closed below
			}
		}
	}()
	defer func() {
		sub.Close()
		<-drained
	}()
	const hops = 40
	before := sub.Stats()
	for i := 0; i < hops; i++ {
		if _, err := g.op(ctx, 0, nil); err != nil {
			return err
		}
	}
	after := sub.Stats()
	flushes := after.Flushes - before.Flushes
	lr.put("core.sub_recompute_share", "share", float64(after.Recomputes-before.Recomputes)/float64(max(flushes, 1)), int(flushes))
	return nil
}

// liveFacts returns the appears_with facts of a store, canonically.
func liveFacts(st *store.Store) []string {
	var out []string
	st.ScanFacts("appears_with", nil, func(f store.Fact) bool {
		out = append(out, f.Key())
		return true
	})
	sort.Strings(out)
	return out
}

// wireAnswer fetches the goal's one-shot answer keyed like the
// subscriber's accumulated rows.
func (g *ingestInstance) wireAnswer(ctx context.Context) (map[string]bool, error) {
	body, err := json.Marshal(map[string]string{"query": ingestGoal})
	if err != nil {
		return nil, err
	}
	if err := g.cl.post(ctx, "/v1/query", body); err != nil {
		return nil, err
	}
	var resp struct {
		Rows [][]json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(g.cl.buf.Bytes(), &resp); err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(resp.Rows))
	for _, r := range resp.Rows {
		out[wireKey(r)] = true
	}
	return out, nil
}

// finish checks, at quiescence: the subscriber's accumulated rows equal
// the one-shot answer; nothing was dropped or resynced; the live facts
// are exactly the acknowledged window; and after Close and reopen on
// the same directory the facts and the goal's answer are unchanged.
func (g *ingestInstance) finish(ctx context.Context, lr *layerRun) ([]string, error) {
	g.closeTwin()
	want, err := g.wireAnswer(ctx)
	if err != nil {
		return nil, err
	}
	g.sub.mu.Lock()
	got, snapshots := len(g.sub.rows), g.sub.snapshots
	missing := ""
	for k := range want {
		if !g.sub.rows[k] {
			missing = k
			break
		}
	}
	g.sub.mu.Unlock()
	if got != len(want) || missing != "" {
		return nil, fmt.Errorf("subscriber holds %d rows, one-shot /v1/query has %d (first missing %q)", got, len(want), missing)
	}
	if t := g.db.SubscriptionStats(); t.Dropped != 0 || t.Resyncs != 0 || snapshots != 1 {
		return nil, fmt.Errorf("subscription dropped %d events, resynced %d times, sent %d snapshots; want 0, 0, 1", t.Dropped, t.Resyncs, snapshots)
	}

	var acked []string
	for n := g.next - g.w.window; n < g.next; n++ {
		s := g.w.at(n)
		for _, p := range s.pairs {
			acked = append(acked, store.RefFact("appears_with", object.OID(p[0]), object.OID(p[1]), object.OID(s.oid)).Key())
		}
	}
	sort.Strings(acked)
	same := func(what string, facts []string) error {
		if strings.Join(facts, "\n") != strings.Join(acked, "\n") {
			return fmt.Errorf("%s: %d live facts, the acknowledged window has %d (or they differ)", what, len(facts), len(acked))
		}
		return nil
	}
	if err := same("before close", liveFacts(g.db.Store())); err != nil {
		return nil, err
	}
	if len(want) != 2*len(acked) {
		return nil, fmt.Errorf("goal has %d rows, the acknowledged window implies %d", len(want), 2*len(acked))
	}
	bs := g.db.Store().BackendStats()
	lr.put("store.tombstones_end", "count", float64(bs.Tombstones), 1)

	// Restart: close everything, reopen the directory cold.
	g.stopServing()
	t0 := time.Now()
	err = g.db.Close()
	g.db = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	lr.put("store.close_ms", "ms", ms(time.Since(t0)), 1)
	if size, err := dirBytes(g.dir); err != nil {
		return nil, err
	} else if len(acked) > 0 {
		lr.put("store.disk_bytes_per_fact", "B", float64(size)/float64(len(acked)), len(acked))
	}
	t0 = time.Now()
	if g.db, err = core.OpenSegment(g.dir); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	lr.put("store.reopen_ms", "ms", ms(time.Since(t0)), 1)
	t0 = time.Now()
	cold := liveFacts(g.db.Store())
	lr.put("store.cold_scan_ms", "ms", ms(time.Since(t0)), len(cold))
	t0 = time.Now()
	warm := liveFacts(g.db.Store())
	lr.put("store.warm_scan_ms", "ms", ms(time.Since(t0)), len(warm))
	if err := same("after reopen", cold); err != nil {
		return nil, err
	}
	// Rules are program source, not data: re-add them, then ask again.
	if _, err := g.db.LoadScript(costarRules); err != nil {
		return nil, err
	}
	rs, err := g.db.QueryContext(ctx, ingestGoal)
	if err != nil {
		return nil, err
	}
	if len(rs.Rows) != len(want) {
		return nil, fmt.Errorf("after reopen the goal has %d rows, before close %d", len(rs.Rows), len(want))
	}
	for _, r := range rs.Rows {
		raw := make([]json.RawMessage, len(r))
		for i, v := range r {
			if raw[i], err = json.Marshal(v); err != nil {
				return nil, err
			}
		}
		if !want[wireKey(raw)] {
			return nil, fmt.Errorf("after reopen the goal has row %s, which the pre-close answer lacks", wireKey(raw))
		}
	}
	return []string{
		"subscriber's accumulated rows equal the one-shot /v1/query answer",
		"no dropped events, no resync, one snapshot",
		"live facts equal the acknowledged window before close and after reopen",
		"the goal's answer after reopen equals the answer before close",
	}, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
