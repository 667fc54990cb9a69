package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"videodb/internal/core"
	"videodb/internal/datalog"
	"videodb/internal/object"
	"videodb/internal/video"
)

// Corpus shapes. The archive is what the query workloads read; the
// stream is what ingest replays. Both are functions of the seed alone.
const (
	archiveSec     = 600
	archiveObjects = 40
	streamSec      = 3600
	zipfS          = 1.1
)

// costarRules are the IDB view the bound-IDB probe and the ingest
// subscription both read: the symmetric closure of appears_with.
const costarRules = `costar(X, Y, S) :- appears_with(X, Y, S).
costar(X, Y, S) :- appears_with(Y, X, S).
`

// corpus is the generated archive: the VideoQL script the engine loads,
// the object names keys are drawn over, and the sequence behind both.
type corpus struct {
	script  string
	objects []string
	seq     *video.Sequence
	genSeed int64 // the generator seed behind seq; see archiveSequence
}

// inputs describes the generated corpus for the result file.
func (c *corpus) inputs() map[string]any {
	sh := shapeOf(c.seq)
	return map[string]any{"generator_seed": c.genSeed, "shots": sh.shots, "appears_with_facts": sh.facts, "selfjoin_rows": sh.triples}
}

// shape is what the workloads' cost depends on in a generated sequence:
// the number of shots, of appears_with facts (pairs of objects sharing a
// shot) and of self-join rows (triples sharing a shot).
type shape struct{ shots, facts, triples int }

func shapeOf(seq *video.Sequence) shape {
	sh := shape{shots: len(seq.Shots)}
	for i := range seq.Shots {
		k := len(seq.ShotObjects(i))
		sh.facts += k * (k - 1) / 2
		sh.triples += k * (k - 1) * (k - 2) / 6
	}
	return sh
}

// archiveShape is the shape of the seed-1 archive — the row counts the
// scan workload is defined by — and the tolerances within which every
// other seed's archive must match it. The generator left alone varies
// the fact count by ±6 % and the self-join by ±10 % from seed to seed,
// and the benchmark's driver compares runs of different seeds; so a
// seed's archive is the first sequence of its candidate series (the seed
// itself, then seed + k·1 000 003) whose shape is within tolerance, one
// candidate in about 150. Different seeds still give different archives —
// other shots, other co-occurrences — of the same size. The result file
// records the generator seed and the shape.
var archiveShape = shape{shots: 102, facts: 5237, triples: 17170}

const (
	shotsTol   = 0.01 // ± 1 shot: the rules suite is quadratic in the interval count
	factsTol   = 0.005
	triplesTol = 0.01
	candidates = 20000
)

func (s shape) near(want shape) bool {
	within := func(got, want int, tol float64) bool {
		d := float64(got-want) / float64(want)
		return d >= -tol && d <= tol
	}
	return within(s.shots, want.shots, shotsTol) && within(s.facts, want.facts, factsTol) && within(s.triples, want.triples, triplesTol)
}

// archiveSequence generates the seed's archive-600x40 sequence and
// returns the generator seed it came from.
func archiveSequence(seed int64) (*video.Sequence, int64, error) {
	for k := int64(0); k < candidates; k++ {
		genSeed := seed + k*1_000_003
		seq := video.Generate(video.GenConfig{Seed: genSeed, DurationSec: archiveSec, NumObjects: archiveObjects})
		if shapeOf(seq).near(archiveShape) {
			return seq, genSeed, nil
		}
	}
	return nil, 0, fmt.Errorf("seed %d: none of %d candidate sequences has the archive's shape", seed, candidates)
}

func renderCorpus(seq *video.Sequence, genSeed int64) (*corpus, error) {
	var b bytes.Buffer
	if err := video.WriteVQL(&b, seq); err != nil {
		return nil, fmt.Errorf("render corpus: %w", err)
	}
	return &corpus{script: b.String(), objects: seq.Objects(), seq: seq, genSeed: genSeed}, nil
}

// load builds a database over the corpus on the mem backend.
func (c *corpus) load(rules string, opts ...core.Option) (*core.DB, error) {
	db := core.New(opts...)
	if _, err := db.LoadScript(c.script + rules); err != nil {
		db.Close()
		return nil, fmt.Errorf("load corpus: %w", err)
	}
	return db, nil
}

// naiveTwin loads the same script into a database whose every query runs
// the naive fixpoint: the oracle all answers are checked against.
func (c *corpus) naiveTwin(rules string) (*core.DB, error) {
	return c.load(rules, core.WithEngineOptions(datalog.Naive()))
}

// keyDraw draws object names zipf-distributed over a seed-fixed
// permutation, so which object is hot depends on the seed and nothing
// in the engine can key on a name.
type keyDraw struct {
	names []string
	zipf  *rand.Zipf
}

func newKeyDraw(rng *rand.Rand, objects []string, permSeed int64) *keyDraw {
	names := append([]string(nil), objects...)
	rand.New(rand.NewSource(permSeed)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return &keyDraw{names: names, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(names)-1))}
}

func (k *keyDraw) one() string { return k.names[k.zipf.Uint64()] }

// pair draws two distinct names in generator order: appears_with(a, b, S)
// is stored with a before b, so an ordered pair is the probe that can hit.
func (k *keyDraw) pair() (string, string) {
	a, b := k.one(), k.one()
	for a == b {
		b = k.one()
	}
	if a > b {
		a, b = b, a
	}
	return a, b
}

// rowSet renders rows canonically (one JSON line per row, sorted) so two
// answers compare as sets regardless of evaluation order.
func rowSet(rows [][]object.Value) ([]string, error) {
	out := make([]string, len(rows))
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out, nil
}

// sameRows reports an error unless got and want are the same set of rows.
func sameRows(query, gotFrom, wantFrom string, got, want [][]object.Value) error {
	g, err := rowSet(got)
	if err != nil {
		return err
	}
	w, err := rowSet(want)
	if err != nil {
		return err
	}
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		return fmt.Errorf("%s: %d rows %s, %d %s (row sets differ)", query, len(g), gotFrom, len(w), wantFrom)
	}
	return nil
}

// sameAnswer runs query on both databases and reports a mismatch as an
// error; it returns the row count both agree on.
func sameAnswer(ctx context.Context, db, oracle *core.DB, query string) (int, error) {
	got, err := db.QueryContext(ctx, query)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", query, err)
	}
	want, err := oracle.QueryContext(ctx, query)
	if err != nil {
		return 0, fmt.Errorf("oracle %s: %w", query, err)
	}
	return len(got.Rows), sameRows(query, "from the engine", "from the naive oracle", got.Rows, want.Rows)
}

// groupCounts counts the oracle's rows of query by the columns cols, the
// expected row count of every bound variant of an unbound template.
func groupCounts(ctx context.Context, oracle *core.DB, query string, cols ...int) (map[string]int, error) {
	rs, err := oracle.QueryContext(ctx, query)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", query, err)
	}
	out := make(map[string]int)
	for _, r := range rs.Rows {
		key := make([]string, len(cols))
		for i, c := range cols {
			oid, ok := r[c].AsRef()
			if !ok {
				return nil, fmt.Errorf("oracle %s: column %d is not an object reference", query, c)
			}
			key[i] = string(oid)
		}
		out[strings.Join(key, ",")]++
	}
	return out, nil
}

// archiveCorpus returns the archive-600x40 corpus for the run's seed;
// quick runs use a fifth of it, unshaped.
func archiveCorpus(cfg *runConfig) (*corpus, error) {
	if cfg.Quick {
		return renderCorpus(video.Generate(video.GenConfig{Seed: cfg.Seed, DurationSec: archiveSec / 5, NumObjects: archiveObjects}), cfg.Seed)
	}
	seq, genSeed, err := archiveSequence(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return renderCorpus(seq, genSeed)
}
