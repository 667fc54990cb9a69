package segment

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"videodb/internal/object"
	"videodb/internal/store"
)

// Differential property test: drive an identical randomized operation
// sequence into the in-memory store (the oracle) and a segment-backed
// store (with aggressive thresholds so flushes, compactions, and block
// evictions all trigger), interleaving checkpoints and full restarts on
// the segment side, and require the observable state to stay identical.

type storePair struct {
	t   *testing.T
	dir string
	mem *store.Store
	seg *store.Store
}

func (p *storePair) reopenSeg() {
	p.t.Helper()
	if err := p.seg.Close(); err != nil {
		p.t.Fatalf("close before reopen: %v", err)
	}
	b, err := Open(p.dir,
		WithFlushThreshold(32),
		WithBlockTargetBytes(128),
		WithBlockCacheBytes(2<<10),
		WithCompactThreshold(4))
	if err != nil {
		p.t.Fatalf("reopen backend: %v", err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		p.t.Fatalf("reopen store: %v", err)
	}
	p.seg = st
}

func (p *storePair) check(step int) {
	p.t.Helper()
	relsM, relsS := p.mem.Relations(), p.seg.Relations()
	if fmt.Sprint(relsM) != fmt.Sprint(relsS) {
		p.t.Fatalf("step %d: relations diverged\n mem %v\n seg %v", step, relsM, relsS)
	}
	for _, rel := range relsM {
		if cm, cs := p.mem.FactCount(rel), p.seg.FactCount(rel); cm != cs {
			p.t.Fatalf("step %d: count(%s) mem=%d seg=%d", step, rel, cm, cs)
		}
		km := scanKeys(p.mem, rel, nil)
		ks := scanKeys(p.seg, rel, nil)
		if fmt.Sprint(km) != fmt.Sprint(ks) {
			p.t.Fatalf("step %d: facts(%s) diverged\n mem %v\n seg %v", step, rel, km, ks)
		}
	}
	if tm, ts := p.mem.TotalFacts(), p.seg.TotalFacts(); tm != ts {
		p.t.Fatalf("step %d: TotalFacts mem=%d seg=%d", step, tm, ts)
	}
	am := p.mem.FactArities()
	as := p.seg.FactArities()
	if fmt.Sprint(am) != fmt.Sprint(as) {
		p.t.Fatalf("step %d: arities diverged mem=%v seg=%v", step, am, as)
	}
	if om, os := p.mem.OIDs(), p.seg.OIDs(); fmt.Sprint(om) != fmt.Sprint(os) {
		p.t.Fatalf("step %d: objects diverged mem=%v seg=%v", step, om, os)
	}
	// Random bound scans, drawn from their own stream so the op sequence
	// stays the same: one to three binds of any kind, at any position,
	// compared as sets (the two backends order facts differently).
	rng := rand.New(rand.NewSource(int64(step)))
	for _, rel := range relsM {
		for q := 0; q < 10; q++ {
			binds := make([]store.ArgBind, 1+rng.Intn(3))
			for i := range binds {
				binds[i] = store.ArgBind{Pos: rng.Intn(4) - 1, Val: randValue(rng)}
			}
			km := scanKeys(p.mem, rel, binds)
			ks := scanKeys(p.seg, rel, binds)
			if fmt.Sprint(km) != fmt.Sprint(ks) {
				p.t.Fatalf("step %d: ScanFacts(%s, %v) diverged\n mem %v\n seg %v", step, rel, binds, km, ks)
			}
		}
	}
}

// randValue draws a fact argument: a string, a number or a ref.
func randValue(rng *rand.Rand) object.Value {
	switch rng.Intn(3) {
	case 0:
		return object.Str(fmt.Sprintf("s%d", rng.Intn(40)))
	case 1:
		return object.Num(float64(rng.Intn(25)))
	default:
		return object.Ref(object.OID(fmt.Sprintf("o%d", rng.Intn(15))))
	}
}

// scanKeys returns the sorted keys of the relation's facts matching binds.
func scanKeys(st *store.Store, rel string, binds []store.ArgBind) []string {
	var out []string
	st.ScanFacts(rel, binds, func(f store.Fact) bool {
		out = append(out, f.Key())
		return true
	})
	sort.Strings(out)
	return out
}

func TestMemSegmentEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	p := &storePair{t: t, dir: dir, mem: store.New()}
	p.seg = openTestStore(t, dir,
		WithFlushThreshold(32),
		WithBlockTargetBytes(128),
		WithBlockCacheBytes(2<<10),
		WithCompactThreshold(4))
	t.Cleanup(func() { p.seg.Close() })

	rels := []string{"in", "next", "overlap"}
	randFact := func() store.Fact {
		rel := rels[rng.Intn(len(rels))]
		arity := 1 + rng.Intn(3)
		args := make([]object.Value, arity)
		for i := range args {
			args[i] = randValue(rng)
		}
		return store.NewFact(rel, args...)
	}

	const steps = 3000
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(100); {
		case r < 55: // add
			f := randFact()
			okM, errM := p.mem.AddFactErr(f)
			okS, errS := p.seg.AddFactErr(f)
			if okM != okS || (errM == nil) != (errS == nil) {
				t.Fatalf("step %d: add %s mem=(%v,%v) seg=(%v,%v)", i, f, okM, errM, okS, errS)
			}
		case r < 85: // delete (often of a recently-likely fact)
			f := randFact()
			okM, errM := p.mem.DeleteFactErr(f)
			okS, errS := p.seg.DeleteFactErr(f)
			if okM != okS || (errM == nil) != (errS == nil) {
				t.Fatalf("step %d: del %s mem=(%v,%v) seg=(%v,%v)", i, f, okM, errM, okS, errS)
			}
		case r < 90: // object churn
			oid := object.OID(fmt.Sprintf("o%d", rng.Intn(15)))
			if rng.Intn(2) == 0 {
				o := object.NewEntity(oid)
				o.Set("n", object.Num(float64(i)))
				if err := p.mem.Put(o); err != nil {
					t.Fatal(err)
				}
				if err := p.seg.Put(o); err != nil {
					t.Fatal(err)
				}
			} else {
				p.mem.Delete(oid)
				p.seg.Delete(oid)
			}
		case r < 93: // membership probe on a random fact
			f := randFact()
			if hm, hs := p.mem.HasFact(f), p.seg.HasFact(f); hm != hs {
				t.Fatalf("step %d: HasFact(%s) mem=%v seg=%v", i, f, hm, hs)
			}
		case r < 95: // bound scan comparison
			rel := rels[rng.Intn(len(rels))]
			bind := []store.ArgBind{{Pos: rng.Intn(2), Val: object.Str(fmt.Sprintf("s%d", rng.Intn(40)))}}
			var km, ks []string
			p.mem.ScanFacts(rel, bind, func(f store.Fact) bool { km = append(km, f.Key()); return true })
			p.seg.ScanFacts(rel, bind, func(f store.Fact) bool { ks = append(ks, f.Key()); return true })
			sort.Strings(km)
			sort.Strings(ks)
			if fmt.Sprint(km) != fmt.Sprint(ks) {
				t.Fatalf("step %d: bound scan diverged\n mem %v\n seg %v", i, km, ks)
			}
		case r < 98: // checkpoint the segment side
			if err := p.seg.Checkpoint(); err != nil {
				t.Fatalf("step %d: checkpoint: %v", i, err)
			}
		default: // full restart of the segment side
			p.reopenSeg()
		}
		if i%250 == 0 || i == steps-1 {
			p.check(i)
		}
	}
	// The run must actually have exercised the disk path (counters are
	// per-instance, so read them before the final restart resets them).
	bs := p.seg.BackendStats()
	if bs.SegmentFacts == 0 || bs.CacheMisses == 0 {
		t.Fatalf("test did not exercise the disk path: %+v", bs)
	}
	// Final restart and full comparison.
	p.reopenSeg()
	p.check(steps)
}
