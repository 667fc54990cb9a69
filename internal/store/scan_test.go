package store

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"videodb/internal/interval"
	"videodb/internal/object"
)

// linearScan is the filter ScanFacts applied to every fact before the
// posting lists existed: the oracle the indexed scan must equal, fact
// for fact and in the same order, for every kind of bind.
func linearScan(facts []Fact, binds []ArgBind, fn func(Fact) bool) {
	for _, f := range facts {
		ok := true
		for _, b := range binds {
			if b.Pos < 0 || b.Pos >= len(f.Args) || !f.Args[b.Pos].Equal(b.Val) {
				ok = false
				break
			}
		}
		if ok && !fn(f) {
			return
		}
	}
}

// scanPool holds values of every kind, including the ones Value.Equal
// treats specially: a ref and a string with the same text (distinct),
// −0 and +0 (equal), and NaN (equal to every number).
var scanPool = []object.Value{
	object.Ref("a"), object.Ref("b"), object.Ref("c"),
	object.Str("a"), object.Str("b"),
	object.Num(0), object.Num(math.Copysign(0, -1)), object.Num(1), object.Num(math.NaN()),
	object.Null(),
	object.Temporal(interval.New(interval.Open(0, 10))),
	object.Temporal(interval.New(interval.Open(0, 10), interval.Open(20, 30))),
	object.RefSet("a", "b"), object.Set(object.Str("a"), object.Num(1)),
}

func randomArgs(rng *rand.Rand) []object.Value {
	args := make([]object.Value, rng.Intn(3))
	for i := range args {
		args[i] = scanPool[rng.Intn(len(scanPool))]
	}
	return args
}

func randomBinds(rng *rand.Rand) []ArgBind {
	binds := make([]ArgBind, rng.Intn(4))
	for i := range binds {
		binds[i] = ArgBind{Pos: rng.Intn(6) - 1, Val: scanPool[rng.Intn(len(scanPool))]}
	}
	return binds
}

func scanKeys(scan func([]ArgBind, func(Fact) bool), binds []ArgBind, limit int) []string {
	var out []string
	scan(binds, func(f Fact) bool {
		out = append(out, f.Key())
		return len(out) < limit
	})
	return out
}

// TestScanFactsMatchesLinearFilter drives random adds, deletes and
// re-adds across the compaction threshold and checks every bound scan —
// including early stops — against the linear filter over the relation's
// insertion-ordered facts.
func TestScanFactsMatchesLinearFilter(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var added []Fact
		compactions, lastLen := 0, 0
		for op := 0; op < 600; op++ {
			switch {
			case len(added) > 0 && rng.Intn(100) < 45:
				s.DeleteFact(added[rng.Intn(len(added))])
			case len(added) > 0 && rng.Intn(100) < 20:
				s.AddFact(added[rng.Intn(len(added))]) // re-add, possibly of a deleted fact
			default:
				f := NewFact("r", randomArgs(rng)...)
				s.AddFact(f)
				added = append(added, f)
			}
			if rel := s.facts["r"]; rel == nil {
				lastLen = 0 // every fact deleted: the relation is gone
			} else {
				if len(rel.list) < lastLen {
					compactions++
				}
				lastLen = len(rel.list)
			}
			if op%5 != 0 {
				continue
			}
			for q := 0; q < 8; q++ {
				binds := randomBinds(rng)
				limit := math.MaxInt
				if rng.Intn(3) == 0 {
					limit = 1 + rng.Intn(4)
				}
				want := scanKeys(func(b []ArgBind, fn func(Fact) bool) { linearScan(s.Facts("r"), b, fn) }, binds, limit)
				got := scanKeys(func(b []ArgBind, fn func(Fact) bool) { s.ScanFacts("r", b, fn) }, binds, limit)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d op %d: ScanFacts(%v) limit %d\n got %v\nwant %v", seed, op, binds, limit, got, want)
				}
			}
		}
		if compactions == 0 {
			t.Errorf("seed %d: the relation never compacted", seed)
		}
	}
}

// TestScanFactsConcurrentWithWriters races bound readers against writers
// that add, delete and re-add until the relation compacts (run under
// -race). Every fact a reader sees must match its binds, once.
func TestScanFactsConcurrentWithWriters(t *testing.T) {
	s := New()
	fact := func(i int) Fact {
		return RefFact("r", object.OID(fmt.Sprintf("k%d", i%7)), object.OID(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < 200; i++ {
		s.AddFact(fact(i))
	}
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < 3000; op++ {
				if i := rng.Intn(400); rng.Intn(2) == 0 {
					s.DeleteFact(fact(i))
				} else {
					s.AddFact(fact(i))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			binds := []ArgBind{{Pos: 0, Val: object.Ref(object.OID(fmt.Sprintf("k%d", r)))}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				seen := map[string]bool{}
				bad := false
				s.ScanFacts("r", binds, func(f Fact) bool {
					if bad = !f.Matches(binds) || seen[f.Key()]; bad {
						errs <- fmt.Errorf("reader %d: %v for binds %v (seen before: %v)", r, f, binds, seen[f.Key()])
						return false
					}
					seen[f.Key()] = true
					return true
				})
				if bad {
					return
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// boundScanStore holds n facts r(k<i mod n/10>, v<i>): a ref bind on the
// first argument selects 10 of them, whatever n is.
func boundScanStore(n int) *Store {
	s := New()
	for i := 0; i < n; i++ {
		s.AddFact(RefFact("r", object.OID(fmt.Sprintf("k%d", i%(n/10))), object.OID(fmt.Sprintf("v%d", i))))
	}
	return s
}

func benchBoundScan(s *Store) func(*testing.B) {
	binds := []ArgBind{{Pos: 0, Val: object.Ref("k7")}}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			s.ScanFacts("r", binds, func(Fact) bool { n++; return true })
			if n != 10 {
				b.Fatalf("bound scan matched %d facts, want 10", n)
			}
		}
	}
}

// TestScanFactsBoundCostIndependentOfSize is the complexity guard: a
// selective ref bind costs about the same on a 200k-fact relation as on
// a 2k-fact one. A linear pass costs about 100× more on the larger one.
func TestScanFactsBoundCostIndependentOfSize(t *testing.T) {
	small := testing.Benchmark(benchBoundScan(boundScanStore(2_000)))
	large := testing.Benchmark(benchBoundScan(boundScanStore(200_000)))
	ratio := float64(large.NsPerOp()) / float64(max(small.NsPerOp(), 1))
	t.Logf("10-match bound scan: %d ns on 2k facts, %d ns on 200k facts (%.1f×)", small.NsPerOp(), large.NsPerOp(), ratio)
	if ratio >= 10 {
		t.Errorf("a bound scan on 200k facts costs %.1f× the same scan on 2k facts, want under 10×", ratio)
	}
}

func BenchmarkScanFactsBound(b *testing.B) {
	for _, n := range []int{2_000, 200_000} {
		b.Run(fmt.Sprintf("facts=%d", n), benchBoundScan(boundScanStore(n)))
	}
}
