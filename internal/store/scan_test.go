package store_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
	"videodb/internal/store/segment"
)

// linearScan is the filter ScanFacts applied to every fact before the
// posting lists existed: the oracle the indexed scan must equal, fact
// for fact and in the same order, for every kind of bind.
func linearScan(facts []store.Fact, binds []store.ArgBind, fn func(store.Fact) bool) {
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

// durablePool is scanPool without NaN, which has no JSON form: the
// segment backend's tail log cannot record a fact that holds it.
var durablePool = slices.DeleteFunc(slices.Clone(scanPool), func(v object.Value) bool {
	n, ok := v.AsNumber()
	return ok && math.IsNaN(n)
})

func randomArgs(rng *rand.Rand, pool []object.Value) []object.Value {
	args := make([]object.Value, rng.Intn(3))
	for i := range args {
		args[i] = pool[rng.Intn(len(pool))]
	}
	return args
}

func randomBinds(rng *rand.Rand) []store.ArgBind {
	binds := make([]store.ArgBind, rng.Intn(4))
	for i := range binds {
		binds[i] = store.ArgBind{Pos: rng.Intn(6) - 1, Val: scanPool[rng.Intn(len(scanPool))]}
	}
	return binds
}

func scanKeys(scan func([]store.ArgBind, func(store.Fact) bool), binds []store.ArgBind, limit int) []string {
	var out []string
	scan(binds, func(f store.Fact) bool {
		out = append(out, f.Key())
		return len(out) < limit
	})
	return out
}

// TestScanFactsMatchesLinearFilter drives random adds, deletes and
// re-adds across the compaction threshold and checks every bound scan —
// including early stops — against the linear filter over the relation's
// facts in the backend's order. It runs each seed's op stream on the
// volatile store, whose fact table must compact, and on a segment store
// that must flush and compact, so a bound scan reads segment blocks and
// the memtable's posting lists together.
func TestScanFactsMatchesLinearFilter(t *testing.T) {
	t.Run("volatile", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			s := store.New()
			compactions, lastLen := 0, 0
			checkScansAgainstLinearFilter(t, seed, s, scanPool, func() {
				slots := store.VolatileSlots(s, "r") // 0 once every fact is deleted: the relation is gone
				if slots < lastLen {
					compactions++
				}
				lastLen = slots
			})
			if compactions == 0 {
				t.Errorf("seed %d: the relation never compacted", seed)
			}
		}
	})
	t.Run("segment", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			// 100 mutations per flush let the memtable's table compact
			// between flushes; two segments trigger a compaction.
			s := openDurable(t, openBackend(t, t.TempDir(),
				segment.WithFlushThreshold(100), segment.WithCompactThreshold(2),
				segment.WithBlockTargetBytes(256), segment.WithBlockCacheBytes(4<<10)))
			checkScansAgainstLinearFilter(t, seed, s, durablePool, func() {})
			if st := s.BackendStats(); st.Flushes == 0 || st.Compactions == 0 {
				t.Errorf("seed %d: the segment store flushed %d and compacted %d times, want both", seed, st.Flushes, st.Compactions)
			}
		}
	})
}

// checkScansAgainstLinearFilter runs seed's op stream on relation r of
// s, drawing fact arguments from pool, calling afterOp after every op
// and comparing bound scans every fifth op.
func checkScansAgainstLinearFilter(t *testing.T, seed int64, s *store.Store, pool []object.Value, afterOp func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var added []store.Fact
	for op := 0; op < 600; op++ {
		switch {
		case len(added) > 0 && rng.Intn(100) < 45:
			s.DeleteFact(added[rng.Intn(len(added))])
		case len(added) > 0 && rng.Intn(100) < 20:
			s.AddFact(added[rng.Intn(len(added))]) // re-add, possibly of a deleted fact
		default:
			f := store.NewFact("r", randomArgs(rng, pool)...)
			s.AddFact(f)
			added = append(added, f)
		}
		afterOp()
		if op%5 != 0 {
			continue
		}
		for q := 0; q < 8; q++ {
			binds := randomBinds(rng)
			limit := math.MaxInt
			if rng.Intn(3) == 0 {
				limit = 1 + rng.Intn(4)
			}
			want := scanKeys(func(b []store.ArgBind, fn func(store.Fact) bool) { linearScan(s.Facts("r"), b, fn) }, binds, limit)
			got := scanKeys(func(b []store.ArgBind, fn func(store.Fact) bool) { s.ScanFacts("r", b, fn) }, binds, limit)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d op %d: ScanFacts(%v) limit %d\n got %v\nwant %v", seed, op, binds, limit, got, want)
			}
		}
	}
}

// TestScanFactsConcurrentWithWriters races bound readers against writers
// that add, delete and re-add until the relation compacts (run under
// -race). Every fact a reader sees must match its binds, once.
func TestScanFactsConcurrentWithWriters(t *testing.T) {
	s := store.New()
	fact := func(i int) store.Fact {
		return store.RefFact("r", object.OID(fmt.Sprintf("k%d", i%7)), object.OID(fmt.Sprintf("v%d", i)))
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
			binds := []store.ArgBind{{Pos: 0, Val: object.Ref(object.OID(fmt.Sprintf("k%d", r)))}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				seen := map[string]bool{}
				bad := false
				s.ScanFacts("r", binds, func(f store.Fact) bool {
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
func boundScanStore(n int) *store.Store {
	s := store.New()
	for i := 0; i < n; i++ {
		s.AddFact(store.RefFact("r", object.OID(fmt.Sprintf("k%d", i%(n/10))), object.OID(fmt.Sprintf("v%d", i))))
	}
	return s
}

func benchBoundScan(s *store.Store) func(*testing.B) {
	binds := []store.ArgBind{{Pos: 0, Val: object.Ref("k7")}}
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			s.ScanFacts("r", binds, func(store.Fact) bool { n++; return true })
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

// TestScanFactsWalksShortestPostingList is the cost guard a result
// oracle cannot be: walking any bind's posting list yields the same
// facts. Every fact r(c, v<i>) is on c's list and one is on v7's, so a
// scan bound on both arguments must cost about what the scan bound on
// v7 alone costs, on the volatile store and in a segment memtable.
func TestScanFactsWalksShortestPostingList(t *testing.T) {
	const n = 20_000
	for name, s := range map[string]*store.Store{
		"volatile": store.New(),
		"segment":  openDurable(t, openBackend(t, t.TempDir(), segment.WithFlushThreshold(2*n))),
	} {
		for i := 0; i < n; i++ {
			s.AddFact(store.RefFact("r", "c", object.OID(fmt.Sprintf("v%d", i))))
		}
		one := []store.ArgBind{{Pos: 1, Val: object.Ref("v7")}}
		both := []store.ArgBind{{Pos: 0, Val: object.Ref("c")}, one[0]}
		// cost is the fastest of five rounds of 1,000 scans.
		cost := func(binds []store.ArgBind) time.Duration {
			best := time.Duration(math.MaxInt64)
			for round := 0; round < 5; round++ {
				start := time.Now()
				for i := 0; i < 1000; i++ {
					s.ScanFacts("r", binds, func(store.Fact) bool { return true })
				}
				best = min(best, time.Since(start))
			}
			return best
		}
		if c1, c2 := cost(one), cost(both); c2 > 10*c1 {
			t.Errorf("%s: adding an unselective bind made 1,000 scans cost %v instead of %v", name, c2, c1)
		}
	}
}

func BenchmarkScanFactsBound(b *testing.B) {
	for _, n := range []int{2_000, 200_000} {
		b.Run(fmt.Sprintf("facts=%d", n), benchBoundScan(boundScanStore(n)))
	}
}
