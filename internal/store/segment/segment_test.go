package segment

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"videodb/internal/object"
	"videodb/internal/store"
)

// openTestStore opens a segment backend wired into a store.Store and
// registers cleanup. Tiny thresholds by default so tests exercise
// flushes, multiple blocks, and evictions with small corpora.
func openTestStore(t *testing.T, dir string, opts ...Option) *store.Store {
	t.Helper()
	b, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func fact(rel string, args ...string) store.Fact {
	vals := make([]object.Value, len(args))
	for i, a := range args {
		vals[i] = object.Str(a)
	}
	return store.NewFact(rel, vals...)
}

// factKeys returns the sorted canonical keys of a relation's facts.
func factKeys(st *store.Store, rel string) []string {
	var out []string
	st.ScanFacts(rel, nil, func(f store.Fact) bool {
		out = append(out, f.Key())
		return true
	})
	sort.Strings(out)
	return out
}

func TestSegmentFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := segInput{adds: map[string][]store.Fact{
		"in":   {fact("in", "b", "x"), fact("in", "a", "y"), fact("in", "c", "z")},
		"next": {fact("next", "1")},
	}}
	path := filepath.Join(dir, "seg-00000001.seg")
	if err := writeSegment(path, in, 32); err != nil {
		t.Fatal(err)
	}
	sr, err := openSegment(1, path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.close()
	if got := sr.idx.RelStats["in"].Adds; got != 3 {
		t.Fatalf("in adds = %d, want 3", got)
	}
	var keys []string
	for _, bi := range sr.byRel["in"] {
		blk, err := sr.readBlock(bi, false)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, blk.keys...)
	}
	want := []string{`in("a", "y")`, `in("b", "x")`, `in("c", "z")`}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("keys = %v, want %v (sorted within segment)", keys, want)
	}
	// Keys must be globally sorted across the relation's blocks.
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("relation keys not sorted: %v", keys)
	}
}

func TestBasicOpsAndRestart(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, WithFlushThreshold(4))
	if err := st.Put(object.NewEntity("o1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if ok, err := st.AddFactErr(fact("in", fmt.Sprintf("k%02d", i), "v")); err != nil || !ok {
			t.Fatalf("add %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Duplicate add is a no-op.
	if ok, _ := st.AddFactErr(fact("in", "k00", "v")); ok {
		t.Fatal("duplicate add reported a change")
	}
	if n := st.FactCount("in"); n != 10 {
		t.Fatalf("FactCount = %d, want 10", n)
	}
	if ok, err := st.DeleteFactErr(fact("in", "k03", "v")); err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if st.HasFact(fact("in", "k03", "v")) {
		t.Fatal("deleted fact still visible")
	}
	before := factKeys(st, "in")
	if len(before) != 9 {
		t.Fatalf("got %d facts, want 9", len(before))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestStore(t, dir)
	if re.Get("o1") == nil {
		t.Fatal("object lost across restart")
	}
	if got := factKeys(re, "in"); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("facts across restart:\n got %v\nwant %v", got, before)
	}
	if got := re.Relations(); len(got) != 1 || got[0] != "in" {
		t.Fatalf("Relations = %v", got)
	}
	if got := re.FactArities(); len(got["in"]) != 1 || got["in"][0] != 2 {
		t.Fatalf("FactArities = %v", got)
	}
	if n := re.TotalFacts(); n != 9 {
		t.Fatalf("TotalFacts = %d, want 9", n)
	}
}

// TestRestartWithoutFlush exercises pure tail-log recovery: no explicit
// checkpoint, mutations live only in the tail.
func TestRestartWithoutFlush(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir) // default threshold: nothing auto-flushes
	st.AddFactErr(fact("r", "a"))
	st.AddFactErr(fact("r", "b"))
	st.DeleteFactErr(fact("r", "a"))
	st.Put(object.NewEntity("e1"))
	st.Delete("e1")
	st.Put(object.NewEntity("e2"))
	// Simulate a crash: drop the store without Close (Close would flush).
	// The tail log was written per record, so reopening replays it.
	re := openTestStore(t, dir)
	if got := factKeys(re, "r"); fmt.Sprint(got) != `[r("b")]` {
		t.Fatalf("facts = %v", got)
	}
	if re.Get("e1") != nil || re.Get("e2") == nil {
		t.Fatal("object tail replay wrong")
	}
}

// TestDeleteReAddChains covers tombstone/resurrect transitions in every
// residence combination: memtable-only, segment+memtable, across
// multiple flushes.
func TestDeleteReAddChains(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	f := fact("chain", "k")

	// add → delete → re-add inside one memtable window.
	st.AddFactErr(f)
	st.DeleteFactErr(f)
	st.AddFactErr(f)
	if got := factKeys(st, "chain"); len(got) != 1 {
		t.Fatalf("memtable chain: %v", got)
	}
	if err := st.Checkpoint(); err != nil { // flush #1: fact in segment
		t.Fatal(err)
	}
	// segment-resident delete → memtable tombstone → resurrect.
	st.DeleteFactErr(f)
	if st.HasFact(f) {
		t.Fatal("tombstoned fact visible")
	}
	st.AddFactErr(f)
	if !st.HasFact(f) {
		t.Fatal("resurrected fact invisible")
	}
	if got := factKeys(st, "chain"); len(got) != 1 {
		t.Fatalf("after resurrect: %v", got)
	}
	// delete, flush the tombstone, re-add into a newer segment.
	st.DeleteFactErr(f)
	if err := st.Checkpoint(); err != nil { // flush #2: tombstone in segment
		t.Fatal(err)
	}
	if st.HasFact(f) || st.FactCount("chain") != 0 {
		t.Fatal("flushed tombstone not applied")
	}
	st.AddFactErr(f)
	if err := st.Checkpoint(); err != nil { // flush #3: re-add in newest segment
		t.Fatal(err)
	}
	if !st.HasFact(f) || st.FactCount("chain") != 1 {
		t.Fatal("re-add shadowed by older tombstone")
	}
	st.Close()

	re := openTestStore(t, dir)
	if !re.HasFact(f) || re.FactCount("chain") != 1 {
		t.Fatalf("restart: has=%v count=%d", re.HasFact(f), re.FactCount("chain"))
	}
}

func TestScanWithBinds(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	st.AddFactErr(fact("in", "o1", "g1"))
	st.AddFactErr(fact("in", "o1", "g2"))
	st.AddFactErr(fact("in", "o2", "g1"))
	st.Checkpoint() // half in a segment …
	st.AddFactErr(fact("in", "o1", "g3"))
	st.AddFactErr(fact("in", "o3", "g1")) // … half in the memtable
	var got []string
	st.ScanFacts("in", []store.ArgBind{{Pos: 0, Val: object.Str("o1")}}, func(f store.Fact) bool {
		got = append(got, f.Key())
		return true
	})
	sort.Strings(got)
	want := []string{`in("o1", "g1")`, `in("o1", "g2")`, `in("o1", "g3")`}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("bound scan = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	st.ScanFacts("in", nil, func(store.Fact) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestLargerThanCacheServing loads a corpus whose decoded blocks exceed
// the cache budget by an order of magnitude, then scans and probes it:
// everything must stay readable while the cache evicts.
func TestLargerThanCacheServing(t *testing.T) {
	dir := t.TempDir()
	const n = 2000
	st := openTestStore(t, dir,
		WithBlockCacheBytes(4<<10), // ~4 KiB budget
		WithBlockTargetBytes(512),
		WithFlushThreshold(500))
	for i := 0; i < n; i++ {
		if ok, err := st.AddFactErr(fact("big", fmt.Sprintf("key-%05d", i), fmt.Sprintf("val-%d", i%97))); err != nil || !ok {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := st.FactCount("big"); got != n {
		t.Fatalf("FactCount = %d, want %d", got, n)
	}
	seen := 0
	st.ScanFacts("big", nil, func(store.Fact) bool { seen++; return true })
	if seen != n {
		t.Fatalf("scan saw %d facts, want %d", seen, n)
	}
	for _, i := range []int{0, 1, 999, 1998, 1999} {
		if !st.HasFact(fact("big", fmt.Sprintf("key-%05d", i), fmt.Sprintf("val-%d", i%97))) {
			t.Fatalf("fact %d invisible", i)
		}
	}
	if st.HasFact(fact("big", "key-99999", "nope")) {
		t.Fatal("phantom fact")
	}
	bs := st.BackendStats()
	if bs.Kind != "segment" {
		t.Fatalf("Kind = %q", bs.Kind)
	}
	if bs.CacheEvictions == 0 {
		t.Fatalf("no evictions despite corpus >> budget: %+v", bs)
	}
	if bs.CacheBytes > bs.CacheBudget+2048 {
		t.Fatalf("cache far over budget: %+v", bs)
	}
	if bs.SegmentFacts != n {
		t.Fatalf("SegmentFacts = %d, want %d", bs.SegmentFacts, n)
	}
}

// TestCacheChargesDecodedFacts scans a relation whose decoded facts
// exceed the block cache budget many times over, first after membership
// probes left its blocks resident keys-only (facts decode lazily on a
// hit), then cold (facts decode on the miss). Either way the cache must
// charge the decoded facts: its byte count stays within the budget plus
// one block, and covers what the resident blocks really hold.
func TestCacheChargesDecodedFacts(t *testing.T) {
	const n, budget = 2000, 16 << 10
	b, err := Open(t.TempDir(), WithBlockCacheBytes(budget), WithBlockTargetBytes(512), WithFlushThreshold(500))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < n; i++ {
		if ok, err := st.AddFactErr(fact("big", fmt.Sprintf("key-%05d", i), fmt.Sprintf("val-%d", i%97))); err != nil || !ok {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		c := b.cache
		c.mu.Lock()
		var held, maxBlock int64
		for el := c.ll.Front(); el != nil; el = el.Next() {
			blk := el.Value.(*cacheEntry).blk
			for _, k := range blk.keys {
				held += int64(len(k))
			}
			held += factsCost(blk.facts)
			maxBlock = max(maxBlock, blk.cost)
		}
		c.mu.Unlock()
		got := st.BackendStats().CacheBytes
		if got > budget+maxBlock {
			t.Errorf("%s: cache holds %d bytes, budget %d plus one block (%d)", label, got, budget, maxBlock)
		}
		if got < held {
			t.Errorf("%s: cache charges %d bytes, its resident blocks hold %d", label, got, held)
		}
	}
	// Probes leave the first blocks resident keys-only; a scan of their
	// facts then hits them and decodes lazily.
	const head = 100
	for i := 0; i < head; i++ {
		st.HasFact(fact("big", fmt.Sprintf("key-%05d", i), fmt.Sprintf("val-%d", i%97)))
	}
	hits := st.BackendStats().CacheHits
	for _, c := range []struct {
		label string
		facts int
	}{{"lazy decode", head}, {"decode on miss", n}} {
		seen := 0
		st.ScanFacts("big", nil, func(store.Fact) bool { seen++; return seen < c.facts })
		if seen != c.facts {
			t.Fatalf("%s: scan saw %d facts, want %d", c.label, seen, c.facts)
		}
		check(c.label)
		if c.facts == head && st.BackendStats().CacheHits == hits {
			t.Fatalf("%s: the scan hit no block the probes left resident", c.label)
		}
	}
	if st.BackendStats().CacheEvictions == 0 {
		t.Fatalf("no evictions while scanning %d facts through a %d-byte budget", n, budget)
	}
}

// TestCompactionEquivalence checks that compaction preserves exactly the
// visible fact set while collapsing segments and dropping tombstones.
func TestCompactionEquivalence(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, WithCompactThreshold(1000)) // manual compaction only
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			st.AddFactErr(fact("r", fmt.Sprintf("%d-%d", round, i)))
		}
		if round > 0 {
			for i := 0; i < 10; i++ { // delete half of the previous round
				st.DeleteFactErr(fact("r", fmt.Sprintf("%d-%d", round-1, i)))
			}
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st.AddFactErr(fact("r", "tail-1")) // leave something in the memtable
	st.DeleteFactErr(fact("r", "4-0")) // … and a memtable tombstone

	before := factKeys(st, "r")
	countBefore := st.FactCount("r")
	bsBefore := st.BackendStats()
	if bsBefore.Segments < 5 || bsBefore.Tombstones == 0 {
		t.Fatalf("precondition: %+v", bsBefore)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	after := factKeys(st, "r")
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("compaction changed visible facts:\n before %v\n after  %v", before, after)
	}
	if got := st.FactCount("r"); got != countBefore {
		t.Fatalf("count %d -> %d", countBefore, got)
	}
	bs := st.BackendStats()
	if bs.Segments != 1 || bs.Tombstones != 0 {
		t.Fatalf("after compaction: %+v", bs)
	}
	// Restart on the compacted state.
	st.Close()
	re := openTestStore(t, dir)
	if got := factKeys(re, "r"); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("restart after compaction:\n got %v\nwant %v", got, before)
	}
}

// TestAutoCompaction: enough flushes trigger a compaction on their own.
func TestAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, WithCompactThreshold(3))
	for round := 0; round < 5; round++ {
		st.AddFactErr(fact("r", fmt.Sprintf("k%d", round)))
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	bs := st.BackendStats()
	if bs.Compactions == 0 {
		t.Fatalf("no auto compaction after 5 flushes at threshold 3: %+v", bs)
	}
	if bs.Segments >= 3 {
		t.Fatalf("segments not merged: %+v", bs)
	}
	if n := st.FactCount("r"); n != 5 {
		t.Fatalf("FactCount = %d", n)
	}
}

// TestObjectSnapshotRoundTrip: flush bakes objects into the object file;
// restart must not need the tail.
func TestObjectSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	o := object.NewEntity("p1")
	o.Set("name", object.Str("Philip"))
	if err := st.Put(o); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestStore(t, dir)
	got := re.Get("p1")
	if got == nil || !got.Attr("name").Equal(object.Str("Philip")) {
		t.Fatalf("object not recovered: %v", got)
	}
}

// TestSnapshotExportFromBackend: Save/SaveFile work on a backend store
// (export path), while Load is refused (it would bypass the manifest).
func TestSnapshotExportFromBackend(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	st.Put(object.NewEntity("e1"))
	st.AddFactErr(fact("r", "a"))
	snap := filepath.Join(t.TempDir(), "out.snapshot")
	if err := st.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	mem := store.New()
	if err := mem.LoadFile(snap); err != nil {
		t.Fatal(err)
	}
	if !mem.HasFact(fact("r", "a")) || mem.Get("e1") == nil {
		t.Fatal("snapshot export lost data")
	}
	if err := st.LoadFile(snap); err == nil {
		t.Fatal("Load on a backend store must be refused")
	}
}
