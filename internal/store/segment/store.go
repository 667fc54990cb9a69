package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"videodb/internal/object"
	"videodb/internal/store"
)

// Store is the persistent segment backend. It implements store.Backend.
//
// Locking contract: the parent store.Store serializes every mutation
// (AddFact, DeleteFact, LogPutObject, Flush, Compact, Close) under its
// write lock and runs reads (HasFact, ScanFacts, counts) under its read
// lock, so this type needs no lock of its own for the memtable, segment
// list, horizon, or statistics. The block cache and the lazy dictionary
// loads have internal synchronization because concurrent readers share
// them.
type Store struct {
	dir  string
	opt  options
	man  manifest
	tail *tailLog

	segs  []*segmentReader
	cache *blockCache

	mem memtable

	// horizon maps rel -> fact key -> the highest segment position (index
	// into segs) holding a tombstone for that key. An add instance in
	// segment i is visible iff no tombstone exists at a position > i.
	horizon map[string]map[string]int

	// agg aggregates live per-relation statistics across segments and
	// memtable; total is the live fact count over all relations.
	agg   map[string]*relAgg
	total int

	segAdds  int // fact records resident in segment files
	segTombs int // tombstones resident in segment files

	objSrc    func() []*object.Object
	recovered []*object.Object

	err    error // latched first write/flush failure; mutations fail fast
	closed bool

	flushes     uint64
	compactions uint64

	readErrMu   sync.Mutex
	readErrs    atomic.Uint64
	lastReadErr error
}

type relAgg struct {
	live    int
	arities map[int]int // arity -> live count
}

// memtable buffers the fact mutations since the last flush: insertions
// of facts no segment holds live in an insertion-ordered, posting-listed
// table, and deletions of segment-resident facts are tombstones.
type memtable struct {
	adds    store.FactTable
	dels    map[string]map[string]int // rel -> key -> arity
	records int                       // fact mutations since last flush
}

func newMemtable() memtable {
	return memtable{dels: make(map[string]map[string]int)}
}

func (m *memtable) delCount() int {
	n := 0
	for _, d := range m.dels {
		n += len(d)
	}
	return n
}

// options configures the backend.
type options struct {
	cacheBytes  int64
	flushEvery  int
	blockTarget int
	compactAt   int
	syncEvery   bool
}

// Option configures Open.
type Option func(*options)

// WithBlockCacheBytes sets the decoded-block cache budget (soft by one
// block). Default 32 MiB.
func WithBlockCacheBytes(n int64) Option { return func(o *options) { o.cacheBytes = n } }

// WithFlushThreshold sets how many fact mutations accumulate in the
// memtable before an automatic flush into a new segment. Default 8192.
func WithFlushThreshold(n int) Option { return func(o *options) { o.flushEvery = n } }

// WithBlockTargetBytes bounds the encoded size of one fact block.
// Default 16 KiB.
func WithBlockTargetBytes(n int) Option { return func(o *options) { o.blockTarget = n } }

// WithCompactThreshold sets the segment count that triggers an automatic
// full compaction after a flush. Default 8.
func WithCompactThreshold(n int) Option { return func(o *options) { o.compactAt = n } }

// WithSyncEveryWrite fsyncs the tail log after every record (slow,
// maximally durable; the default flushes to the OS per record).
func WithSyncEveryWrite() Option { return func(o *options) { o.syncEvery = true } }

func defaultOptions() options {
	return options{
		cacheBytes:  32 << 20,
		flushEvery:  8192,
		blockTarget: 16 << 10,
		compactAt:   8,
	}
}

// Open opens (or creates) a segment-backed database directory and
// recovers its state: manifest, segment footers/indexes, the object
// snapshot, and a tail-log replay bounded by the flush threshold. Fact
// blocks and dictionaries are not read. Orphan files from a crash
// mid-flush or mid-compaction are removed.
func Open(dir string, opts ...Option) (*Store, error) {
	opt := defaultOptions()
	for _, o := range opts {
		o(&opt)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		opt:     opt,
		cache:   newBlockCache(opt.cacheBytes),
		mem:     newMemtable(),
		horizon: make(map[string]map[string]int),
		agg:     make(map[string]*relAgg),
		objSrc:  func() []*object.Object { return nil },
	}
	man, ok, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		if err := refuseWALLayout(dir); err != nil {
			return nil, err
		}
		man = manifest{Version: manifestVersion, NextID: 1}
	}
	s.man = man

	for _, name := range man.Segments {
		id, perr := segFileID(name)
		if perr != nil {
			return nil, perr
		}
		sr, err := openSegment(id, filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, sr)
	}
	s.rebuildDerived()

	objects := make(map[object.OID]*object.Object)
	if man.ObjFile != "" {
		if err := readObjects(filepath.Join(dir, man.ObjFile), objects); err != nil {
			return nil, err
		}
	}

	tailPath := filepath.Join(dir, tailName)
	lastSeq, err := replayTail(tailPath, man.TailSeq, func(rec tailRecord) error {
		switch rec.Op {
		case tailAddFact:
			if rec.Fact == nil {
				return fmt.Errorf("addfact record without fact")
			}
			f := store.Fact{Name: rec.Fact.Name, Args: rec.Fact.Args}
			s.applyAdd(f, f.Key())
			return nil
		case tailDelFact:
			if rec.Fact == nil {
				return fmt.Errorf("delfact record without fact")
			}
			f := store.Fact{Name: rec.Fact.Name, Args: rec.Fact.Args}
			s.applyDel(f.Name, f.Key(), len(f.Args))
			return nil
		case tailPutObj:
			if rec.Object == nil {
				return fmt.Errorf("putobj record without object")
			}
			objects[rec.Object.OID()] = rec.Object
			return nil
		case tailDelObj:
			delete(objects, object.OID(rec.OID))
			return nil
		default:
			return fmt.Errorf("unknown op %q", rec.Op)
		}
	})
	if err != nil {
		return nil, err
	}
	s.tail, err = openTail(tailPath, lastSeq, opt.syncEvery)
	if err != nil {
		return nil, err
	}

	oids := make([]object.OID, 0, len(objects))
	for oid := range objects {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	s.recovered = make([]*object.Object, 0, len(objects))
	for _, oid := range oids {
		s.recovered = append(s.recovered, objects[oid])
	}

	s.removeOrphans()
	return s, nil
}

// refuseWALLayout fails when dir holds the write-ahead-log layout that
// earlier builds wrote under -data (db.wal, db.snapshot) and this build
// no longer reads. Opening it as a fresh segment database would present
// the archive as empty; the error names the export path instead.
func refuseWALLayout(dir string) error {
	var found []string
	for _, name := range []string{"db.wal", "db.snapshot"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			found = append(found, name)
		}
	}
	if len(found) == 0 {
		return nil
	}
	return fmt.Errorf("segment: %s holds %s from the write-ahead-log layout, which this build no longer opens; "+
		`export it with an earlier build (videoql -data %s, then \save snapshot.json) and load the export with -db snapshot.json`,
		dir, strings.Join(found, " and "), dir)
}

// rebuildDerived recomputes horizon, aggregate statistics, and resident
// counts from the segment indexes plus the current memtable.
func (s *Store) rebuildDerived() {
	s.horizon = make(map[string]map[string]int)
	s.agg = make(map[string]*relAgg)
	s.total = 0
	s.segAdds = 0
	s.segTombs = 0
	for si, sr := range s.segs {
		for rel, st := range sr.idx.RelStats {
			a := s.aggFor(rel)
			a.live += st.Adds
			s.segAdds += st.Adds
			for arity, n := range st.Arities {
				a.arities[arity] += n
			}
			s.total += st.Adds
		}
		for rel, tombs := range sr.idx.Tombs {
			a := s.aggFor(rel)
			h := s.horizon[rel]
			if h == nil {
				h = make(map[string]int)
				s.horizon[rel] = h
			}
			for _, tr := range tombs {
				a.live--
				a.arities[tr.Arity]--
				s.total--
				s.segTombs++
				if cur, ok := h[tr.Key]; !ok || si > cur {
					h[tr.Key] = si
				}
			}
		}
	}
	// Memtable contributions (non-empty only mid-run; at open the
	// memtable is rebuilt by tail replay after this call).
	for _, rel := range s.mem.adds.Relations() {
		a := s.aggFor(rel)
		s.mem.adds.ScanFacts(rel, nil, func(f store.Fact) bool {
			a.live++
			a.arities[len(f.Args)]++
			s.total++
			return true
		})
	}
	for rel, dels := range s.mem.dels {
		a := s.aggFor(rel)
		for _, arity := range dels {
			a.live--
			a.arities[arity]--
			s.total--
		}
	}
}

func (s *Store) aggFor(rel string) *relAgg {
	a := s.agg[rel]
	if a == nil {
		a = &relAgg{arities: make(map[int]int)}
		s.agg[rel] = a
	}
	return a
}

// --- store.Backend: wiring ---------------------------------------------------

// SetObjectSource installs the callback that snapshots the live object
// set at flush time. The parent store calls it with its lock held, so
// the callback must not re-lock.
func (s *Store) SetObjectSource(fn func() []*object.Object) { s.objSrc = fn }

// RecoveredObjects returns the object set reconstructed at Open (object
// snapshot plus tail-log replay), sorted by oid.
func (s *Store) RecoveredObjects() []*object.Object { return s.recovered }

// --- store.Backend: fact mutations -------------------------------------------

func (s *Store) healthy() error {
	if s.closed {
		return fmt.Errorf("segment: store is closed")
	}
	if s.err != nil {
		return fmt.Errorf("segment: backend poisoned by an earlier write failure (reopen to resume): %w", s.err)
	}
	return nil
}

// latch records err as the backend's first write failure, if it is
// one, and returns it: the first failure is the one Close reports.
func (s *Store) latch(err error) error {
	if err != nil && s.err == nil {
		s.err = err
	}
	return err
}

// AddFact durably appends the fact and applies it to the memtable. The
// caller has verified the fact is absent. A failed tail append leaves
// state untouched and poisons the backend (fail-fast).
func (s *Store) AddFact(f store.Fact, key string) error {
	if err := s.healthy(); err != nil {
		return err
	}
	if err := s.latch(s.tail.append(tailRecord{Op: tailAddFact, Fact: tailFactOf(f)})); err != nil {
		return err
	}
	s.applyAdd(f, key)
	s.maybeAutoFlush()
	return nil
}

// DeleteFact durably appends the deletion and applies it. The caller has
// verified the fact is present.
func (s *Store) DeleteFact(f store.Fact, key string) error {
	if err := s.healthy(); err != nil {
		return err
	}
	if err := s.latch(s.tail.append(tailRecord{Op: tailDelFact, Fact: tailFactOf(f)})); err != nil {
		return err
	}
	s.applyDel(f.Name, key, len(f.Args))
	s.maybeAutoFlush()
	return nil
}

// maybeAutoFlush flushes when the memtable crosses the threshold. The
// mutation that triggered it is already durable in the tail log, so a
// flush failure is latched rather than failing the acknowledged write.
func (s *Store) maybeAutoFlush() {
	if s.mem.records < s.opt.flushEvery {
		return
	}
	s.latch(s.flushLocked())
}

// applyAdd applies an acknowledged fact insertion to the memtable. A key
// tombstoned in the memtable is resurrected (the segment-resident copy
// becomes visible again); otherwise the fact joins the memtable adds.
func (s *Store) applyAdd(f store.Fact, key string) {
	rel := f.Name
	s.mem.records++
	if dels := s.mem.dels[rel]; dels != nil {
		if arity, ok := dels[key]; ok {
			delete(dels, key)
			if len(dels) == 0 {
				delete(s.mem.dels, rel)
			}
			a := s.aggFor(rel)
			a.live++
			a.arities[arity]++
			s.total++
			return
		}
	}
	if !s.mem.adds.Add(f, key) {
		return // replay idempotence guard; unreachable in the live path
	}
	a := s.aggFor(rel)
	a.live++
	a.arities[len(f.Args)]++
	s.total++
}

// applyDel applies an acknowledged fact deletion: a memtable add is
// cancelled in place; a segment-resident fact gets a memtable tombstone.
func (s *Store) applyDel(rel, key string, arity int) {
	s.mem.records++
	if _, ok := s.mem.adds.Remove(rel, key); ok {
		s.noteDel(rel, arity)
		return
	}
	dels := s.mem.dels[rel]
	if dels == nil {
		dels = make(map[string]int)
		s.mem.dels[rel] = dels
	}
	if _, ok := dels[key]; ok {
		return // replay idempotence guard
	}
	dels[key] = arity
	s.noteDel(rel, arity)
}

func (s *Store) noteDel(rel string, arity int) {
	a := s.aggFor(rel)
	a.live--
	a.arities[arity]--
	s.total--
}

// --- store.Backend: object durability ----------------------------------------

// LogPutObject durably records an object upsert. The object itself lives
// in the parent store's maps; a flush snapshots the full set.
func (s *Store) LogPutObject(o *object.Object) error {
	if err := s.healthy(); err != nil {
		return err
	}
	if err := s.latch(s.tail.append(tailRecord{Op: tailPutObj, Object: o})); err != nil {
		return err
	}
	return nil
}

// LogDeleteObject durably records an object deletion.
func (s *Store) LogDeleteObject(oid object.OID) error {
	if err := s.healthy(); err != nil {
		return err
	}
	if err := s.latch(s.tail.append(tailRecord{Op: tailDelObj, OID: string(oid)})); err != nil {
		return err
	}
	return nil
}

// --- store.Backend: reads ----------------------------------------------------

// HasFact reports whether the fact identified by its canonical key is
// visible: memtable first, then segments newest-to-oldest with the
// tombstone horizon applied.
func (s *Store) HasFact(name, key string) bool {
	if dels := s.mem.dels[name]; dels != nil {
		if _, ok := dels[key]; ok {
			return false
		}
	}
	return s.mem.adds.HasFact(name, key) || s.segVisible(name, key)
}

// segVisible probes the segments newest-to-oldest for the key. The first
// instance found is the newest; it is live iff no newer tombstone exists.
func (s *Store) segVisible(name, key string) bool {
	for si := len(s.segs) - 1; si >= 0; si-- {
		sr := s.segs[si]
		blocks := sr.byRel[name]
		bi, ok := findBlockFor(sr, blocks, key)
		if !ok {
			continue
		}
		blk, err := s.block(si, bi, false)
		if err != nil {
			s.noteReadErr(err)
			continue
		}
		if blk.find(key) >= 0 {
			if h, ok := s.horizon[name]; ok {
				if pos, ok := h[key]; ok && pos > si {
					return false
				}
			}
			return true
		}
	}
	return false
}

// findBlockFor binary-searches a relation's key-ordered block list for
// the block whose [FirstKey, LastKey] range may contain key.
func findBlockFor(sr *segmentReader, blocks []int, key string) (int, bool) {
	lo, hi := 0, len(blocks)
	for lo < hi {
		mid := (lo + hi) / 2
		if sr.idx.Blocks[blocks[mid]].LastKey < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(blocks) || sr.idx.Blocks[blocks[lo]].FirstKey > key {
		return 0, false
	}
	return blocks[lo], true
}

// block fetches one decoded block through the cache; withFacts decodes
// a missing block's facts in the same pass (the caller scans them).
func (s *Store) block(si, bi int, withFacts bool) (*decodedBlock, error) {
	sr := s.segs[si]
	k := blockKey{seg: sr.id, block: bi}
	if blk, ok := s.cache.get(k); ok {
		return blk, nil
	}
	blk, err := sr.readBlock(bi, withFacts)
	if err != nil {
		return nil, err
	}
	s.cache.put(k, blk)
	return blk, nil
}

func (s *Store) noteReadErr(err error) {
	s.readErrs.Add(1)
	s.readErrMu.Lock()
	s.lastReadErr = err
	s.readErrMu.Unlock()
}

// ScanFacts streams every visible fact of the relation matching the
// binds: segment instances oldest-to-newest (key order within each
// segment), then memtable adds in insertion order, a ref or string bind
// walking the memtable's posting lists. Blocks load lazily
// through the cache, so the scan's working set is the cache budget, not
// the relation size.
func (s *Store) ScanFacts(name string, binds []store.ArgBind, fn func(store.Fact) bool) {
	h := s.horizon[name]
	dels := s.mem.dels[name]
	for si, sr := range s.segs {
		for _, bi := range sr.byRel[name] {
			blk, err := s.block(si, bi, true)
			if err != nil {
				s.noteReadErr(err)
				continue
			}
			decoded, err := blk.decoded()
			if err != nil {
				s.noteReadErr(err)
				continue
			}
			for j, f := range decoded {
				key := blk.keys[j]
				if h != nil {
					if pos, ok := h[key]; ok && pos > si {
						continue
					}
				}
				if dels != nil {
					if _, ok := dels[key]; ok {
						continue
					}
				}
				if !f.Matches(binds) {
					continue
				}
				if !fn(f) {
					return
				}
			}
		}
	}
	s.mem.adds.ScanFacts(name, binds, fn)
}

// FactCount returns the live fact count of the relation (O(1), from the
// maintained aggregates).
func (s *Store) FactCount(name string) int {
	if a := s.agg[name]; a != nil {
		return a.live
	}
	return 0
}

// TotalFacts returns the live fact count over all relations.
func (s *Store) TotalFacts() int { return s.total }

// Relations returns the sorted names of relations with live facts.
func (s *Store) Relations() []string {
	out := make([]string, 0, len(s.agg))
	for rel, a := range s.agg {
		if a.live > 0 {
			out = append(out, rel)
		}
	}
	sort.Strings(out)
	return out
}

// FactArities returns, per live relation, the sorted distinct arities.
func (s *Store) FactArities() map[string][]int {
	out := make(map[string][]int, len(s.agg))
	for rel, a := range s.agg {
		if a.live <= 0 {
			continue
		}
		var arities []int
		for arity, n := range a.arities {
			if n > 0 {
				arities = append(arities, arity)
			}
		}
		if len(arities) > 0 {
			sort.Ints(arities)
			out[rel] = arities
		}
	}
	return out
}

// --- Flush, compaction, close ------------------------------------------------

// Flush bakes the memtable into a new immutable segment, snapshots the
// object set, publishes a new manifest, and truncates the tail log. A
// crash at any instant leaves a recoverable state (see the manifest
// crash-ordering invariant).
func (s *Store) Flush() error {
	if err := s.healthy(); err != nil {
		return err
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.tail.seq == s.man.TailSeq {
		return nil // nothing new since the last flush
	}
	man := s.man
	man.Segments = append([]string(nil), s.man.Segments...)

	var newReader *segmentReader
	if s.mem.adds.TotalFacts() > 0 || s.mem.delCount() > 0 {
		in := segInput{adds: make(map[string][]store.Fact), tombs: make(map[string][]tombRec)}
		for _, rel := range s.mem.adds.Relations() {
			facts := make([]store.Fact, 0, s.mem.adds.FactCount(rel))
			s.mem.adds.ScanFacts(rel, nil, func(f store.Fact) bool {
				facts = append(facts, f)
				return true
			})
			in.adds[rel] = facts
		}
		for rel, dels := range s.mem.dels {
			for key, arity := range dels {
				in.tombs[rel] = append(in.tombs[rel], tombRec{Key: key, Arity: arity})
			}
			sort.Slice(in.tombs[rel], func(i, j int) bool { return in.tombs[rel][i].Key < in.tombs[rel][j].Key })
		}
		id := man.NextID
		man.NextID++
		name := segFileName(id)
		if err := writeSegment(filepath.Join(s.dir, name), in, s.opt.blockTarget); err != nil {
			return err
		}
		sr, err := openSegment(id, filepath.Join(s.dir, name))
		if err != nil {
			return err
		}
		newReader = sr
		man.Segments = append(man.Segments, name)
	}

	objID := man.NextID
	man.NextID++
	objName := objFileName(objID)
	oldObj := man.ObjFile
	//videolint:ignore lockcheck objSrc snapshots the parent store's objects; the parent holds its lock and the callback is documented not to re-lock
	if err := writeObjects(filepath.Join(s.dir, objName), s.objSrc()); err != nil {
		if newReader != nil {
			newReader.close()
		}
		return err
	}
	man.ObjFile = objName
	man.TailSeq = s.tail.seq

	if err := writeManifest(s.dir, man); err != nil {
		if newReader != nil {
			newReader.close()
		}
		return err
	}

	// The manifest is published: adopt the new state.
	s.man = man
	if newReader != nil {
		s.segs = append(s.segs, newReader)
		newIdx := len(s.segs) - 1
		for rel, dels := range s.mem.dels {
			h := s.horizon[rel]
			if h == nil {
				h = make(map[string]int)
				s.horizon[rel] = h
			}
			for key := range dels {
				h[key] = newIdx
				s.segTombs++
			}
		}
		for _, st := range newReader.idx.RelStats {
			s.segAdds += st.Adds
		}
	}
	s.mem = newMemtable()
	if err := s.tail.truncate(); err != nil {
		return err
	}
	if oldObj != "" && oldObj != man.ObjFile {
		//videolint:ignore lockcheck flush runs under the parent store's lock by design: durability must be atomic w.r.t. readers
		os.Remove(filepath.Join(s.dir, oldObj))
	}
	s.flushes++

	if len(s.segs) >= s.opt.compactAt {
		return s.compactLocked()
	}
	return nil
}

// Compact merges every segment into one, resolving tombstones and
// dropping shadowed instances, then swaps the manifest atomically. The
// memtable and tail log are untouched.
func (s *Store) Compact() error {
	if err := s.healthy(); err != nil {
		return err
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	if len(s.segs) <= 1 && s.segTombs == 0 {
		return nil
	}
	// Visible segment-resident facts, computed with the horizon alone
	// (memtable tombstones stay in the memtable and keep shadowing the
	// merged copies until their own flush).
	in := segInput{adds: make(map[string][]store.Fact)}
	rels := make(map[string]bool)
	for _, sr := range s.segs {
		for rel := range sr.idx.RelStats {
			rels[rel] = true
		}
	}
	for rel := range rels {
		h := s.horizon[rel]
		var facts []store.Fact
		for si, sr := range s.segs {
			for _, bi := range sr.byRel[rel] {
				blk, err := s.block(si, bi, true)
				if err != nil {
					return fmt.Errorf("segment: compaction read: %w", err)
				}
				decoded, err := blk.decoded()
				if err != nil {
					return fmt.Errorf("segment: compaction read: %w", err)
				}
				for j, f := range decoded {
					if h != nil {
						if pos, ok := h[blk.keys[j]]; ok && pos > si {
							continue
						}
					}
					facts = append(facts, f)
				}
			}
		}
		if len(facts) > 0 {
			in.adds[rel] = facts
		}
	}

	man := s.man
	id := man.NextID
	man.NextID++
	name := segFileName(id)
	if err := writeSegment(filepath.Join(s.dir, name), in, s.opt.blockTarget); err != nil {
		return err
	}
	sr, err := openSegment(id, filepath.Join(s.dir, name))
	if err != nil {
		return err
	}
	old := s.segs
	oldNames := man.Segments
	man.Segments = []string{name}
	if err := writeManifest(s.dir, man); err != nil {
		sr.close()
		return err
	}
	s.man = man
	s.segs = []*segmentReader{sr}
	for _, o := range old {
		s.cache.dropSegment(o.id)
		o.close()
	}
	for _, n := range oldNames {
		//videolint:ignore lockcheck compaction runs under the parent store's lock by design: segment replacement must be atomic w.r.t. readers
		os.Remove(filepath.Join(s.dir, n))
	}
	// Aggregates are unchanged (the merge preserves net counts); the
	// horizon and resident counts are rebuilt from the one new index and
	// the memtable.
	s.rebuildDerived()
	s.compactions++
	return nil
}

// Close flushes outstanding state and releases every file handle. A
// close after a latched write failure skips the flush (the tail log
// still holds the acknowledged records) and surfaces the error.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	var ferr error
	if s.err == nil {
		ferr = s.flushLocked()
	} else {
		ferr = fmt.Errorf("segment: a write failed during the session: %w", s.err)
	}
	s.closed = true
	if s.tail != nil {
		if cerr := s.tail.close(); ferr == nil {
			ferr = cerr
		}
	}
	for _, sr := range s.segs {
		if cerr := sr.close(); ferr == nil {
			ferr = cerr
		}
	}
	return ferr
}

// BackendStats reports the backend's resident state and cache traffic.
func (s *Store) BackendStats() store.BackendStats {
	dict := 0
	for _, sr := range s.segs {
		dict += sr.idx.DictCount
	}
	return store.BackendStats{
		Kind:           "segment",
		Segments:       len(s.segs),
		SegmentFacts:   s.segAdds,
		Tombstones:     s.segTombs,
		MemtableFacts:  s.mem.adds.TotalFacts() + s.mem.delCount(),
		DictValues:     dict,
		CacheHits:      s.cache.hits.Load(),
		CacheMisses:    s.cache.misses.Load(),
		CacheEvictions: s.cache.evictions.Load(),
		CacheBytes:     s.cache.bytes(),
		CacheBudget:    s.cache.budget,
		CachedBlocks:   s.cache.entriesLen(),
		Flushes:        s.flushes,
		Compactions:    s.compactions,
		ReadErrors:     s.readErrs.Load(),
	}
}

// --- File naming and housekeeping --------------------------------------------

func segFileName(id uint64) string { return fmt.Sprintf("seg-%08d.seg", id) }
func objFileName(id uint64) string { return fmt.Sprintf("obj-%08d.json", id) }

func segFileID(name string) (uint64, error) {
	var id uint64
	if _, err := fmt.Sscanf(name, "seg-%d.seg", &id); err != nil {
		return 0, fmt.Errorf("segment: bad segment file name %q", name)
	}
	return id, nil
}

// removeOrphans deletes files a crash left behind: segment/object files
// the manifest does not reference, and stray temp files.
func (s *Store) removeOrphans() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	live := map[string]bool{manifestName: true, tailName: true}
	for _, n := range s.man.Segments {
		live[n] = true
	}
	if s.man.ObjFile != "" {
		live[s.man.ObjFile] = true
	}
	for _, e := range entries {
		name := e.Name()
		if live[name] {
			continue
		}
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg"),
			strings.HasPrefix(name, "obj-") && strings.HasSuffix(name, ".json"),
			strings.HasPrefix(name, ".manifest-") && strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// writeObjects persists the object snapshot (sorted by oid for
// reproducibility) with a checksum, fsynced before rename.
func writeObjects(path string, objs []*object.Object) error {
	sorted := append([]*object.Object(nil), objs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].OID() < sorted[j].OID() })
	body, err := json.Marshal(struct {
		Version int              `json:"version"`
		Objects []*object.Object `json:"objects"`
	}{Version: 1, Objects: sorted})
	if err != nil {
		return fmt.Errorf("segment: encoding objects: %w", err)
	}
	sum := sha256.Sum256(body)
	snap := objSnapshot{Version: 1, Objects: sorted, Checksum: hex.EncodeToString(sum[:])}
	full, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(full, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readObjects loads an object snapshot into dst.
func readObjects(path string, dst map[object.OID]*object.Object) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap objSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("segment: decoding object snapshot: %w", err)
	}
	body, err := json.Marshal(struct {
		Version int              `json:"version"`
		Objects []*object.Object `json:"objects"`
	}{Version: snap.Version, Objects: snap.Objects})
	if err != nil {
		return err
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != snap.Checksum {
		return fmt.Errorf("segment: object snapshot checksum mismatch (corrupted file?)")
	}
	for _, o := range snap.Objects {
		dst[o.OID()] = o
	}
	return nil
}
