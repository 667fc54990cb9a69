package datalog

import (
	"slices"
	"strings"

	"videodb/internal/object"
)

// row is one derived tuple: an alias, so the engine's rows are the
// [][]object.Value the exported answer-order functions take.
type row = []object.Value

// RowKey renders a tuple's canonical string key: its values' renderings
// joined by 0x1f. The engine identifies tuples by interned 64-bit keys
// (see intern.go); rendered keys remain the canonical *order* of answers,
// here and in the subscriptions core diffs.
func RowKey(r []object.Value) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// rowID is the interned membership key of a tuple with at most four
// values: its value ids, padded with invalidID (which is never issued, so
// padding cannot collide with a real id and shorter rows cannot alias
// longer ones). One fixed-width map probe — no string rendering, no pair
// folding — is the dedup cost of a duplicate firing.
type rowID [4]uint64

// keySet is a membership set of tuples: rows of arity ≤ 4 are keyed by
// their padded value-id array, longer rows by the pair-interner fold.
// Each entry carries an int: a relation's key set stores the tuple's
// index in its rows, so an in-place removal finds the row without
// scanning; other sets store 0. (An int value costs nothing over a bool:
// map slots are padded to the key's alignment.)
type keySet struct {
	in  *pairInterner
	arr map[rowID]int
	ids map[uint64]int // fold keys of rows with arity > 4
}

func newKeySet(in *pairInterner, n int) keySet {
	return keySet{in: in, arr: make(map[rowID]int, n)}
}

// presize replaces an empty set's map with one sized for n entries.
func (s *keySet) presize(n int) {
	if len(s.arr) == 0 && n > 0 {
		s.arr = make(map[rowID]int, n)
	}
}

// arrKey builds the fixed-width key from a tuple's value ids, reporting
// false when the arity exceeds the array (fold fallback).
func arrKey(t row) (rowID, bool) {
	var k rowID
	if len(t) > len(k) {
		return k, false
	}
	for i, v := range t {
		k[i] = valueID(v)
	}
	return k, true
}

// arrKeyIDs is arrKey over already-interned ids.
func arrKeyIDs(ids []uint64) (rowID, bool) {
	var k rowID
	if len(ids) > len(k) {
		return k, false
	}
	copy(k[:], ids)
	return k, true
}

// add inserts the tuple, reporting whether it was new.
func (s *keySet) add(t row) bool { return s.addAt(t, 0) }

// addAt inserts the tuple with its row index, reporting whether it was
// new (an existing entry keeps its index).
func (s *keySet) addAt(t row, pos int) bool {
	if k, ok := arrKey(t); ok {
		if _, dup := s.arr[k]; dup {
			return false
		}
		s.arr[k] = pos
		return true
	}
	k := s.in.rowKey64(t)
	if _, dup := s.ids[k]; dup {
		return false
	}
	if s.ids == nil {
		s.ids = make(map[uint64]int)
	}
	s.ids[k] = pos
	return true
}

func (s *keySet) has(t row) bool {
	_, ok := s.pos(t)
	return ok
}

// pos returns the int stored with the tuple.
func (s *keySet) pos(t row) (int, bool) {
	if k, ok := arrKey(t); ok {
		i, has := s.arr[k]
		return i, has
	}
	i, has := s.ids[s.in.rowKey64(t)]
	return i, has
}

// setPos overwrites the int stored with a present tuple.
func (s *keySet) setPos(t row, pos int) {
	if k, ok := arrKey(t); ok {
		s.arr[k] = pos
	} else {
		s.ids[s.in.rowKey64(t)] = pos
	}
}

// posIDs is pos for a tuple whose value ids are already in hand.
func (s *keySet) posIDs(ids []uint64) (int, bool) {
	if k, ok := arrKeyIDs(ids); ok {
		i, has := s.arr[k]
		return i, has
	}
	i, has := s.ids[s.in.foldIDs(ids)]
	return i, has
}

// hasIDs answers membership for a tuple whose value ids are already in
// hand (the zero-allocation dedup probe of the head path).
func (s *keySet) hasIDs(ids []uint64) bool {
	if k, ok := arrKeyIDs(ids); ok {
		_, has := s.arr[k]
		return has
	}
	_, has := s.ids[s.in.foldIDs(ids)]
	return has
}

// addIDsAt inserts a tuple by its value ids with its row index.
func (s *keySet) addIDsAt(ids []uint64, pos int) {
	if k, ok := arrKeyIDs(ids); ok {
		s.arr[k] = pos
		return
	}
	if s.ids == nil {
		s.ids = make(map[uint64]int)
	}
	s.ids[s.in.foldIDs(ids)] = pos
}

func (s *keySet) remove(t row) {
	if k, ok := arrKey(t); ok {
		delete(s.arr, k)
		return
	}
	delete(s.ids, s.in.rowKey64(t))
}

func (s *keySet) len() int { return len(s.arr) + len(s.ids) }

// relation holds the derived tuples of one IDB predicate, with the delta
// bookkeeping needed by semi-naive evaluation: rows is the full extent,
// delta the tuples added in the previous round, next the tuples derived
// in the current round (applied at the round boundary, matching the
// TP-iteration semantics of Definition 22).
type relation struct {
	rows  []row
	keys  keySet
	delta []row
	next  []row

	// located says keys holds every row with its index in rows. Derived
	// relations keep it from the start (the index is free: a proposed
	// tuple's index is known when it is proposed); EDB caches build it on
	// their first in-place removal (see locate).
	located bool

	// Per-row value ids, aligned with rows/delta/next. Computed once when
	// a tuple enters the relation, so index building and match bindings
	// never re-probe the value intern table.
	vids      [][]uint64
	deltaVids [][]uint64
	nextVids  [][]uint64

	// Proposal arena: newly derived tuples and their ids are sliced off
	// chunked backing arrays — one allocation per chunk, not two per
	// tuple (see proposeIDs).
	valChunk []object.Value
	idChunk  []uint64

	// Join index: argument position -> value key -> indexes into rows.
	// Built lazily per position on first use, extended incrementally as
	// rows grow. Only rule evaluation probes it, on the goroutine running
	// the engine; post-Run queries read rows directly.
	idx map[int]*posIndex
}

// posIndex indexes one argument position of a relation by value id.
type posIndex struct {
	vals    map[uint64][]int
	covered int // rows[:covered] are indexed
}

func newRelation(in *pairInterner) *relation { return newRelationSized(in, 0) }

// newRelationSized pre-sizes the dedup set for n expected tuples (the
// store's cardinality estimate for EDB-seeded relations).
func newRelationSized(in *pairInterner, n int) *relation {
	return &relation{keys: newKeySet(in, n)}
}

// lookup64 returns the indexes of rows whose argument at pos has the
// given interned value id. The index for a position is built on first use
// and extended to cover new rows on later calls.
func (r *relation) lookup64(pos int, key uint64) []int {
	return r.extendIndex(pos).vals[key]
}

// extendIndex creates or extends the position index to cover all rows.
// The value map is pre-sized from the row count — the distinct-value
// upper bound — so building a large index does not rehash repeatedly.
func (r *relation) extendIndex(pos int) *posIndex {
	pi, ok := r.idx[pos]
	if ok && pi.covered == len(r.rows) {
		return pi
	}
	if r.idx == nil {
		r.idx = make(map[int]*posIndex)
	}
	if !ok {
		pi = &posIndex{vals: make(map[uint64][]int, len(r.rows))}
		r.idx[pos] = pi
	}
	for i := pi.covered; i < len(r.rows); i++ {
		if pos < len(r.rows[i]) {
			var k uint64
			if i < len(r.vids) && pos < len(r.vids[i]) {
				k = r.vids[i][pos]
			} else {
				k = valueID(r.rows[i][pos])
			}
			pi.vals[k] = append(pi.vals[k], i)
		}
	}
	pi.covered = len(r.rows)
	return pi
}

// propose records a tuple derived this round; duplicates of existing or
// already-proposed tuples are ignored. It reports whether the tuple was
// new.
func (r *relation) propose(t row) bool {
	if !r.keys.addAt(t, len(r.rows)+len(r.next)) {
		return false
	}
	r.next = append(r.next, t)
	r.nextVids = append(r.nextVids, vidsOf(t))
	return true
}

// The arena backing arrays of proposeIDs start at proposalFirstChunk
// values and double up to proposalChunk, so a relation that derives a
// handful of tuples does not pay for thousands.
const (
	proposalFirstChunk = 64
	proposalChunk      = 2048
)

// proposeIDs records a freshly derived tuple whose value ids are already
// computed (the head path reads them from frame caches). The
// values and ids are copied out of the caller's scratch buffers into the
// relation's arena — tuples are sliced off chunked backing arrays, so
// admitting a new tuple costs amortized zero allocations. The caller has
// already established the tuple is new (hasIDs).
func (r *relation) proposeIDs(s row, sids []uint64) {
	r.keys.addIDsAt(sids, len(r.rows)+len(r.next))
	n := len(s)
	if cap(r.valChunk)-len(r.valChunk) < n {
		c := max(min(2*cap(r.valChunk), proposalChunk), proposalFirstChunk, n)
		r.valChunk = make([]object.Value, 0, c)
		r.idChunk = make([]uint64, 0, c)
	}
	vOff := len(r.valChunk)
	r.valChunk = append(r.valChunk, s...)
	iOff := len(r.idChunk)
	r.idChunk = append(r.idChunk, sids...)
	r.next = append(r.next, row(r.valChunk[vOff:len(r.valChunk):len(r.valChunk)]))
	r.nextVids = append(r.nextVids, r.idChunk[iOff:len(r.idChunk):len(r.idChunk)])
}

// advance applies the round boundary: next becomes delta and joins the
// full extent. The new proposal buffer is pre-sized from the delta it
// replaces — the previous round's cardinality is the best available
// estimate for the next one. It reports whether anything changed.
func (r *relation) advance() bool {
	r.delta, r.deltaVids = r.next, r.nextVids
	if n := len(r.delta); n > 0 {
		r.next = make([]row, 0, n)
		r.nextVids = make([][]uint64, 0, n)
	} else {
		r.next, r.nextVids = nil, nil
	}
	r.rows = append(r.rows, r.delta...)
	r.vids = append(r.vids, r.deltaVids...)
	return len(r.delta) > 0
}

// locate makes keys hold every row with its index, building it once for
// an EDB cache (derived relations maintain it all along).
func (r *relation) locate() {
	if r.located {
		return
	}
	r.keys = newKeySet(r.keys.in, len(r.rows))
	for i, t := range r.rows {
		r.keys.addAt(t, i)
	}
	r.located = true
}

// exactRow returns the index of the row a fully bound step matches,
// keying it by the frame's value ids.
func (r *relation) exactRow(st *planStep, fr *frame) (int, bool) {
	if cap(fr.probeIDs) < len(st.args) {
		fr.probeIDs = make([]uint64, len(st.args))
	}
	ids := fr.probeIDs[:len(st.args)]
	for k := range st.args {
		ids[k] = st.probeID(fr, k)
	}
	i, ok := r.keys.posIDs(ids)
	return i, ok && i < len(r.rows)
}

// appendRow adds a tuple to the extent in place: the row, its value ids,
// and — once located — its key. Join indexes extend lazily.
func (r *relation) appendRow(t row, ids []uint64) {
	if r.located {
		r.keys.addAt(t, len(r.rows))
	}
	r.rows = append(r.rows, t)
	if ids == nil {
		ids = vidsOf(t)
	}
	r.vids = append(r.vids, ids)
}

// removeRow deletes the tuple from the extent in place, returning the
// relation's own row and ids (nil, nil when absent). The last row moves
// into the freed slot, and the key set and every join index follow it,
// so no slice is copied and no index is rebuilt.
func (r *relation) removeRow(t row) (row, []uint64) {
	r.locate()
	i, ok := r.keys.pos(t)
	if !ok || i >= len(r.rows) {
		return nil, nil
	}
	withIDs := len(r.vids) == len(r.rows)
	last := len(r.rows) - 1
	own := r.rows[i]
	var ownIDs []uint64
	if withIDs {
		ownIDs = r.vids[i]
	}
	for pos, pi := range r.idx {
		if pi.covered < len(r.rows) {
			r.extendIndex(pos)
		}
		pi.drop(r.indexKey(i, pos), i)
		if i != last {
			pi.move(r.indexKey(last, pos), last, i)
		}
	}
	r.keys.remove(own)
	if i != last {
		r.rows[i] = r.rows[last]
		r.keys.setPos(r.rows[i], i)
		if withIDs {
			r.vids[i] = r.vids[last]
		}
	}
	r.rows[last] = nil
	r.rows = r.rows[:last]
	if withIDs {
		r.vids[last] = nil
		r.vids = r.vids[:last]
	}
	for _, pi := range r.idx {
		pi.covered = len(r.rows)
	}
	return own, ownIDs
}

// indexKey is the join-index key of rows[i] at argument position pos:
// the row's carried value id, or the value's interned id.
func (r *relation) indexKey(i, pos int) uint64 {
	t := r.rows[i]
	if pos >= len(t) {
		return invalidID
	}
	if i < len(r.vids) && pos < len(r.vids[i]) {
		return r.vids[i][pos]
	}
	return valueID(t[pos])
}

// drop removes row index i from the posting list of k.
func (pi *posIndex) drop(k uint64, i int) {
	if l := dropIndex(pi.vals[k], i); len(l) == 0 {
		delete(pi.vals, k)
	} else {
		pi.vals[k] = l
	}
}

// move renames row index from to to in the posting list of k.
func (pi *posIndex) move(k uint64, from, to int) {
	l := pi.vals[k]
	for j, x := range l {
		if x == from {
			l[j] = to
			return
		}
	}
}

// dropIndex removes one occurrence of i from a posting list, moving the
// list's last entry into its place; posting lists carry no order.
func dropIndex(l []int, i int) []int {
	for j, x := range l {
		if x == i {
			l[j] = l[len(l)-1]
			return l[:len(l)-1]
		}
	}
	return l
}

// SortRows returns a copy of rows in answer order (CompareKeyed). Keys
// are computed once per row, not per comparison — on large extents the
// comparator would otherwise rebuild each key O(log n) times.
func SortRows(rows [][]object.Value) [][]object.Value {
	type keyed struct {
		key string
		t   row
	}
	ks := make([]keyed, len(rows))
	for i, t := range rows {
		ks[i] = keyed{RowKey(t), t}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return compareRows(a.t, b.t)
	})
	out := make([]row, len(ks))
	for i, k := range ks {
		out[i] = k.t
	}
	return out
}

// CompareKeyed is the answer order of two rows given their RowKeys: by
// key, then — for rows whose keys render alike (Ref("1") and Num(1)) —
// by compareRows, so the order never depends on the input's. SortRows
// inlines the same comparison.
func CompareKeyed(ka string, a []object.Value, kb string, b []object.Value) int {
	if c := strings.Compare(ka, kb); c != 0 {
		return c
	}
	return compareRows(a, b)
}

// compareRows orders tuples value by value under Value.Compare, shorter
// first on a common prefix.
func compareRows(a, b row) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}
