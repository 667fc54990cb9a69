package datalog

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"videodb/internal/object"
)

// Value interning: the streaming executor identifies tuples by 64-bit keys
// instead of the rendered strings the seed evaluator concatenated. Two
// tables cooperate:
//
//   - a process-wide value interner mapping each distinct Value to a
//     uint64 id. Scalar values (null, string, number, ref) intern through
//     a comparable struct key, so the hot path never renders a string;
//     temporal and set values fall back to their canonical String() form.
//     Engines of concurrent queries share the table, so lookups go
//     through an atomically published snapshot (no lock); new values land
//     in a small locked overflow map that is folded into a fresh snapshot
//     once it grows.
//     Ids are globally stable, which lets compiled plans precompute the
//     ids of constant arguments and share them across engines (the
//     cross-query plan cache depends on this).
//
//   - a per-engine pair interner assigning ids to (id, id) pairs. A row's
//     key is the left fold of its value ids through the pair table, so
//     equal rows get equal keys and — because pair ids live in a disjoint
//     id space (the high bit) — distinct rows get distinct keys, with no
//     length or separator folding tricks. Only the goroutine evaluating
//     the engine (Run, then Apply) uses it — post-Run queries never key
//     rows — so it is a plain map.
//
// Neither table ever shrinks or re-issues ids during a run; dedup
// soundness and fixpoint termination rely on that.

const (
	// invalidID is never issued; emptyRowID identifies the zero-length
	// row (value and pair ids start above it).
	invalidID  uint64 = 0
	emptyRowID uint64 = 1
	// pairTag marks ids from the pair space, keeping them disjoint from
	// value ids so the row-key fold is injective.
	pairTag uint64 = 1 << 63
)

// scalarKey is the comparable intern key of a scalar value. Float bits
// are canonicalized so that all NaNs coincide (the rendered key treated
// every NaN as "NaN" too) while -0 and +0 stay distinct (they render
// differently, and dedup must match the seed evaluator exactly).
type scalarKey struct {
	kind object.ValueKind
	str  string
	bits uint64
}

var canonicalNaN = math.Float64bits(math.NaN())

func scalarKeyOf(v object.Value) (scalarKey, bool) {
	switch v.Kind() {
	case object.KindNull:
		return scalarKey{kind: object.KindNull}, true
	case object.KindString:
		s, _ := v.AsString()
		return scalarKey{kind: object.KindString, str: s}, true
	case object.KindRef:
		oid, _ := v.AsRef()
		return scalarKey{kind: object.KindRef, str: string(oid)}, true
	case object.KindNumber:
		n, _ := v.AsNumber()
		bits := math.Float64bits(n)
		if math.IsNaN(n) {
			bits = canonicalNaN
		}
		return scalarKey{kind: object.KindNumber, bits: bits}, true
	default:
		return scalarKey{}, false
	}
}

// valueTables is one immutable snapshot of the global value interner.
type valueTables struct {
	scalars map[scalarKey]uint64
	complex map[string]uint64 // temporal/set values by canonical rendering
}

// valueInterner is shared by every engine in the process: engines of
// concurrent queries (core.DB runs each on its caller's goroutine) intern
// through it at once, so base is published atomically and mu guards the
// overflow maps and the id counter.
type valueInterner struct {
	base atomic.Pointer[valueTables]

	mu    sync.Mutex
	overS map[scalarKey]uint64
	overC map[string]uint64
	next  uint64
}

func newValueInterner() *valueInterner {
	in := &valueInterner{
		overS: make(map[scalarKey]uint64),
		overC: make(map[string]uint64),
		next:  emptyRowID, // first issued id is emptyRowID+1
	}
	in.base.Store(&valueTables{
		scalars: map[scalarKey]uint64{},
		complex: map[string]uint64{},
	})
	return in
}

// globalValues is the process-wide value interner. Within an epoch it
// only ever grows; the id of a value is stable for as long as any
// acquirer (an open core.DB) exists, which is what lets compiled plans
// embed constant ids and the metrics layer report the table size
// (InternStats). When the last acquirer releases, the table is replaced
// with a fresh one — see AcquireInterner — so open/close cycles do not
// leak every value the process has ever interned.
var globalValues atomic.Pointer[valueInterner]

func init() { globalValues.Store(newValueInterner()) }

// internEpoch counts the live acquirers of the global value interner;
// databases open and close on any goroutine, so mu guards the count.
var internEpoch struct {
	mu     sync.Mutex
	active int
}

// AcquireInterner pins the global value-interner epoch. Every engine
// owner that caches compiled plans (core.DB) acquires on construction
// and releases on Close; interned ids are stable between the two.
func AcquireInterner() {
	internEpoch.mu.Lock()
	internEpoch.active++
	internEpoch.mu.Unlock()
}

// ReleaseInterner undoes one AcquireInterner. When the last acquirer
// releases, the interner is swapped for an empty one, bounding the
// table's footprint across open/close cycles instead of growing for the
// process lifetime. Engines and compiled plans from the closed epoch
// must not be used afterwards (their embedded ids are meaningless in the
// new epoch); per-DB plan caches die with their DB, which is what makes
// the swap safe.
func ReleaseInterner() {
	internEpoch.mu.Lock()
	defer internEpoch.mu.Unlock()
	if internEpoch.active == 0 {
		return
	}
	internEpoch.active--
	if internEpoch.active == 0 {
		globalValues.Store(newValueInterner())
	}
}

// valueID returns the interned id of a value.
func valueID(v object.Value) uint64 {
	in := globalValues.Load()
	if k, ok := scalarKeyOf(v); ok {
		if id, ok := in.base.Load().scalars[k]; ok {
			return id
		}
		in.mu.Lock()
		defer in.mu.Unlock()
		if id, ok := in.base.Load().scalars[k]; ok {
			return id
		}
		if id, ok := in.overS[k]; ok {
			return id
		}
		in.next++
		id := in.next
		// The key outlives the value: copy its string, which may be a
		// slice of a whole parsed script that would otherwise stay pinned
		// for the epoch (one per new oid under streaming ingest).
		k.str = strings.Clone(k.str)
		in.overS[k] = id
		in.maybePromote()
		return id
	}
	s := v.String()
	if id, ok := in.base.Load().complex[s]; ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.base.Load().complex[s]; ok {
		return id
	}
	if id, ok := in.overC[s]; ok {
		return id
	}
	in.next++
	id := in.next
	in.overC[s] = id
	in.maybePromote()
	return id
}

// maybePromote folds the overflow maps into a fresh base snapshot once
// they dominate lookups. Called with mu held.
func (in *valueInterner) maybePromote() {
	over := len(in.overS) + len(in.overC)
	base := in.base.Load()
	if over < 64 || over*4 < len(base.scalars)+len(base.complex) {
		return
	}
	nt := &valueTables{
		scalars: make(map[scalarKey]uint64, len(base.scalars)+len(in.overS)),
		complex: make(map[string]uint64, len(base.complex)+len(in.overC)),
	}
	for k, id := range base.scalars {
		nt.scalars[k] = id
	}
	for k, id := range in.overS {
		nt.scalars[k] = id
	}
	for s, id := range base.complex {
		nt.complex[s] = id
	}
	for s, id := range in.overC {
		nt.complex[s] = id
	}
	in.base.Store(nt)
	in.overS = make(map[scalarKey]uint64)
	in.overC = make(map[string]uint64)
}

// InternTableStats reports the size of the process-wide value intern
// table (exported through /metrics and /v1/stats).
type InternTableStats struct {
	Values int // distinct interned values
}

// InternStats returns the current size of the global value interner.
func InternStats() InternTableStats {
	in := globalValues.Load()
	in.mu.Lock()
	defer in.mu.Unlock()
	base := in.base.Load()
	return InternTableStats{
		Values: len(base.scalars) + len(base.complex) + len(in.overS) + len(in.overC),
	}
}

// pairKey identifies one cons cell of the row-key fold.
type pairKey [2]uint64

// pairInterner assigns ids to (id, id) pairs; one instance per engine.
type pairInterner struct {
	ids map[pairKey]uint64
}

func newPairInterner() *pairInterner {
	return &pairInterner{ids: make(map[pairKey]uint64)}
}

func (p *pairInterner) id(a, b uint64) uint64 {
	k := pairKey{a, b}
	if id, ok := p.ids[k]; ok {
		return id
	}
	id := uint64(len(p.ids)+1) | pairTag
	p.ids[k] = id
	return id
}

// rowKey64 returns the interned key of a row: the left fold of its value
// ids through the pair table. Injective across rows of any length because
// value and pair ids never collide.
func (p *pairInterner) rowKey64(t row) uint64 {
	if len(t) == 0 {
		return emptyRowID
	}
	k := valueID(t[0])
	for _, v := range t[1:] {
		k = p.id(k, valueID(v))
	}
	return k
}

// foldIDs is rowKey64 over already-interned value ids — the hot path when
// the ids were carried with the tuple (relation rows, frame slots) and no
// value-table probe is needed.
func (p *pairInterner) foldIDs(ids []uint64) uint64 {
	if len(ids) == 0 {
		return emptyRowID
	}
	k := ids[0]
	for _, id := range ids[1:] {
		k = p.id(k, id)
	}
	return k
}

// vidsOf interns every value of a tuple. Relations call it once per
// distinct tuple on entry and carry the result alongside the row, so the
// executor's inner loops (index probes, match bindings, head dedup) fold
// precomputed ids instead of re-probing the value table per firing.
func vidsOf(t row) []uint64 {
	ids := make([]uint64, len(t))
	for i, v := range t {
		ids[i] = valueID(v)
	}
	return ids
}
