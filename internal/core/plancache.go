package core

import (
	"container/list"
	"math/bits"
	"sync"

	"videodb/internal/datalog"
	"videodb/internal/parser"
)

// Cross-query plan cache: compiling a query — assembling the program
// from the DB's rules, the taxonomy fragment, and the query's
// synthesized rule, specializing it to a bound goal or pruning it to the
// goal predicate, validating, stratifying, and building every rule's
// execution plan — costs more than evaluating many small queries.
// Repeated queries (dashboards, views, the server's hot endpoints) pay
// it every time, so the DB keeps an LRU of compiled query plans keyed by
// the query shape and the versions of everything the compilation read:
//
//	(goal atom text, synthesized rule, pruning flag)
//	  × rule-program version   (bumped on DefineRule/AddRule/LoadScript)
//	  × taxonomy version       (bumped on DefineClass)
//	  × store schema version   (bumped when a relation appears/disappears)
//
// A version bump changes the key, so stale entries are never served;
// they age out of the LRU. The goal is keyed by its atom text, not its
// predicate, because a bound goal's program has its constants unified in
// (datalog.SpecializeGoal). Entries are immutable and shared: a hit
// stamps out a fresh engine with datalog.NewEngineWith, skipping
// parse-free compilation entirely.

// defaultPlanCacheCap bounds the number of cached compiled programs.
const defaultPlanCacheCap = 128

// PlanCacheStats reports the cache's lifetime traffic.
type PlanCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

type planKey struct {
	goal      string // goal atom text the program was specialized or pruned to
	ruleSrc   string // rendered synthesized query rule ("" if none)
	noPruning bool
	progVer   uint64
	taxVer    uint64
	schemaVer uint64
	sizeClass int // log2 bucket of the total fact count (see planKeyFor)
}

type planEntry struct {
	key  planKey
	plan *queryPlan
}

// queryPlan is what a query compiles to: the program and the atom its
// engine answers — the specialized goal, or the query's own atom when
// the rewrite fell back (fallback says why) or pruning is off.
type queryPlan struct {
	cp       *datalog.CompiledProgram
	goal     datalog.RelAtom
	fallback string
}

type planCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	entries   map[planKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[planKey]*list.Element),
	}
}

// get returns the cached plan for the key, promoting it to
// most-recently-used, or nil on a miss.
func (c *planCache) get(k planKey) *queryPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*planEntry).plan
	}
	c.misses++
	return nil
}

// put inserts the plan, evicting the least recently used entry beyond
// capacity. Racing puts for the same key keep the first.
func (c *planCache) put(k planKey, plan *queryPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		return
	}
	c.entries[k] = c.ll.PushFront(&planEntry{key: k, plan: plan})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.entries, el.Value.(*planEntry).key)
		c.evictions++
	}
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
	}
}

// WithoutQueryPlanCache disables the cross-query plan cache: every query
// re-assembles and re-compiles its program, as the seed did. Ablation
// knob for benchmarking the cache's contribution.
func WithoutQueryPlanCache() Option { return func(db *DB) { db.plans = nil } }

// PlanCacheStats reports the DB's plan-cache traffic; the zero value is
// returned when the cache is disabled.
func (db *DB) PlanCacheStats() PlanCacheStats {
	if db.plans == nil {
		return PlanCacheStats{}
	}
	return db.plans.stats()
}

// planKeyFor derives the cache key for a query against the DB's current
// rule, taxonomy, and store-schema versions, plus a coarse cardinality
// bucket. The schema version only moves when a relation appears or
// disappears, so a plan costed against a near-empty database used to be
// served forever even after a bulk load grew the same relations by
// orders of magnitude; bucketing the total fact count by its bit length
// forces a replan whenever the corpus crosses a power of two, while
// steady-state workloads (same bucket) keep hitting.
func (db *DB) planKeyFor(goal, ruleSrc string) planKey {
	return planKey{
		goal:      goal,
		ruleSrc:   ruleSrc,
		noPruning: db.noPruning,
		progVer:   db.progVer,
		taxVer:    db.taxonomy.Version(),
		schemaVer: db.st.SchemaVersion(),
		sizeClass: bits.Len(uint(db.st.TotalFacts())),
	}
}

// planFor returns the plan a query needs, consulting the plan cache
// when enabled. A direct goal is specialized to its constants unless
// query pruning is off, which keeps the whole, unrewritten program.
func (db *DB) planFor(q parser.Query) (*queryPlan, error) {
	ruleSrc := ""
	if q.Rule != nil {
		ruleSrc = q.Rule.String()
	}
	var key planKey
	if db.plans != nil {
		key = db.planKeyFor(q.Atom.String(), ruleSrc)
		if plan := db.plans.get(key); plan != nil {
			return plan, nil
		}
	}
	rules := append([]datalog.Rule(nil), db.rules...)
	rules = append(rules, db.taxonomy.Rules()...)
	if q.Rule != nil {
		rules = append(rules, *q.Rule)
	}
	prog := datalog.NewProgram(rules...)
	plan := &queryPlan{goal: q.Atom, fallback: "query pruning is off"}
	if !db.noPruning {
		sp := datalog.SpecializeGoal(prog, q.Atom)
		prog, plan.goal, plan.fallback = sp.Program, sp.Goal, sp.Fallback
	}
	cp, err := datalog.CompileProgram(prog)
	if err != nil {
		return nil, err
	}
	plan.cp = cp
	if db.plans != nil {
		db.plans.put(key, plan)
	}
	return plan, nil
}
