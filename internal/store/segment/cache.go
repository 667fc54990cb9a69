package segment

import (
	"container/list"
	"sync"
	"sync/atomic"
	"unsafe"

	"videodb/internal/object"
	"videodb/internal/store"
)

// decodedBlock is one fact block resident in the cache: the canonical
// keys of its facts in key order (for membership binary search), and the
// cost charged against the cache budget. The facts themselves decode on
// first use — a scan or a compaction — from the block's raw records: a
// membership probe (HasFact, which every delete makes) needs the keys
// alone, and a decoded fact holds several times the memory of its key.
// Decoding adds the facts to the cost (see factsCost).
type decodedBlock struct {
	keys []string // sorted; parallel to facts
	cost int64    // under the owning cache's mu once resident

	// owner and key are set when the block is admitted, so facts decoded
	// later are charged to the cache that holds the block.
	owner *blockCache
	key   blockKey

	once  sync.Once
	rel   string
	raw   []byte         // the block's records until facts decode
	dict  []object.Value // the segment's dictionary
	facts []store.Fact
	err   error
}

// decoded returns the block's facts, decoding them on first use. Safe
// for the concurrent readers that share a cached block.
func (b *decodedBlock) decoded() ([]store.Fact, error) {
	b.once.Do(func() {
		b.facts = make([]store.Fact, 0, len(b.keys))
		b.err = eachRecord(b.raw, b.dict, func(args []object.Value) {
			b.facts = append(b.facts, store.Fact{Name: b.rel, Args: append([]object.Value(nil), args...)})
		})
		b.raw = nil
		if b.owner != nil {
			b.owner.charge(b, factsCost(b.facts))
		}
	})
	return b.facts, b.err
}

// factsCost is the memory decoded facts hold beyond their keys: each
// fact's header and argument array. Argument payloads (strings, sets)
// share the segment dictionary and are not counted again.
func factsCost(facts []store.Fact) int64 {
	n := int64(len(facts)) * int64(unsafe.Sizeof(store.Fact{}))
	for _, f := range facts {
		n += int64(len(f.Args)) * int64(unsafe.Sizeof(object.Value{}))
	}
	return n
}

// find returns the position of key in the block, or -1.
func (b *decodedBlock) find(key string) int {
	lo, hi := 0, len(b.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b.keys) && b.keys[lo] == key {
		return lo
	}
	return -1
}

type blockKey struct {
	seg   uint64
	block int
}

// blockCache is a byte-budgeted LRU over decoded blocks. It has its own
// lock because fact reads run under the store's read lock — many readers
// hit the cache concurrently, and a get mutates LRU order. The budget is
// soft by one block: the block being served is always admitted, so a
// single block larger than the whole budget still works (and evicts
// everything else).
type blockCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	ll      *list.List // front = most recently used
	entries map[blockKey]*list.Element

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type cacheEntry struct {
	key blockKey
	blk *decodedBlock
}

func newBlockCache(budget int64) *blockCache {
	return &blockCache{
		budget:  budget,
		ll:      list.New(),
		entries: make(map[blockKey]*list.Element),
	}
}

func (c *blockCache) get(k blockKey) (*decodedBlock, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).blk, true
	}
	c.misses.Add(1)
	return nil, false
}

// put admits a block, evicting least-recently-used entries until the
// budget holds. Racing puts for the same key keep the first.
func (c *blockCache) put(k blockKey, blk *decodedBlock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		return
	}
	blk.owner, blk.key = c, k
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, blk: blk})
	c.used += blk.cost
	c.evict()
}

// charge adds n bytes to a block's cost when its facts decode, if the
// block is still resident, and evicts down to the budget.
func (c *blockCache) charge(blk *decodedBlock, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[blk.key]; !ok || el.Value.(*cacheEntry).blk != blk {
		return
	}
	blk.cost += n
	c.used += n
	c.evict()
}

// evict drops least-recently-used entries until the budget holds, always
// keeping the most recent one. Called with mu held.
func (c *blockCache) evict() {
	for c.used > c.budget && c.ll.Len() > 1 {
		el := c.ll.Back()
		ent := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.entries, ent.key)
		c.used -= ent.blk.cost
		c.evictions.Add(1)
	}
}

// dropSegment discards every cached block of a segment (called after
// compaction retires the file; the ids are never reused, so stale
// entries would only waste budget).
func (c *blockCache) dropSegment(seg uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		ent := el.Value.(*cacheEntry)
		if ent.key.seg == seg {
			c.ll.Remove(el)
			delete(c.entries, ent.key)
			c.used -= ent.blk.cost
		}
		el = next
	}
}

func (c *blockCache) bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

func (c *blockCache) entriesLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
