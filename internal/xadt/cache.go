package xadt

import (
	"sync"
	"sync/atomic"
)

// Cache is an execution worker's XADT working space: scratch space for
// building method outputs, and one slot holding the decoded element
// table of the value read last, keyed by the identity of its bytes (the
// same memory, which a Value never writes to). The slot serves a row's
// verify and projection on the same stored value, and every reference
// into the value Unnest split. It is not safe for concurrent use; each
// execution worker owns one (see CachePool).
type Cache struct {
	w    scratch
	data []byte // the value whose table t holds
	t    table
	// hits counts reads the slot served, misses tables decoded.
	hits, misses uint64
	shard        int // the CachePool counters Put adds to
}

// NewCache returns an empty cache. The argument is ignored: a cache
// holds one table (callers written for the sized cache it replaced still
// pass one).
func NewCache(int) *Cache { return &Cache{} }

// table returns the element table of v, decoding it into the slot
// unless the slot holds v's bytes. A reference reads its element's
// entries within the table of the value it points into.
func (c *Cache) table(v Value) (*table, error) {
	if len(v.data) > 0 && len(v.data) == len(c.data) && &v.data[0] == &c.data[0] {
		c.hits++
	} else {
		c.misses++
		c.data = nil
		if err := c.w.read(v.data, &c.t); err != nil {
			return nil, err
		}
		c.data = v.data
	}
	if v.span != 0 {
		return c.w.viewOf(&c.t, v.span)
	}
	return &c.t, nil
}

// Stats reports the cache's accumulated hit/miss counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses}
}

// CacheStats are table-cache counters, aggregated per pool.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// CachePool hands out caches to execution workers. It is backed by
// sync.Pool, so under the parallel executor each worker effectively
// keeps a private cache for the life of a pipeline (no contention on the
// hot path). Put folds a cache's counters into one of the pool's
// counter shards, chosen when the cache was made, so that workers'
// Puts write different cache lines; Stats sums the shards.
type CachePool struct {
	pool   sync.Pool
	made   atomic.Uint32
	shards [8]struct {
		hits, misses atomic.Uint64
		// Shards 128 bytes apart never share a 64-byte line, however
		// the array is aligned.
		_ [112]byte
	}
}

// NewCachePool returns a pool of caches. The argument is ignored, as by
// NewCache.
func NewCachePool(int) *CachePool {
	p := &CachePool{}
	p.pool.New = func() any { return &Cache{shard: int(p.made.Add(1)) % len(p.shards)} }
	return p
}

// Get borrows a cache. Pair with Put.
func (p *CachePool) Get() *Cache { return p.pool.Get().(*Cache) }

// Put returns a cache to the pool, folding its counters into the pool
// totals. The cache keeps its slot, so a worker that re-borrows it still
// reads the value it read last without decoding it again.
func (p *CachePool) Put(c *Cache) {
	s := &p.shards[c.shard]
	s.hits.Add(c.hits)
	s.misses.Add(c.misses)
	c.hits, c.misses = 0, 0
	p.pool.Put(c)
}

// Stats returns the pool-wide totals flushed by Put so far.
func (p *CachePool) Stats() CacheStats {
	var st CacheStats
	for i := range p.shards {
		st.Hits += p.shards[i].hits.Load()
		st.Misses += p.shards[i].misses.Load()
	}
	return st
}
