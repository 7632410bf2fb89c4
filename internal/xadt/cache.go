package xadt

import (
	"sync"
	"sync/atomic"
)

// DefaultCacheEntries bounds each table cache. 128 fragments is enough
// to cover the reuse pattern that matters — a WHERE predicate scanning a
// fragment and the projection scanning the same one again — while
// keeping a worker's cache well under a megabyte on the paper's
// datasets.
const DefaultCacheEntries = 128

// Cache memoizes fragment→element table, keyed by the fragment's stored
// bytes, with LRU eviction. A table holds only offsets, so a hit applies
// it to the caller's bytes, which equal the key. It is not safe for
// concurrent use; each execution worker owns one (see CachePool).
type Cache struct {
	cap     int
	entries map[string]*cacheEntry
	// Intrusive LRU list with a sentinel: head.next is most recent.
	head         cacheEntry
	hits, misses uint64
	// missStreak counts consecutive misses; a long streak means the
	// caller is sweeping distinct fragments (no reuse), so admission is
	// throttled to avoid paying key-copy + eviction per call.
	missStreak int
	w          scratch
	// split is the table of the value Unnest split last, kept apart
	// from the LRU: methods on the references Unnest returned read it
	// without a scan, whatever the LRU admitted.
	split lastSplit
}

type cacheEntry struct {
	key        string
	t          table
	prev, next *cacheEntry
}

// NewCache returns a cache bounded to max entries (DefaultCacheEntries
// if max <= 0).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	c := &Cache{cap: max, entries: make(map[string]*cacheEntry, max)}
	c.head.prev, c.head.next = &c.head, &c.head
	return c
}

// table returns the element table of v, scanning and caching on miss.
// A table the cache does not keep lives in its scratch space and is
// valid until the next call. A reference never goes through the LRU
// (see refTable).
func (c *Cache) table(v Value) (*table, error) {
	if v.span != 0 {
		return c.refTable(v)
	}
	return c.lookup(v, true)
}

// lookup is table, caching a scan only when admit is set.
func (c *Cache) lookup(v Value, admit bool) (*table, error) {
	// The inline string(v.data) conversion lets the compiler elide the
	// key copy on the hit path.
	if e, ok := c.entries[string(v.data)]; ok {
		c.hits++
		c.missStreak = 0
		c.unlink(e)
		c.pushFront(e)
		return &e.t, nil
	}
	c.misses++
	c.missStreak++
	if err := c.w.scan(v.data, &c.w.t); err != nil {
		return nil, err
	}
	// Sweep detection: after 2*cap consecutive misses nothing inserted
	// recently has been re-referenced, so admit only every 8th fragment.
	// A single hit resets the streak and restores full admission.
	if !admit || c.missStreak > 2*c.cap && c.missStreak%8 != 0 {
		return &c.w.t, nil
	}
	// A full cache reuses the evicted entry and its table slices; only a
	// cache with room allocates an entry.
	var e *cacheEntry
	if len(c.entries) >= c.cap {
		e = c.head.prev
		c.unlink(e)
		delete(c.entries, e.key)
	} else {
		e = &cacheEntry{}
	}
	e.key = string(v.data)
	e.t = table{
		format: c.w.t.format,
		body:   c.w.t.body,
		end:    c.w.t.end,
		names:  append(e.t.names[:0], c.w.t.names...),
		elems:  append(e.t.elems[:0], c.w.t.elems...),
	}
	c.entries[e.key] = e
	c.pushFront(e)
	return &e.t, nil
}

func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.next = c.head.next
	e.prev = &c.head
	e.next.prev = e
	c.head.next = e
}

// Len reports the number of cached fragments.
func (c *Cache) Len() int { return len(c.entries) }

// Stats reports the cache's accumulated hit/miss counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits, Misses: c.misses}
}

// CacheStats are table-cache counters, aggregated per pool.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// CachePool hands out table caches to execution workers. It is backed
// by sync.Pool, so under the parallel executor each worker effectively
// keeps a private cache for the life of a pipeline (no contention on the
// hot path); counters are flushed into the pool's atomic totals on Put
// so Stats survives cache recycling.
type CachePool struct {
	pool    sync.Pool
	entries int
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// NewCachePool returns a pool of caches each bounded to entriesPerCache
// (DefaultCacheEntries if <= 0).
func NewCachePool(entriesPerCache int) *CachePool {
	p := &CachePool{entries: entriesPerCache}
	p.pool.New = func() any { return NewCache(p.entries) }
	return p
}

// Get borrows a cache. Pair with Put.
func (p *CachePool) Get() *Cache { return p.pool.Get().(*Cache) }

// Put returns a cache to the pool, folding its counters into the pool
// totals. The cache keeps its contents, so a worker that re-borrows one
// still benefits from earlier scans.
func (p *CachePool) Put(c *Cache) {
	p.hits.Add(c.hits)
	p.misses.Add(c.misses)
	c.hits, c.misses = 0, 0
	p.pool.Put(c)
}

// Stats returns the pool-wide totals flushed by Put so far.
func (p *CachePool) Stats() CacheStats {
	return CacheStats{Hits: p.hits.Load(), Misses: p.misses.Load()}
}
