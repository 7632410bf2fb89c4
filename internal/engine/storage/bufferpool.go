package storage

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// PageID identifies a page across heap files for buffer accounting.
type PageID struct {
	File *HeapFile
	Page int
}

// PoolStats is a point-in-time snapshot of the pool's counters.
type PoolStats struct {
	Hits   int64
	Misses int64
}

// Total returns the number of accesses the snapshot covers.
func (s PoolStats) Total() int64 { return s.Hits + s.Misses }

// poolShardCount is the number of independently locked LRU shards a
// large pool is split into. Page IDs hash onto shards, so parallel scans
// of different page ranges rarely contend on the same lock.
const poolShardCount = 16

// poolShard is one independently locked slice of the residency set.
type poolShard struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List
	index    map[PageID]*list.Element
}

// BufferPool is an LRU accountant over page accesses. All pages live in
// memory; the pool exists to report the hit ratio a given memory budget
// would achieve, which the experiment harness surfaces alongside timings.
//
// It is safe for concurrent use and built not to serialize parallel
// scans: hit/miss counters are atomics and the residency set is split
// into hash-partitioned shards with independent locks. Small pools
// (capacity <= 64 pages) keep a single shard so their eviction order
// stays exactly LRU, which the accounting tests rely on.
type BufferPool struct {
	capacity int
	shards   []*poolShard
	hits     atomic.Int64
	misses   atomic.Int64
}

// NewBufferPool returns a pool that tracks up to capacity resident pages.
// Capacity zero disables tracking (every access is a miss).
func NewBufferPool(capacity int) *BufferPool {
	nshards := 1
	if capacity > 64 {
		nshards = poolShardCount
	}
	b := &BufferPool{capacity: capacity, shards: make([]*poolShard, nshards)}
	per := capacity / nshards
	extra := capacity % nshards
	for i := range b.shards {
		c := per
		if i < extra {
			c++
		}
		b.shards[i] = &poolShard{
			capacity: c,
			lru:      list.New(),
			index:    map[PageID]*list.Element{},
		}
	}
	return b
}

// shardFor hashes a page ID onto its shard.
func (b *BufferPool) shardFor(id PageID) *poolShard {
	if len(b.shards) == 1 {
		return b.shards[0]
	}
	// FNV-1a over the file identity and page number.
	h := uint64(14695981039346656037)
	if id.File != nil {
		h ^= id.File.id
	}
	h *= 1099511628211
	h ^= uint64(uint(id.Page))
	h *= 1099511628211
	return b.shards[h%uint64(len(b.shards))]
}

// Touch records an access to the page, updating hit/miss counters and
// recency.
func (b *BufferPool) Touch(id PageID) {
	if b.capacity <= 0 {
		b.misses.Add(1)
		return
	}
	s := b.shardFor(id)
	s.mu.Lock()
	if el, ok := s.index[id]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		b.hits.Add(1)
		return
	}
	el := s.lru.PushFront(id)
	s.index[id] = el
	if s.lru.Len() > s.capacity {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.index, oldest.Value.(PageID))
	}
	s.mu.Unlock()
	b.misses.Add(1)
}

// Forget drops a page from the residency set without touching the
// hit/miss counters. Heap files call it when a page empties and resets,
// so stale residency never counts a reused page as a hit.
func (b *BufferPool) Forget(id PageID) {
	if b.capacity <= 0 {
		return
	}
	s := b.shardFor(id)
	s.mu.Lock()
	if el, ok := s.index[id]; ok {
		s.lru.Remove(el)
		delete(s.index, id)
	}
	s.mu.Unlock()
}

// Stats returns a snapshot of the cumulative hit and miss counts. The
// two counters are read independently, so a snapshot taken during
// concurrent Touch traffic is approximate by at most the in-flight
// accesses.
func (b *BufferPool) Stats() PoolStats {
	return PoolStats{Hits: b.hits.Load(), Misses: b.misses.Load()}
}

// Resident returns the number of pages currently tracked as resident.
func (b *BufferPool) Resident() int {
	n := 0
	for _, s := range b.shards {
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Reset clears counters and residency. It is safe to call concurrently
// with Touch: counters are atomically zeroed first, then each shard is
// cleared under its own lock, so the pool converges to an empty state
// without torn reads (accesses racing the reset are counted against the
// fresh epoch).
func (b *BufferPool) Reset() {
	b.hits.Store(0)
	b.misses.Store(0)
	for _, s := range b.shards {
		s.mu.Lock()
		s.lru.Init()
		s.index = map[PageID]*list.Element{}
		s.mu.Unlock()
	}
}
