package xindex

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/engine/storage"
)

// SkipInterval is the posting count of one skip block: every
// SkipInterval-th posting starts a new block whose absolute value and
// byte offset are kept in the skip table, so SeekGE can jump over whole
// blocks instead of decoding every delta.
const SkipInterval = 64

// ridKey packs a heap RID into an integer that sorts exactly like heap
// scan order (page-major, then slot), so sorted posting lists enumerate
// candidate rows in SeqScan order.
func ridKey(r storage.RID) uint64 {
	return uint64(uint32(r.Page))<<32 | uint64(uint32(r.Slot))
}

// keyRID is the inverse of ridKey.
func keyRID(k uint64) storage.RID {
	return storage.RID{Page: int32(k >> 32), Slot: int32(uint32(k))}
}

// skipEntry indexes the start of one block: First is the block's first
// posting value, Prev the value immediately before the block (the delta
// base), Off the byte offset of the block in data, and N the number of
// postings before the block.
type skipEntry struct {
	First uint64
	Prev  uint64
	Off   int
	N     int
}

// PostingList is a strictly increasing sequence of uint64 posting values
// stored as delta uvarints with a skip table. Appends must be in
// increasing order (heap RIDs arrive that way); duplicates are rejected.
type PostingList struct {
	data  []byte
	skips []skipEntry
	n     int
	last  uint64
}

// Len returns the number of postings.
func (p *PostingList) Len() int { return p.n }

// SizeBytes reports the encoded footprint including the skip table.
func (p *PostingList) SizeBytes() int64 {
	return int64(len(p.data)) + int64(len(p.skips))*32
}

// Append adds v to the list. It reports false (and leaves the list
// unchanged) when v does not extend the strictly increasing sequence.
func (p *PostingList) Append(v uint64) bool {
	if p.n > 0 && v <= p.last {
		return false
	}
	if p.n%SkipInterval == 0 {
		p.skips = append(p.skips, skipEntry{First: v, Prev: p.last, Off: len(p.data), N: p.n})
	}
	var buf [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(buf[:], v-p.last)
	p.data = append(p.data, buf[:m]...)
	p.last = v
	p.n++
	return true
}

// Iterator returns a fresh iterator positioned before the first posting.
type Iterator struct {
	p    *PostingList
	off  int
	prev uint64
	idx  int
	cur  uint64
	ok   bool
}

// Iterator returns an iterator over the list.
func (p *PostingList) Iterator() *Iterator {
	return &Iterator{p: p}
}

// Next advances to the following posting, reporting false at the end.
func (it *Iterator) Next() (uint64, bool) {
	if it.idx >= it.p.n {
		it.ok = false
		return 0, false
	}
	d, m := binary.Uvarint(it.p.data[it.off:])
	if m <= 0 {
		it.ok = false
		return 0, false
	}
	it.off += m
	it.prev += d
	it.idx++
	it.cur, it.ok = it.prev, true
	return it.cur, true
}

// SeekGE advances to the first posting >= v, using the skip table to
// jump forward when the target lies beyond the current block. It never
// moves backwards: if the current posting already satisfies v it is
// returned again.
func (it *Iterator) SeekGE(v uint64) (uint64, bool) {
	if it.ok && it.cur >= v {
		return it.cur, true
	}
	// Find the last block whose first posting is <= v; only jump if it
	// starts beyond the current position.
	skips := it.p.skips
	lo := sort.Search(len(skips), func(i int) bool { return skips[i].First > v })
	if lo > 0 {
		s := skips[lo-1]
		if s.N > it.idx {
			it.off, it.prev, it.idx = s.Off, s.Prev, s.N
		}
	}
	for {
		cur, ok := it.Next()
		if !ok {
			return 0, false
		}
		if cur >= v {
			return cur, true
		}
	}
}

// Values decodes the whole list.
func (p *PostingList) Values() []uint64 {
	out := make([]uint64, 0, p.n)
	it := p.Iterator()
	for {
		v, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Intersect returns the values present in every list, using the
// smallest list as the driver and skip-based seeks on the rest. A nil
// or empty input yields nil.
func Intersect(lists []*PostingList) []uint64 {
	if len(lists) == 0 {
		return nil
	}
	driver := 0
	for i, l := range lists {
		if l.Len() < lists[driver].Len() {
			driver = i
		}
	}
	if lists[driver].Len() == 0 {
		return nil
	}
	its := make([]*Iterator, len(lists))
	for i, l := range lists {
		its[i] = l.Iterator()
	}
	var out []uint64
	dit := its[driver]
outer:
	for {
		v, ok := dit.Next()
		if !ok {
			return out
		}
		for i, it := range its {
			if i == driver {
				continue
			}
			got, ok := it.SeekGE(v)
			if !ok {
				return out
			}
			if got != v {
				continue outer
			}
		}
		out = append(out, v)
	}
}

// Union merges the lists into one sorted, deduplicated value slice.
func Union(lists []*PostingList) []uint64 {
	total := 0
	for _, l := range lists {
		total += l.Len()
	}
	all := make([]uint64, 0, total)
	for _, l := range lists {
		all = append(all, l.Values()...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// IntersectSorted intersects two sorted deduplicated slices.
func IntersectSorted(a, b []uint64) []uint64 {
	var out []uint64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// String renders diagnostics.
func (p *PostingList) String() string {
	return fmt.Sprintf("postings(n=%d, %dB, %d skips)", p.n, len(p.data), len(p.skips))
}
