package xindex

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/engine/storage"
)

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

// PostingList is a strictly increasing sequence of uint64 posting values
// stored as delta uvarints. Appends must be in increasing order (heap
// RIDs arrive that way); duplicates are rejected.
type PostingList struct {
	data []byte
	n    int
	last uint64
}

// Len returns the number of postings.
func (p *PostingList) Len() int { return p.n }

// SizeBytes reports the encoded footprint.
func (p *PostingList) SizeBytes() int64 { return int64(len(p.data)) }

// Append adds v to the list. It reports false (and leaves the list
// unchanged) when v does not extend the strictly increasing sequence.
func (p *PostingList) Append(v uint64) bool {
	if p.n > 0 && v <= p.last {
		return false
	}
	p.data = binary.AppendUvarint(p.data, v-p.last)
	p.last = v
	p.n++
	return true
}

// Values decodes the whole list.
func (p *PostingList) Values() []uint64 {
	out := make([]uint64, 0, p.n)
	var v uint64
	for off := 0; off < len(p.data); {
		d, m := binary.Uvarint(p.data[off:])
		if m <= 0 {
			break
		}
		off += m
		v += d
		out = append(out, v)
	}
	return out
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

// postings maps each term to the posting list of the rows holding it.
// A fragment index keeps two: element names and text tokens.
type postings map[string]*PostingList

// add records that the row at key holds term, once per row: rows arrive
// in increasing key order, so a list already ending at key has the row.
// A new term's key is a copy, so the index never pins a row's bytes. It
// reports false if an append would break posting order.
func (p postings) add(key uint64, term []byte) bool {
	pl := p[string(term)]
	if pl == nil {
		pl = &PostingList{}
		p[string(term)] = pl
	}
	if pl.n > 0 && pl.last == key {
		return true
	}
	return pl.Append(key)
}

// sizeBytes reports the posting footprint plus the dictionary strings.
func (p postings) sizeBytes() int64 {
	var n int64
	for t, pl := range p {
		n += int64(len(t)) + pl.SizeBytes()
	}
	return n
}

// candidates answers a key by substring over the token postings.
// Because the XADT predicates match by substring (strings.Contains), it
// takes, per key token, the union of the postings of every term that
// contains the token, then intersects those unions — rows where every
// token is a substring of at least one of the row's terms, a guaranteed
// superset of the rows whose text contains the key. ok is false when
// tokens is empty (nothing to index on). An empty (non-nil) result means
// no row can match.
func (p postings) candidates(tokens []string) (rids []uint64, ok bool) {
	if len(tokens) == 0 {
		return nil, false
	}
	var acc []uint64
	for i, tok := range tokens {
		var lists []*PostingList
		for term, pl := range p {
			if strings.Contains(term, tok) {
				lists = append(lists, pl)
			}
		}
		if len(lists) == 0 {
			return []uint64{}, true
		}
		u := Union(lists)
		if i == 0 {
			acc = u
		} else {
			acc = IntersectSorted(acc, u)
		}
		if len(acc) == 0 {
			return []uint64{}, true
		}
	}
	return acc, true
}

// diff describes the first term whose postings differ between p and o,
// or returns "" when both hold the same terms and rows.
func (p postings) diff(kind string, o postings) string {
	if len(p) != len(o) {
		return fmt.Sprintf("%d %ss vs %d", len(p), kind, len(o))
	}
	for term, pl := range p {
		opl := o[term]
		if opl == nil {
			return fmt.Sprintf("%s %q missing", kind, term)
		}
		if a, b := pl.Values(), opl.Values(); !slices.Equal(a, b) {
			return fmt.Sprintf("%s %q: postings %v vs %v", kind, term, a, b)
		}
	}
	return ""
}
