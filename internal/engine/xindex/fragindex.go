package xindex

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/xadt"
)

// FragmentIndex is the secondary index over one stored XADT column: two
// posting maps, one from each element name to the rows containing an
// element of that name, one from each text token to the rows whose
// character data holds it, built row by row as tuples are inserted (or
// backfilled from the heap). It tracks how many heap rows it has
// absorbed so the planner can detect a stale index — an index that has
// not seen every row is never consulted, and a row whose fragment fails
// to decode invalidates the whole index rather than silently dropping
// postings. Lookups only ever produce candidate supersets;
// IndexedFragScan re-verifies the real predicate.
type FragmentIndex struct {
	mu     sync.RWMutex
	table  string
	column string
	colIdx int

	names postings // element name → rows with an element of that name
	words postings // text token → rows whose text holds it

	rows    int
	invalid bool
	lookups atomic.Uint64

	// Mutation bookkeeping. The delta-coded posting lists are append-only,
	// so deletes tombstone (dead) and out-of-order inserts — page reuse
	// hands out RIDs below maxKey — side-track into an overlay of rows the
	// postings do not cover. Lookups subtract dead keys and union overlay
	// keys: still a candidate superset, so results never change, only
	// lookup cost. The catalog rebuilds the index once the backlog grows.
	maxKey  uint64
	anyKey  bool
	dead    map[uint64]bool
	overlay map[uint64]bool

	// Working space of AddRow, reused from row to row.
	walker xadt.Walker
	text   []byte // the row's character data
}

// NewFragmentIndex returns an empty index over table.column at colIdx.
func NewFragmentIndex(table, column string, colIdx int) *FragmentIndex {
	return &FragmentIndex{
		table: table, column: column, colIdx: colIdx,
		names: postings{}, words: postings{},
	}
}

// Table returns the owning table name.
func (fi *FragmentIndex) Table() string { return fi.table }

// Column returns the indexed column name.
func (fi *FragmentIndex) Column() string { return fi.column }

// ColumnIndex returns the indexed column's position in the row.
func (fi *FragmentIndex) ColumnIndex() int { return fi.colIdx }

// Rows reports how many heap rows the index has absorbed.
func (fi *FragmentIndex) Rows() int {
	fi.mu.RLock()
	defer fi.mu.RUnlock()
	return fi.rows
}

// Valid reports whether the index is usable; it turns false permanently
// once any row fails to index (the staleness/fallback contract: a broken
// index is never consulted, the planner falls back to scans).
func (fi *FragmentIndex) Valid() bool {
	fi.mu.RLock()
	defer fi.mu.RUnlock()
	return !fi.invalid
}

// Invalidate marks the index unusable; the planner will fall back to
// sequential scans until it is rebuilt.
func (fi *FragmentIndex) Invalidate() {
	fi.mu.Lock()
	fi.invalid = true
	fi.mu.Unlock()
}

// SizeBytes reports the combined index footprint.
func (fi *FragmentIndex) SizeBytes() int64 {
	fi.mu.RLock()
	defer fi.mu.RUnlock()
	return fi.names.sizeBytes() + fi.words.sizeBytes()
}

// AddRow absorbs one inserted heap row. Every row counts toward
// coverage, including NULL fragments (which simply contribute no
// postings). Rows at RIDs past every posting extend the main indexes; a
// row at a reused (lower) RID lands in the overlay instead, since the
// delta-coded postings are append-only. A fragment whose element table
// does not read invalidates the index instead of erroring the insert —
// correctness comes from the planner's fallback, not from aborting
// loads.
func (fi *FragmentIndex) AddRow(rid storage.RID, v types.Value) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.rows++
	if fi.invalid {
		return
	}
	key := ridKey(rid)
	if fi.anyKey && key <= fi.maxKey {
		// Reused RID: postings cannot take it. Track it in the overlay;
		// a tombstone for the RID's previous occupant no longer applies.
		delete(fi.dead, key)
		if fi.overlay == nil {
			fi.overlay = map[uint64]bool{}
		}
		fi.overlay[key] = true
		return
	}
	fi.maxKey, fi.anyKey = key, true
	if v.IsNull() {
		return
	}
	if v.Kind() != types.KindXADT || !fi.addFragment(rid, v.XADT()) {
		fi.invalid = true
	}
}

// addFragment indexes one stored fragment under fi.mu from its stored
// element table, without decoding it to nodes. Every distinct element
// name gets one posting for the row. The word postings come from the
// fragment's character data in document order — the concatenation
// InnerText performs, so any element's inner text is a contiguous
// substring of it and the tokenizer's superset guarantee carries
// through. It reports false when the bytes do not scan or a posting
// would break order.
func (fi *FragmentIndex) addFragment(rid storage.RID, data []byte) bool {
	key, ok := ridKey(rid), true
	text, err := fi.walker.Walk(data, fi.text[:0], func(name []byte, _ int) {
		ok = fi.names.add(key, name) && ok
	})
	fi.text = text
	if err != nil {
		return false
	}
	for lo, hi := nextToken(text, 0); lo < hi; lo, hi = nextToken(text, hi) {
		ok = fi.words.add(key, text[lo:hi]) && ok
	}
	return ok
}

// DeleteRow records the removal of the heap row at rid: the key leaves
// the overlay and is tombstoned. The tombstone is unconditional — a key
// can cycle postings → dead → overlay (RID reuse) → deleted again, and
// dropping only the overlay entry would resurrect the original postings
// occupant. Tombstoning a key the postings never held is harmless: dead
// keys only subtract from posting results.
func (fi *FragmentIndex) DeleteRow(rid storage.RID) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.rows--
	if fi.invalid {
		return
	}
	key := ridKey(rid)
	delete(fi.overlay, key)
	if fi.dead == nil {
		fi.dead = map[uint64]bool{}
	}
	fi.dead[key] = true
}

// Lookups reports how many LookupFindKey calls this index has served. It
// is a statistic only; a rebuilt index starts again from zero.
func (fi *FragmentIndex) Lookups() uint64 { return fi.lookups.Load() }

// Backlog reports how many keys lookups must patch over (tombstones plus
// overlay rows); the catalog rebuilds the index when this grows past its
// threshold.
func (fi *FragmentIndex) Backlog() int {
	fi.mu.RLock()
	defer fi.mu.RUnlock()
	return len(fi.dead) + len(fi.overlay)
}

// LookupFindKey answers a findKeyInElm(col, elm, key) = 1 conjunct with
// a candidate RID set: rows containing an element named elm (name
// postings) intersected with rows whose text can contain key (word
// postings), sorted in heap order. ok is false when the index cannot
// answer — it is invalid, or both the element name is empty and the key
// has no word-shaped tokens to look up.
func (fi *FragmentIndex) LookupFindKey(elm, key string) (rids []storage.RID, ok bool) {
	fi.lookups.Add(1)
	fi.mu.RLock()
	defer fi.mu.RUnlock()
	if fi.invalid {
		return nil, false
	}
	tokens := TokenSet(key)
	if elm == "" && len(tokens) == 0 {
		return nil, false
	}
	var acc []uint64
	have := false
	if elm != "" {
		if pl := fi.names[elm]; pl != nil {
			acc = pl.Values()
		}
		have = true
	}
	if len(tokens) > 0 {
		kw, kok := fi.words.candidates(tokens)
		if kok {
			if have {
				acc = IntersectSorted(acc, kw)
			} else {
				acc = kw
			}
			have = true
		}
	}
	if !have {
		return nil, false
	}
	// Patch mutations over the append-only postings: drop tombstoned
	// keys, then union in every overlay row. Overlay rows join
	// unconditionally — their fragments were never decoded, so they are
	// candidates by definition and the scan's re-verification decides.
	if len(fi.dead) > 0 {
		kept := acc[:0]
		for _, k := range acc {
			if !fi.dead[k] {
				kept = append(kept, k)
			}
		}
		acc = kept
	}
	if len(fi.overlay) > 0 {
		inAcc := make(map[uint64]bool, len(acc))
		for _, k := range acc {
			inAcc[k] = true
		}
		for k := range fi.overlay {
			if !inAcc[k] {
				acc = append(acc, k)
			}
		}
		slices.Sort(acc)
	}
	out := make([]storage.RID, len(acc))
	for i, k := range acc {
		out[i] = keyRID(k)
	}
	return out, true
}

// Diff describes the first difference between the contents of fi and o
// — row count, validity, the name and word postings, tombstones and
// overlay — or returns "" when both hold the same index. It lets tests
// compare two builds of one column.
func (fi *FragmentIndex) Diff(o *FragmentIndex) string {
	fi.mu.RLock()
	defer fi.mu.RUnlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	switch {
	case fi.rows != o.rows:
		return fmt.Sprintf("rows %d vs %d", fi.rows, o.rows)
	case fi.invalid != o.invalid:
		return fmt.Sprintf("invalid %v vs %v", fi.invalid, o.invalid)
	case !maps.Equal(fi.dead, o.dead) || !maps.Equal(fi.overlay, o.overlay):
		return "tombstones or overlay differ"
	}
	if d := fi.names.diff("name", o.names); d != "" {
		return d
	}
	return fi.words.diff("term", o.words)
}
