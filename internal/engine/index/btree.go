// Package index implements a B+tree over engine values, with duplicate
// keys and leaf-chained range scans. Indexes built by the experiment
// harness ("as suggested by the DB2 Index Wizard" in the paper) are
// instances of this tree; their reported sizes come from its node
// accounting.
package index

import (
	"cmp"
	"slices"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// order is the fan-out of the tree: the maximum number of keys per node.
// 128 keys of ~16-64 bytes keeps nodes near the 8 KiB page size.
const order = 128

// Entry is one key→RID pair.
type Entry struct {
	Key types.Value
	RID storage.RID
}

type node struct {
	leaf     bool
	keys     []types.Value
	children []*node       // internal nodes: len(keys)+1 children
	rids     []storage.RID // leaves: parallel to keys
	next     *node         // leaf chain
}

// BTree is a B+tree with duplicate keys.
type BTree struct {
	root  *node
	size  int
	nodes int
}

// New returns an empty tree.
func New() *BTree {
	leaf := &node{leaf: true}
	return &BTree{root: leaf, nodes: 1}
}

// Len returns the number of entries.
func (t *BTree) Len() int { return t.size }

// NodeCount returns the number of tree nodes, for size accounting.
func (t *BTree) NodeCount() int { return t.nodes }

// SizeBytes reports the index footprint, one page per node, matching how
// the experiments report index sizes.
func (t *BTree) SizeBytes() int64 { return int64(t.nodes) * storage.PageSize }

// Insert adds a key→RID pair; duplicate keys are kept.
func (t *BTree) Insert(key types.Value, rid storage.RID) {
	newChild, splitKey := t.insert(t.root, key, rid)
	if newChild != nil {
		root := &node{
			keys:     []types.Value{splitKey},
			children: []*node{t.root, newChild},
		}
		t.root = root
		t.nodes++
	}
	t.size++
}

// insert descends into n; on split it returns the new right sibling and
// its separator key.
func (t *BTree) insert(n *node, key types.Value, rid storage.RID) (*node, types.Value) {
	if n.leaf {
		// Place duplicates after existing equal keys: descent already
		// picks the rightmost leaf that can hold the key (upperBound), so
		// equal-key postings stay in insertion order and Lookup returns
		// them in the order rows entered the heap.
		i := upperBound(n.keys, key)
		n.keys = insertAt(n.keys, i, key)
		n.rids = insertRIDAt(n.rids, i, rid)
		if len(n.keys) <= order {
			return nil, types.Null
		}
		return t.splitLeaf(n)
	}
	ci := upperBound(n.keys, key)
	newChild, splitKey := t.insert(n.children[ci], key, rid)
	if newChild == nil {
		return nil, types.Null
	}
	n.keys = insertAt(n.keys, ci, splitKey)
	n.children = insertNodeAt(n.children, ci+1, newChild)
	if len(n.keys) <= order {
		return nil, types.Null
	}
	return t.splitInternal(n)
}

// Both split halves are copied into right-sized slices: reslicing the
// left half would keep the whole array it grew into, and a node that
// never grows again would hold twice the slots it uses.
func (t *BTree) splitLeaf(n *node) (*node, types.Value) {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: slices.Clone(n.keys[mid:]),
		rids: slices.Clone(n.rids[mid:]),
		next: n.next,
	}
	n.keys = slices.Clone(n.keys[:mid])
	n.rids = slices.Clone(n.rids[:mid])
	n.next = right
	t.nodes++
	return right, right.keys[0]
}

func (t *BTree) splitInternal(n *node) (*node, types.Value) {
	mid := len(n.keys) / 2
	splitKey := n.keys[mid]
	right := &node{
		keys:     slices.Clone(n.keys[mid+1:]),
		children: slices.Clone(n.children[mid+1:]),
	}
	n.keys = slices.Clone(n.keys[:mid])
	n.children = slices.Clone(n.children[:mid+1])
	t.nodes++
	return right, splitKey
}

// Lookup appends the RIDs of all entries equal to key to dst and returns
// the extended slice; with no dst it allocates one. The appended RIDs are
// in heap order (sorted by page then slot). Under page reuse, insertion
// order can diverge from heap order, and every access path promises
// heap-order output — so the sort happens here rather than at insert
// time. A caller that probes repeatedly passes its buffer back,
// buf = t.Lookup(key, buf[:0]...), and allocates nothing once the buffer
// has grown. A Null key matches only the entries stored under Null.
func (t *BTree) Lookup(key types.Value, dst ...storage.RID) []storage.RID {
	n := t.root
	for !n.leaf {
		// Leftmost child that can contain key; duplicates equal to a
		// separator live to its left.
		n = n.children[lowerBound(n.keys, key)]
	}
	start := len(dst)
	for i := lowerBound(n.keys, key); n != nil; n, i = n.next, 0 {
		j := i
		for j < len(n.keys) && types.Compare(n.keys[j], key) == 0 {
			j++
		}
		dst = append(dst, n.rids[i:j]...)
		if j < len(n.keys) {
			break
		}
	}
	if got := dst[start:]; !slices.IsSortedFunc(got, compareRID) {
		slices.SortFunc(got, compareRID)
	}
	return dst
}

// compareRID orders RIDs as a heap scan visits them: page, then slot.
func compareRID(a, b storage.RID) int {
	if c := cmp.Compare(a.Page, b.Page); c != 0 {
		return c
	}
	return cmp.Compare(a.Slot, b.Slot)
}

// Delete removes one entry matching key→rid; it reports whether a match
// was found. Removal is lazy: leaves may empty out but the tree is never
// rebalanced — range scans tolerate empty leaves, and mutation workloads
// here are small relative to loads.
func (t *BTree) Delete(key types.Value, rid storage.RID) bool {
	n := t.root
	for !n.leaf {
		// Leftmost child that can contain key; duplicates equal to a
		// separator live to its left.
		n = n.children[lowerBound(n.keys, key)]
	}
	i := lowerBound(n.keys, key)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if types.Compare(n.keys[i], key) != 0 {
				return false
			}
			if n.rids[i] == rid {
				// slices.Delete zeroes the vacated tail slot, so the
				// array keeps no reference to the deleted key's payload.
				n.keys = slices.Delete(n.keys, i, i+1)
				n.rids = slices.Delete(n.rids, i, i+1)
				t.size--
				return true
			}
		}
		n = n.next
		i = 0
	}
	return false
}

// AscendRange visits entries with lo <= key <= hi in key order. The
// callback returns false to stop early. A Null lo starts at the smallest
// key; a Null hi ends at the largest.
func (t *BTree) AscendRange(lo, hi types.Value, fn func(types.Value, storage.RID) bool) {
	n := t.root
	for !n.leaf {
		ci := 0
		if !lo.IsNull() {
			// Descend into the leftmost child that can contain lo: with
			// duplicates, keys equal to a separator live to its left.
			ci = lowerBound(n.keys, lo)
		}
		n = n.children[ci]
	}
	i := 0
	if !lo.IsNull() {
		i = lowerBound(n.keys, lo)
	}
	for n != nil {
		for ; i < len(n.keys); i++ {
			if !hi.IsNull() && types.Compare(n.keys[i], hi) > 0 {
				return
			}
			if !fn(n.keys[i], n.rids[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Ascend visits all entries in key order.
func (t *BTree) Ascend(fn func(types.Value, storage.RID) bool) {
	t.AscendRange(types.Null, types.Null, fn)
}

// Height returns the tree height (1 for a lone leaf).
func (t *BTree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// lowerBound returns the first index i with keys[i] >= key.
func lowerBound(keys []types.Value, key types.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if types.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index i with keys[i] > key; descending into
// children[upperBound] keeps duplicate keys reachable to the left.
func upperBound(keys []types.Value, key types.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if types.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertAt(s []types.Value, i int, v types.Value) []types.Value {
	s = append(s, types.Null)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertRIDAt(s []storage.RID, i int, v storage.RID) []storage.RID {
	s = append(s, storage.RID{})
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertNodeAt(s []*node, i int, v *node) []*node {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
