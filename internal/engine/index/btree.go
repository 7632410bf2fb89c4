// Package index implements a B+tree over engine values, with duplicate
// keys and leaf-chained range scans. Indexes built by the experiment
// harness ("as suggested by the DB2 Index Wizard" in the paper) are
// instances of this tree; their reported sizes come from its node
// accounting.
package index

import (
	"cmp"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// order is the fan-out of the tree: the maximum number of keys per node.
// A key takes 16 bytes plus its payload, so 128 keys of short strings or
// integers, with their RIDs or child pointers, fit the 8 KiB page that
// SizeBytes charges per node.
const order = 128

// key is one stored key, laid out without pointers so the garbage
// collector never scans key arrays. kind is the key's types.Kind. v holds
// an INTEGER or BOOL value; for a VARCHAR or XADT key it holds
// offset<<32 | length of the payload in its node's data.
type key struct {
	v    int64
	kind uint8
}

type node struct {
	leaf     bool
	keys     []key
	data     []byte        // payload bytes of keys; appended to or repacked
	garbage  int           // bytes of data that no key refers to
	children []*node       // internal nodes: len(keys)+1 children
	rids     []storage.RID // leaves: parallel to keys
	next     *node         // leaf chain
}

// hasPayload reports whether k keeps its value in data.
func (k key) hasPayload() bool {
	return types.Kind(k.kind) == types.KindString || types.Kind(k.kind) == types.KindXADT
}

// span returns the offset and length of k's payload in data.
func (k key) span() (int, int) { return int(uint64(k.v) >> 32), int(uint32(k.v)) }

// payloadKey returns a key of the given kind whose payload is
// data[off:off+n].
func payloadKey(kind uint8, off, n int) key {
	return key{v: int64(uint64(off)<<32 | uint64(n)), kind: kind}
}

// value returns key i as a types.Value. A VARCHAR or XADT value is a view
// over data: nothing writes bytes a key refers to, because data only grows
// by appending, and compaction and splits copy payloads to new slices.
func (n *node) value(i int) types.Value {
	k := n.keys[i]
	switch types.Kind(k.kind) {
	case types.KindInt:
		return types.NewInt(k.v)
	case types.KindBool:
		return types.NewBool(k.v != 0)
	case types.KindString:
		return types.NewString(n.str(k))
	case types.KindXADT:
		return types.NewXADT(n.payload(k))
	}
	return types.Null
}

// str returns k's payload as a string view over data.
func (n *node) str(k key) string {
	b := n.payload(k)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// payload returns the bytes of k's payload in data, capped at their end.
func (n *node) payload(k key) []byte {
	off, l := k.span()
	return n.data[off : off+l : off+l]
}

// compare orders probe against key i as types.Compare(probe, n.value(i))
// does. Two integers or two strings compare without building a value.
func (n *node) compare(probe types.Value, i int) int {
	k := n.keys[i]
	switch kind := types.Kind(k.kind); {
	case kind == types.KindInt && probe.Kind() == types.KindInt:
		return cmp.Compare(probe.Int(), k.v)
	case kind == types.KindString && probe.Kind() == types.KindString:
		return strings.Compare(probe.Str(), n.str(k))
	}
	return types.Compare(probe, n.value(i))
}

// encode returns v as a key of n, appending its payload to n.data.
func (n *node) encode(v types.Value) key {
	switch v.Kind() {
	case types.KindInt:
		return key{v: v.Int(), kind: uint8(types.KindInt)}
	case types.KindBool:
		k := key{kind: uint8(types.KindBool)}
		if v.Bool() {
			k.v = 1
		}
		return k
	case types.KindString:
		off := len(n.data)
		n.data = append(n.data, v.Str()...)
		return payloadKey(uint8(types.KindString), off, len(n.data)-off)
	case types.KindXADT:
		off := len(n.data)
		n.data = append(n.data, v.XADT()...)
		return payloadKey(uint8(types.KindXADT), off, len(n.data)-off)
	}
	return key{}
}

// repack copies the payloads n's keys refer to from src into a
// right-sized data slice and points the keys at the copies. src is left
// as it was, so views over it, such as a separator on its way up a
// split, stay valid.
func (n *node) repack(src []byte) {
	size := 0
	for _, k := range n.keys {
		if k.hasPayload() {
			_, l := k.span()
			size += l
		}
	}
	data := make([]byte, 0, size)
	for i, k := range n.keys {
		if k.hasPayload() {
			off, l := k.span()
			n.keys[i] = payloadKey(k.kind, len(data), l)
			data = append(data, src[off:off+l]...)
		}
	}
	n.data, n.garbage = data, 0
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
		root := &node{children: []*node{t.root, newChild}}
		root.keys = append(root.keys, root.encode(splitKey))
		t.root = root
		t.nodes++
	}
	t.size++
}

// insert descends into n; on split it returns the new right sibling and
// its separator key, a view over the data of the split node.
func (t *BTree) insert(n *node, key types.Value, rid storage.RID) (*node, types.Value) {
	if n.leaf {
		// Place duplicates after existing equal keys: descent already
		// picks the rightmost leaf that can hold the key (upperBound), so
		// equal-key postings stay in insertion order and Lookup returns
		// them in the order rows entered the heap.
		i := n.upperBound(key)
		n.keys = insertAt(n.keys, i, n.encode(key))
		n.rids = insertAt(n.rids, i, rid)
		if len(n.keys) <= order {
			return nil, types.Null
		}
		return t.splitLeaf(n)
	}
	ci := n.upperBound(key)
	newChild, splitKey := t.insert(n.children[ci], key, rid)
	if newChild == nil {
		return nil, types.Null
	}
	n.keys = insertAt(n.keys, ci, n.encode(splitKey))
	n.children = insertAt(n.children, ci+1, newChild)
	if len(n.keys) <= order {
		return nil, types.Null
	}
	return t.splitInternal(n)
}

// Both split halves, their keys and their payload bytes are copied into
// right-sized slices: reslicing the left half would keep the whole array
// it grew into, and a node that never grows again would hold twice the
// slots it uses.
func (t *BTree) splitLeaf(n *node) (*node, types.Value) {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: slices.Clone(n.keys[mid:]),
		rids: slices.Clone(n.rids[mid:]),
		next: n.next,
	}
	right.repack(n.data)
	n.keys = slices.Clone(n.keys[:mid])
	n.repack(n.data)
	n.rids = slices.Clone(n.rids[:mid])
	n.next = right
	t.nodes++
	return right, right.value(0)
}

func (t *BTree) splitInternal(n *node) (*node, types.Value) {
	mid := len(n.keys) / 2
	splitKey := n.value(mid)
	right := &node{
		keys:     slices.Clone(n.keys[mid+1:]),
		children: slices.Clone(n.children[mid+1:]),
	}
	right.repack(n.data)
	n.keys = slices.Clone(n.keys[:mid])
	n.repack(n.data)
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
		n = n.children[n.lowerBound(key)]
	}
	start := len(dst)
	for i := n.lowerBound(key); n != nil; n, i = n.next, 0 {
		j := i
		for j < len(n.keys) && n.compare(key, j) == 0 {
			j++
		}
		dst = append(dst, n.rids[i:j]...)
		if j < len(n.keys) {
			break
		}
	}
	if got := dst[start:]; !slices.IsSortedFunc(got, storage.CompareRID) {
		slices.SortFunc(got, storage.CompareRID)
	}
	return dst
}

// Delete removes one entry matching key→rid; it reports whether a match
// was found. Removal is lazy: leaves may empty out but the tree is never
// rebalanced — range scans tolerate empty leaves, and mutation workloads
// here are small relative to loads. The removed key's payload stays in
// the leaf's data until the bytes no key refers to are both more than
// half of data and more than 64 bytes; then the leaf copies its live
// payloads to a right-sized slice.
func (t *BTree) Delete(key types.Value, rid storage.RID) bool {
	n := t.root
	for !n.leaf {
		// Leftmost child that can contain key; duplicates equal to a
		// separator live to its left.
		n = n.children[n.lowerBound(key)]
	}
	i := n.lowerBound(key)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if n.compare(key, i) != 0 {
				return false
			}
			if n.rids[i] == rid {
				if k := n.keys[i]; k.hasPayload() {
					_, l := k.span()
					n.garbage += l
				}
				n.keys = slices.Delete(n.keys, i, i+1)
				n.rids = slices.Delete(n.rids, i, i+1)
				if n.garbage > 64 && 2*n.garbage > len(n.data) {
					n.repack(n.data)
				}
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
// callback returns false to stop early, and owns the keys it is passed. A
// Null lo starts at the smallest key; a Null hi ends at the largest.
func (t *BTree) AscendRange(lo, hi types.Value, fn func(types.Value, storage.RID) bool) {
	n := t.root
	for !n.leaf {
		ci := 0
		if !lo.IsNull() {
			// Descend into the leftmost child that can contain lo: with
			// duplicates, keys equal to a separator live to its left.
			ci = n.lowerBound(lo)
		}
		n = n.children[ci]
	}
	i := 0
	if !lo.IsNull() {
		i = n.lowerBound(lo)
	}
	for n != nil {
		for ; i < len(n.keys); i++ {
			if !hi.IsNull() && n.compare(hi, i) < 0 {
				return
			}
			if !fn(owned(n.value(i)), n.rids[i]) {
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

// owned returns v with its own copy of any VARCHAR or XADT payload, so
// that a caller keeping it does not pin a node's data.
func owned(v types.Value) types.Value {
	switch v.Kind() {
	case types.KindString:
		return types.NewString(strings.Clone(v.Str()))
	case types.KindXADT:
		return types.NewXADT(slices.Clone(v.XADT()))
	}
	return v
}

// lowerBound returns the first index i with keys[i] >= key.
func (n *node) lowerBound(key types.Value) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.compare(key, mid) > 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index i with keys[i] > key; descending into
// children[upperBound] keeps duplicate keys reachable to the left.
func (n *node) upperBound(key types.Value) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.compare(key, mid) >= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
