package index

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// Build leaves a tenth of every node free, as DB2 does with its default
// PCTFREE 10 when it creates an index from sorted keys: a node is closed
// at fillKeys keys, or earlier once its keys, payloads and RIDs or child
// pointers would pass fillBytes, so every built node fits the page
// SizeBytes charges for it.
const (
	fillKeys  = order * 9 / 10
	fillBytes = storage.PageSize * 9 / 10
)

// In-memory sizes Build counts against fillBytes.
const (
	keyBytes   = int(unsafe.Sizeof(key{}))
	ridBytes   = int(unsafe.Sizeof(storage.RID{}))
	childBytes = int(unsafe.Sizeof((*node)(nil)))
)

// Entry is one key→RID pair of a tree.
type Entry struct {
	Key types.Value
	RID storage.RID
}

// CompareEntries orders entries the way Build takes them: by key as the
// tree orders keys, then by RID.
func CompareEntries(a, b Entry) int {
	if c := compareKeys(a.Key, b.Key); c != 0 {
		return c
	}
	return storage.CompareRID(a.RID, b.RID)
}

// compareKeys is types.Compare with two integers or two strings compared
// directly.
func compareKeys(a, b types.Value) int {
	switch {
	case a.Kind() == types.KindInt && b.Kind() == types.KindInt:
		return cmp.Compare(a.Int(), b.Int())
	case a.Kind() == types.KindString && b.Kind() == types.KindString:
		return strings.Compare(a.Str(), b.Str())
	}
	return types.Compare(a, b)
}

// payloadLen returns the number of bytes v's key keeps in a node's data.
func payloadLen(v types.Value) int {
	switch v.Kind() {
	case types.KindString:
		return len(v.Str())
	case types.KindXADT:
		return len(v.XADT())
	}
	return 0
}

// Build returns a tree holding keys[i]→rids[i] for every i. The entries
// must be sorted by CompareEntries; Build checks that as it packs them
// and returns an error, never a partial tree, when they are not. It
// fills leaves left to right and chains them, then builds each internal
// level from the first keys of the level below, so equal keys sit in RID
// order, as they do after Inserts in heap-scan order. Insert and Delete
// maintain the tree from then on.
func Build(keys []types.Value, rids []storage.RID) (*BTree, error) {
	if len(keys) != len(rids) {
		return nil, fmt.Errorf("index: build from %d keys and %d RIDs", len(keys), len(rids))
	}
	if len(keys) == 0 {
		return New(), nil
	}
	var level []*node
	var mins []types.Value // the smallest key under each node of level
	var prev *node
	for s := 0; s < len(keys); {
		e, size, payload := s, 0, 0
		for ; e < len(keys) && e-s < fillKeys; e++ {
			p := payloadLen(keys[e])
			if e > s && size+keyBytes+ridBytes+p > fillBytes {
				break
			}
			if e > 0 {
				if c := compareKeys(keys[e-1], keys[e]); c > 0 || c == 0 && storage.CompareRID(rids[e-1], rids[e]) > 0 {
					return nil, fmt.Errorf("index: build input out of order at entry %d", e)
				}
			}
			size += keyBytes + ridBytes + p
			payload += p
		}
		n := &node{leaf: true, keys: make([]key, e-s), rids: slices.Clone(rids[s:e]), data: make([]byte, 0, payload)}
		for i, v := range keys[s:e] {
			n.keys[i] = n.encode(v)
		}
		if prev != nil {
			prev.next = n
		}
		prev = n
		level = append(level, n)
		mins = append(mins, n.value(0))
		s = e
	}
	t := &BTree{size: len(keys), nodes: len(level)}
	for len(level) > 1 {
		var up []*node
		var upMins []types.Value
		for s := 0; s < len(level); {
			// A node takes at least two children, so every level is
			// smaller than the one below.
			e, size, payload := s+1, childBytes, 0
			for ; e < len(level) && e-s-1 < fillKeys; e++ {
				p := payloadLen(mins[e])
				if e > s+1 && size+keyBytes+childBytes+p > fillBytes {
					break
				}
				size += keyBytes + childBytes + p
				payload += p
			}
			n := &node{keys: make([]key, e-s-1), children: slices.Clone(level[s:e]), data: make([]byte, 0, payload)}
			for i, v := range mins[s+1 : e] {
				n.keys[i] = n.encode(v)
			}
			up = append(up, n)
			upMins = append(upMins, mins[s])
			s = e
		}
		t.nodes += len(up)
		level, mins = up, upMins
	}
	t.root = level[0]
	return t, nil
}
