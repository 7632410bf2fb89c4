package index

import (
	"math/rand"
	"testing"

	"repro/internal/engine/types"
)

// shapeSequence is one fixed insert sequence whose tree shape is pinned.
type shapeSequence struct {
	name          string
	keys          []types.Value
	nodes, height int
}

// shapeSequences returns three 50k-key insert sequences: ascending ints,
// seeded random ints, and random two-letter strings (676 distinct, so
// heavy with duplicates).
func shapeSequences() []shapeSequence {
	const n = 50000
	asc := make([]types.Value, n)
	for i := range asc {
		asc[i] = types.NewInt(int64(i))
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]types.Value, n)
	for i := range random {
		random[i] = types.NewInt(rng.Int63())
	}
	rng = rand.New(rand.NewSource(1))
	strs := make([]types.Value, n)
	for i := range strs {
		strs[i] = types.NewString(string([]byte{byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26))}))
	}
	return []shapeSequence{
		{"ascending ints", asc, 794, 3},
		{"random ints", random, 566, 3},
		{"two-letter strings", strs, 595, 3},
	}
}

func buildTree(keys []types.Value) *BTree {
	tr := New()
	for i, k := range keys {
		tr.Insert(k, rid(i))
	}
	return tr
}

// TestBTreeShapePinned pins where and when nodes split. NodeCount drives
// SizeBytes, which every reported index size and stored-bytes figure
// depends on, so a change to node memory layout must leave these counts
// exactly as they are.
func TestBTreeShapePinned(t *testing.T) {
	for _, seq := range shapeSequences() {
		tr := buildTree(seq.keys)
		if tr.NodeCount() != seq.nodes || tr.Height() != seq.height {
			t.Errorf("%s: NodeCount %d, Height %d; want %d, %d",
				seq.name, tr.NodeCount(), tr.Height(), seq.nodes, seq.height)
		}
	}
}
