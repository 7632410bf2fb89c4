package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

func rid(n int) storage.RID { return storage.RID{Page: int32(n / 100), Slot: int32(n % 100)} }

func TestInsertLookupSmall(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		tr.Insert(types.NewInt(int64(i)), rid(i))
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 10; i++ {
		rids := tr.Lookup(types.NewInt(int64(i)))
		if len(rids) != 1 || rids[0] != rid(i) {
			t.Errorf("Lookup(%d) = %v", i, rids)
		}
	}
	if got := tr.Lookup(types.NewInt(99)); len(got) != 0 {
		t.Errorf("Lookup(99) = %v", got)
	}
}

func TestInsertManyRandomOrder(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	perm := rng.Perm(n)
	for _, i := range perm {
		tr.Insert(types.NewInt(int64(i)), rid(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() < 2 {
		t.Errorf("Height = %d, want a real tree", tr.Height())
	}
	// Full scan is sorted and complete.
	var prev types.Value = types.Null
	count := 0
	tr.Ascend(func(k types.Value, _ storage.RID) bool {
		if !prev.IsNull() && types.Compare(prev, k) > 0 {
			t.Fatalf("out of order: %v after %v", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan visited %d, want %d", count, n)
	}
	// Point lookups.
	for i := 0; i < 500; i++ {
		k := rng.Intn(n)
		rids := tr.Lookup(types.NewInt(int64(k)))
		if len(rids) != 1 || rids[0] != rid(k) {
			t.Fatalf("Lookup(%d) = %v", k, rids)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New()
	const dups = 500
	for i := 0; i < dups; i++ {
		tr.Insert(types.NewInt(42), rid(i))
	}
	for i := 0; i < 200; i++ {
		tr.Insert(types.NewInt(int64(i*1000)), rid(10000+i))
	}
	got := tr.Lookup(types.NewInt(42))
	if len(got) != dups+1 { // +1 for 42*0? no: i*1000 == 0,1000,...; 42 not among them
		// 42 is not a multiple of 1000, so exactly dups matches.
		if len(got) != dups {
			t.Fatalf("Lookup(42) returned %d rids, want %d", len(got), dups)
		}
	}
	seen := map[storage.RID]bool{}
	for _, r := range got {
		seen[r] = true
	}
	if len(seen) != dups {
		t.Errorf("duplicate rids collapsed: %d distinct", len(seen))
	}
}

func TestDuplicatesSpanningSplits(t *testing.T) {
	tr := New()
	// Long runs of equal string keys force duplicate runs across leaf
	// splits.
	keys := []string{"alpha", "beta", "gamma"}
	const run = 300
	n := 0
	for _, k := range keys {
		for i := 0; i < run; i++ {
			tr.Insert(types.NewString(k), rid(n))
			n++
		}
	}
	for _, k := range keys {
		if got := len(tr.Lookup(types.NewString(k))); got != run {
			t.Errorf("Lookup(%s) = %d rids, want %d", k, got, run)
		}
	}
}

func TestAscendRange(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(types.NewInt(int64(i)), rid(i))
	}
	var got []int64
	tr.AscendRange(types.NewInt(100), types.NewInt(110), func(k types.Value, _ storage.RID) bool {
		got = append(got, k.Int())
		return true
	})
	if len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Errorf("range [100,110] = %v", got)
	}
	// Early stop.
	count := 0
	tr.AscendRange(types.Null, types.Null, func(types.Value, storage.RID) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
	// Open-ended ranges.
	count = 0
	tr.AscendRange(types.NewInt(990), types.Null, func(types.Value, storage.RID) bool {
		count++
		return true
	})
	if count != 10 {
		t.Errorf("open upper range visited %d, want 10", count)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New()
	words := []string{"speaker", "line", "act", "scene", "play", "title"}
	for i, w := range words {
		tr.Insert(types.NewString(w), rid(i))
	}
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	var got []string
	tr.Ascend(func(k types.Value, _ storage.RID) bool {
		got = append(got, k.Str())
		return true
	})
	for i := range sorted {
		if got[i] != sorted[i] {
			t.Fatalf("order = %v, want %v", got, sorted)
		}
	}
}

func TestSizeAccounting(t *testing.T) {
	tr := New()
	if tr.NodeCount() != 1 || tr.SizeBytes() != storage.PageSize {
		t.Errorf("empty tree: nodes=%d size=%d", tr.NodeCount(), tr.SizeBytes())
	}
	for i := 0; i < 50000; i++ {
		tr.Insert(types.NewInt(int64(i)), rid(i))
	}
	if tr.NodeCount() < 50000/order {
		t.Errorf("NodeCount = %d, implausibly small", tr.NodeCount())
	}
	if tr.SizeBytes() != int64(tr.NodeCount())*storage.PageSize {
		t.Error("SizeBytes disagrees with NodeCount")
	}
}

func TestLookupMatchesLinearScanProperty(t *testing.T) {
	f := func(keys []int16, probe int16) bool {
		tr := New()
		want := 0
		for i, k := range keys {
			tr.Insert(types.NewInt(int64(k)), rid(i))
			if k == probe {
				want++
			}
		}
		return len(tr.Lookup(types.NewInt(int64(probe)))) == want
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// slack returns the total key-slice capacity over all nodes divided by
// the keys they hold, and the total data capacity divided by the payload
// bytes those keys refer to.
func slack(tr *BTree) (keySlack, dataSlack float64) {
	slots, keys, capacity, payload := 0, 0, 0, 0
	var walk func(n *node)
	walk = func(n *node) {
		slots += cap(n.keys)
		keys += len(n.keys)
		capacity += cap(n.data)
		for _, k := range n.keys {
			if k.hasPayload() {
				_, l := k.span()
				payload += l
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	return float64(slots) / float64(keys), float64(capacity) / float64(max(payload, 1))
}

// TestSplitHalvesRightSized holds split nodes to the key slots and the
// payload bytes they use. Reslicing the left half instead keeps the
// arrays it grew into: after ascending inserts, 2.2 slots per key, and
// after the two-letter strings, 2.5 data bytes per payload byte.
func TestSplitHalvesRightSized(t *testing.T) {
	seqs := shapeSequences()
	for _, tc := range []struct {
		seq                 shapeSequence
		keyBound, dataBound float64
	}{
		{seqs[0], 1.25, 0},
		{seqs[1], 1.52, 0},
		{seqs[2], 1.52, 1.6},
	} {
		keys, data := slack(buildTree(tc.seq.keys))
		if keys > tc.keyBound {
			t.Errorf("%s: %.2f key slots per key, want at most %.2f", tc.seq.name, keys, tc.keyBound)
		}
		if tc.dataBound > 0 && data > tc.dataBound {
			t.Errorf("%s: %.2f data bytes per payload byte, want at most %.2f", tc.seq.name, data, tc.dataBound)
		}
	}
}

// TestDeleteChurnBoundsLeafData deletes and reinserts distinct string
// keys in one leaf and holds the leaf's payload bytes to at most twice
// the live payload plus 64: Delete leaves a removed key's bytes in data,
// so without compaction a churned leaf would grow without bound.
func TestDeleteChurnBoundsLeafData(t *testing.T) {
	tr := New()
	const live = 50
	keyOf := func(i int) types.Value { return types.NewString(fmt.Sprintf("churn-key-%06d", i)) }
	for i := 0; i < live; i++ {
		tr.Insert(keyOf(i), rid(i))
	}
	if !tr.root.leaf {
		t.Fatal("setup: keys do not fit one leaf")
	}
	for i := live; i < live+10000; i++ {
		if !tr.Delete(keyOf(i-live), rid(i-live)) {
			t.Fatalf("Delete(%v) found nothing", keyOf(i-live))
		}
		tr.Insert(keyOf(i), rid(i))
		n, payload := tr.root, 0
		for j := range n.keys {
			payload += len(n.value(j).Str())
		}
		if len(n.data) > 2*payload+64 {
			t.Fatalf("cycle %d: leaf data %d bytes for %d live payload bytes", i-live, len(n.data), payload)
		}
	}
	for i := 10000; i < live+10000; i++ {
		if got := tr.Lookup(keyOf(i)); len(got) != 1 || got[0] != rid(i) {
			t.Fatalf("Lookup(%v) = %v after churn", keyOf(i), got)
		}
	}
}

// TestNodeKeysHoldNoPointers checks that the arrays holding keys and
// their payloads contain no pointers, so the garbage collector never
// traces index keys.
func TestNodeKeysHoldNoPointers(t *testing.T) {
	nt := reflect.TypeOf(node{})
	for _, name := range []string{"keys", "data"} {
		f, ok := nt.FieldByName(name)
		if !ok {
			t.Fatalf("node has no field %s", name)
		}
		if f.Type.Kind() != reflect.Slice || hasPointers(f.Type.Elem()) {
			t.Errorf("node.%s is %v; want a slice of pointer-free elements", name, f.Type)
		}
	}
	if !hasPointers(reflect.TypeOf(types.Value{})) {
		t.Error("hasPointers misses the string in types.Value")
	}
}

// hasPointers reports whether a value of type typ holds any pointer the
// garbage collector must trace.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	default:
		return false
	}
}
