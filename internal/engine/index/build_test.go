package index

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// entriesOf collects the entries AscendRange visits between lo and hi, in
// tree order.
func entriesOf(tr *BTree, lo, hi types.Value) []Entry {
	var out []Entry
	tr.AscendRange(lo, hi, func(k types.Value, r storage.RID) bool {
		out = append(out, Entry{k, r})
		return true
	})
	return out
}

// mustBuild sorts es by CompareEntries and builds a tree from them.
func mustBuild(t testing.TB, es []Entry) *BTree {
	t.Helper()
	es = slices.Clone(es)
	slices.SortFunc(es, CompareEntries)
	keys := make([]types.Value, len(es))
	rids := make([]storage.RID, len(es))
	for i, e := range es {
		keys[i], rids[i] = e.Key, e.RID
	}
	tr, err := Build(keys, rids)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// insertAll inserts es one by one into a new tree.
func insertAll(es []Entry) *BTree {
	tr := New()
	for _, e := range es {
		tr.Insert(e.Key, e.RID)
	}
	return tr
}

// sameTrees holds two trees to the same Len, the same full Ascend (equal
// keys in the same RID order included), the same Lookup of every probe
// and the same AscendRange between random bounds drawn from probes and
// Null.
func sameTrees(t *testing.T, label string, got, want *BTree, probes []types.Value, rng *rand.Rand) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, want %d", label, got.Len(), want.Len())
	}
	if g, w := entriesOf(got, types.Null, types.Null), entriesOf(want, types.Null, types.Null); !slices.Equal(g, w) {
		t.Fatalf("%s: Ascend visits %d entries, want %d, or visits them in another order", label, len(g), len(w))
	}
	for _, k := range probes {
		if g, w := got.Lookup(k), want.Lookup(k); !slices.Equal(g, w) {
			t.Fatalf("%s: Lookup(%v) = %v, want %v", label, k, g, w)
		}
	}
	bound := func() types.Value {
		if rng.Intn(8) == 0 {
			return types.Null
		}
		return probes[rng.Intn(len(probes))]
	}
	for range 50 {
		lo, hi := bound(), bound()
		if g, w := entriesOf(got, lo, hi), entriesOf(want, lo, hi); !slices.Equal(g, w) {
			t.Fatalf("%s: AscendRange(%v, %v) visits %d entries, want %d", label, lo, hi, len(g), len(w))
		}
	}
}

// mixedKey draws a key: spread integers, one heavily duplicated integer,
// short strings, strings long enough that the byte limit closes nodes,
// XADT payloads and Null.
func mixedKey(rng *rand.Rand) types.Value {
	switch r := rng.Intn(20); {
	case r < 8:
		return types.NewInt(int64(rng.Intn(2000)))
	case r < 12:
		return types.NewInt(7)
	case r < 16:
		return types.NewString(fmt.Sprintf("s%04d", rng.Intn(500)))
	case r < 18:
		return types.NewString(strings.Repeat("x", 300) + fmt.Sprint(rng.Intn(50)))
	case r < 19:
		return types.NewXADT([]byte(fmt.Sprintf("frag%d", rng.Intn(20))))
	}
	return types.Null
}

// TestBuildMatchesInsert builds one multiset of entries bottom-up and by
// Inserts in RID order, and holds the two trees to the same answers, then
// applies one random Insert/Delete sequence to both and checks again.
func TestBuildMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 20000
	es := make([]Entry, n)
	probeSet := map[types.Value]bool{}
	for i := range es {
		es[i] = Entry{mixedKey(rng), rid(i)}
		probeSet[es[i].Key] = true
	}
	probeSet[types.NewInt(-1)] = true
	probeSet[types.NewString("zzz")] = true
	var probes []types.Value
	for k := range probeSet {
		probes = append(probes, k)
	}
	slices.SortFunc(probes, types.Compare)

	built, inserted := mustBuild(t, es), insertAll(es)
	sameTrees(t, "after build", built, inserted, probes, rng)

	live := slices.Clone(es)
	for j := range 5000 {
		if rng.Intn(2) == 0 || len(live) == 0 {
			e := Entry{mixedKey(rng), rid(n + j)}
			built.Insert(e.Key, e.RID)
			inserted.Insert(e.Key, e.RID)
			live = append(live, e)
			continue
		}
		i := rng.Intn(len(live))
		e := live[i]
		if !built.Delete(e.Key, e.RID) || !inserted.Delete(e.Key, e.RID) {
			t.Fatalf("Delete(%v, %v) found nothing", e.Key, e.RID)
		}
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	sameTrees(t, "after inserts and deletes", built, inserted, probes, rng)
}

// nodeFill walks tr and returns the most keys in one node and the most
// bytes one node's keys, payloads and RIDs or child pointers take.
func nodeFill(tr *BTree) (keys, bytes int) {
	var walk func(n *node)
	walk = func(n *node) {
		size := len(n.keys)*keyBytes + len(n.rids)*ridBytes + len(n.children)*childBytes
		for _, k := range n.keys {
			if k.hasPayload() {
				_, l := k.span()
				size += l
			}
		}
		keys, bytes = max(keys, len(n.keys)), max(bytes, size)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	return keys, bytes
}

// TestBuildShapePinned pins the node count and height Build gives around
// the node limits and at scale. SizeBytes charges one page per node, so
// these counts are the index sizes every built index reports.
func TestBuildShapePinned(t *testing.T) {
	ints := func(n int) []Entry {
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{types.NewInt(int64(i)), rid(i)}
		}
		return es
	}
	long := make([]Entry, 1000)
	for i := range long {
		long[i] = Entry{types.NewString(fmt.Sprintf("%0200d", i)), rid(i)}
	}
	for _, tc := range []struct {
		name          string
		es            []Entry
		nodes, height int
	}{
		{"empty", nil, 1, 1},
		{"one key", ints(1), 1, 1},
		{"one full leaf", ints(fillKeys), 1, 1},
		{"one key past a leaf", ints(fillKeys + 1), 3, 2},
		{"100k ints", ints(100000), 879, 3},
		// 200-byte keys: 32 per leaf and 31 separators in the root.
		{"long keys", long, 33, 2},
	} {
		tr := mustBuild(t, tc.es)
		if tr.NodeCount() != tc.nodes || tr.Height() != tc.height || tr.Len() != len(tc.es) {
			t.Errorf("%s: NodeCount %d, Height %d, Len %d; want %d, %d, %d",
				tc.name, tr.NodeCount(), tr.Height(), tr.Len(), tc.nodes, tc.height, len(tc.es))
		}
		if keys, bytes := nodeFill(tr); keys > fillKeys || bytes > fillBytes {
			t.Errorf("%s: a node holds %d keys in %d bytes; want at most %d keys and %d bytes",
				tc.name, keys, bytes, fillKeys, fillBytes)
		}
	}
}

// TestBuildRejectsUnsortedInput holds Build to an error, never a panic or
// a tree, for keys out of order, equal keys with RIDs out of order, and
// key and RID lists of different lengths.
func TestBuildRejectsUnsortedInput(t *testing.T) {
	rids := make([]storage.RID, 300)
	for i := range rids {
		rids[i] = rid(i)
	}
	ascending := make([]types.Value, 300)
	for i := range ascending {
		ascending[i] = types.NewInt(int64(i))
	}
	swapped := slices.Clone(ascending)
	swapped[250], swapped[251] = swapped[251], swapped[250]
	equal := make([]types.Value, 300)
	for i := range equal {
		equal[i] = types.NewString("k")
	}
	ridsSwapped := slices.Clone(rids)
	ridsSwapped[200], ridsSwapped[201] = ridsSwapped[201], ridsSwapped[200]
	for _, tc := range []struct {
		name string
		keys []types.Value
		rids []storage.RID
	}{
		{"keys out of order", swapped, rids},
		{"RIDs of equal keys out of order", equal, ridsSwapped},
		{"string before int", append([]types.Value{types.NewString("a")}, ascending[1:]...), rids},
		{"fewer RIDs than keys", ascending, rids[:299]},
	} {
		if tr, err := Build(tc.keys, tc.rids); err == nil || tr != nil {
			t.Errorf("%s: Build = %v, %v; want no tree and an error", tc.name, tr, err)
		}
	}
}

// BenchmarkBTreeBuild fills a tree with the same 100k sorted INTEGER
// entries bottom-up and by one Insert each.
func BenchmarkBTreeBuild(b *testing.B) {
	const n = 100000
	keys := make([]types.Value, n)
	rids := make([]storage.RID, n)
	for i := range keys {
		keys[i], rids[i] = types.NewInt(int64(i/3)), rid(i)
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := Build(keys, rids); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			tr := New()
			for i, k := range keys {
				tr.Insert(k, rids[i])
			}
		}
	})
}

// FuzzBTreeBuild builds a tree bottom-up from the entries of the input's
// first ops and a twin by Inserts of the same entries in RID order, then
// applies the remaining ops to both; after the build and after every op
// the two must agree on Len, a full Ascend and Lookup of every key. Ops
// are three bytes as in FuzzBTreeLookup: the op (low bit: insert or
// delete; the rest: run length or slot), the key, and a RID page. The
// first input byte says how many ops feed the build; at most 256 ops run.
func FuzzBTreeBuild(f *testing.F) {
	f.Add([]byte{4, 0xfe, 1, 9, 0xfe, 1, 3, 0x3e, 9, 1, 0x20, 16, 4, 1, 1, 0, 0x3e, 2, 9})
	f.Add([]byte{3, 0xfe, 0, 200, 0xfe, 0, 100, 0xfe, 0, 50, 0xfe, 0, 1, 3, 0, 100, 0x40, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		keys := make([]types.Value, 0, 22)
		for k := 0; k < 8; k++ {
			keys = append(keys, types.NewInt(int64(k)))
		}
		for k := 0; k < 8; k++ {
			keys = append(keys, types.NewString(fmt.Sprintf("k%d", k)))
		}
		keys = append(keys, types.Null, types.NewString(""), types.NewXADT([]byte("k1")))
		for k := 0; k < 3; k++ {
			keys = append(keys, types.NewString(strings.Repeat("long", 1000)+fmt.Sprint(k)))
		}
		nBuild := int(data[0])
		data = data[1:min(len(data), 1+3*256)]
		var es []Entry
		for ; nBuild > 0 && len(data) >= 3; nBuild, data = nBuild-1, data[3:] {
			op, key, page := data[0], keys[int(data[1])%len(keys)], int32(data[2])
			for s := int32(0); s <= int32(op>>1)%32; s++ {
				es = append(es, Entry{key, storage.RID{Page: page, Slot: s}})
			}
		}
		byRID := slices.Clone(es)
		slices.SortFunc(byRID, func(a, b Entry) int {
			if c := storage.CompareRID(a.RID, b.RID); c != 0 {
				return c
			}
			return types.Compare(a.Key, b.Key)
		})
		built, twin := mustBuild(t, es), insertAll(byRID)
		check := func(step string) {
			if built.Len() != twin.Len() {
				t.Fatalf("%s: Len %d, twin %d", step, built.Len(), twin.Len())
			}
			if g, w := entriesOf(built, types.Null, types.Null), entriesOf(twin, types.Null, types.Null); !slices.Equal(g, w) {
				t.Fatalf("%s: Ascend visits %d entries, twin %d, or visits them in another order", step, len(g), len(w))
			}
			for _, k := range keys {
				if g, w := built.Lookup(k), twin.Lookup(k); !slices.Equal(g, w) {
					t.Fatalf("%s: Lookup(%v) = %v, twin %v", step, k, g, w)
				}
			}
		}
		check("build")
		for i := 0; len(data) >= 3; i, data = i+1, data[3:] {
			op, key, page := data[0], keys[int(data[1])%len(keys)], int32(data[2])
			if op&1 == 0 {
				for s := int32(0); s <= int32(op>>1)%32; s++ {
					r := storage.RID{Page: page, Slot: s}
					built.Insert(key, r)
					twin.Insert(key, r)
				}
			} else {
				r := storage.RID{Page: page, Slot: int32(op>>1) % 32}
				if g, w := built.Delete(key, r), twin.Delete(key, r); g != w {
					t.Fatalf("op %d: Delete(%v, %v) = %v, twin %v", i, key, r, g, w)
				}
			}
			check(fmt.Sprintf("op %d", i))
		}
	})
}
