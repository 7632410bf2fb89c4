package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// sortedRIDs returns rids sorted page-major, slot-minor: the heap order
// Lookup promises.
func sortedRIDs(rids []storage.RID) []storage.RID {
	out := slices.Clone(rids)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Page != out[j].Page {
			return out[i].Page < out[j].Page
		}
		return out[i].Slot < out[j].Slot
	})
	return out
}

// ascendRIDs collects the RIDs AscendRange visits for key, in tree order.
func ascendRIDs(tr *BTree, key types.Value) []storage.RID {
	var out []storage.RID
	tr.AscendRange(key, key, func(_ types.Value, rid storage.RID) bool {
		out = append(out, rid)
		return true
	})
	return out
}

// TestLookupNullMatchesOnlyNull holds a Null probe to the entries stored
// under Null; AscendRange reads a Null bound as open, so a probe built on
// it returns every entry.
func TestLookupNullMatchesOnlyNull(t *testing.T) {
	tr := New()
	for i := 0; i < 300; i++ {
		tr.Insert(types.NewInt(int64(i%7)), rid(i))
	}
	nulls := []storage.RID{rid(1000), rid(1001), rid(1002)}
	for _, r := range nulls {
		tr.Insert(types.Null, r)
	}
	if got := tr.Lookup(types.Null); !slices.Equal(got, nulls) {
		t.Fatalf("Lookup(NULL) = %d rids %v, want %v", len(got), got, nulls)
	}
	if got := tr.Lookup(types.NewInt(3)); len(got) != 43 {
		t.Fatalf("Lookup(3) = %d rids, want 43", len(got))
	}
}

// TestLookupMatchesRangeOracle compares every probe with the sorted RIDs
// AscendRange visits, over seeded trees with duplicate runs across leaf
// splits, lazily deleted entries and duplicates reinserted at RIDs below
// their siblings', whose tree order is out of heap order.
func TestLookupMatchesRangeOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		type pair struct {
			key types.Value
			rid storage.RID
		}
		var live []pair
		keyOf := func(k int) types.Value {
			if seed%2 == 0 {
				return types.NewString(fmt.Sprintf("k%03d", k))
			}
			return types.NewInt(int64(k))
		}
		const distinct = 40
		next := 1000
		for i := 0; i < 4000; i++ {
			p := pair{keyOf(rng.Intn(distinct)), rid(next)}
			next++
			tr.Insert(p.key, p.rid)
			live = append(live, p)
		}
		for i := 0; i < 1500; i++ {
			j := rng.Intn(len(live))
			if !tr.Delete(live[j].key, live[j].rid) {
				t.Fatalf("seed %d: Delete(%v, %v) found nothing", seed, live[j].key, live[j].rid)
			}
			live = append(live[:j], live[j+1:]...)
		}
		// Reinsert below every sibling: the new entry lands after its
		// equal keys in the tree, so only the sort puts it first.
		for i := 0; i < 20; i++ {
			tr.Insert(keyOf(rng.Intn(distinct)), rid(999-i))
		}
		unsorted := 0
		for k := -1; k <= distinct; k++ {
			key := keyOf(k)
			raw := ascendRIDs(tr, key)
			want := sortedRIDs(raw)
			if !slices.Equal(raw, want) {
				unsorted++
			}
			if got := tr.Lookup(key); !slices.Equal(got, want) {
				t.Fatalf("seed %d: Lookup(%v) = %v, want %v", seed, key, got, want)
			}
		}
		if unsorted == 0 {
			t.Fatalf("seed %d: no key stored its RIDs out of heap order; the sort is untested", seed)
		}
	}
}

// TestLookupKeepsPrefix checks that Lookup appends after dst's contents
// and sorts only what it appended.
func TestLookupKeepsPrefix(t *testing.T) {
	tr := New()
	for i := 0; i < 500; i++ {
		tr.Insert(types.NewInt(int64(i%5)), rid(500-i))
	}
	prefix := []storage.RID{rid(9999), rid(9998)}
	dst := make([]storage.RID, len(prefix), 4)
	copy(dst, prefix)
	got := tr.Lookup(types.NewInt(2), dst...)
	if !slices.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("prefix became %v, want %v", got[:len(prefix)], prefix)
	}
	if want := sortedRIDs(ascendRIDs(tr, types.NewInt(2))); !slices.Equal(got[len(prefix):], want) {
		t.Fatalf("appended %v, want %v", got[len(prefix):], want)
	}
}

// TestLookupAllocatesNothing checks that a probe into a buffer with room
// allocates nothing, on INTEGER and VARCHAR keys stored in and out of
// heap order and on absent keys.
func TestLookupAllocatesNothing(t *testing.T) {
	ints, strs := New(), New()
	for i := 0; i < 5000; i++ {
		ints.Insert(types.NewInt(int64(i%50)), rid(i+100))
		strs.Insert(types.NewString(fmt.Sprintf("speaker-%02d", i%50)), rid(i+100))
	}
	// Below their siblings: sorted on probe.
	ints.Insert(types.NewInt(7), rid(1))
	strs.Insert(types.NewString("speaker-07"), rid(1))
	buf := make([]storage.RID, 0, 256)
	for _, tc := range []struct {
		tr  *BTree
		key types.Value
	}{
		{ints, types.NewInt(3)},
		{ints, types.NewInt(7)},
		{ints, types.NewInt(99)},
		{strs, types.NewString("speaker-03")},
		{strs, types.NewString("speaker-07")},
		{strs, types.NewString("speaker-99")},
		{strs, types.NewInt(3)},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			buf = tc.tr.Lookup(tc.key, buf[:0]...)
		})
		if allocs != 0 {
			t.Errorf("Lookup(%v) into a buffer with room: %.1f allocs, want 0", tc.key, allocs)
		}
	}
}

// BenchmarkBTreeLookup probes a 50k-entry tree of INTEGER keys and one of
// VARCHAR keys into a reused buffer.
func BenchmarkBTreeLookup(b *testing.B) {
	const n, distinct = 50000, 5000
	for _, bc := range []struct {
		name  string
		keyOf func(int) types.Value
	}{
		{"int", func(i int) types.Value { return types.NewInt(int64(i)) }},
		{"varchar", func(i int) types.Value { return types.NewString(fmt.Sprintf("PERSONA-%05d", i)) }},
	} {
		tr := New()
		for i := 0; i < n; i++ {
			tr.Insert(bc.keyOf(i%distinct), rid(i))
		}
		probes := make([]types.Value, distinct)
		for i := range probes {
			probes[i] = bc.keyOf(i * 7919 % distinct)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var buf []storage.RID
			for i := 0; i < b.N; i++ {
				buf = tr.Lookup(probes[i%len(probes)], buf[:0]...)
			}
		})
	}
}

// FuzzBTreeLookup drives random insert and delete sequences over int,
// string, long string, XADT and Null keys (the empty string among the
// strings, distinct from Null) and after each step holds Lookup of every
// key to a model of sorted RID multisets, and Ascend to exactly the
// model's entries in key order. Each op is three bytes: the op (low bit:
// insert or delete; the rest: run length), the key, and a RID page. Only
// the first 256 ops run: every step checks the whole tree, so longer
// inputs cost quadratic time.
func FuzzBTreeLookup(f *testing.F) {
	f.Add([]byte{0xfe, 1, 9, 0xfe, 1, 3, 0x3e, 9, 1, 1, 1, 0, 0x20, 16, 4})
	f.Add([]byte{0xfe, 0, 200, 0xfe, 0, 100, 0xfe, 0, 50, 0xfe, 0, 1, 0xfe, 0, 0, 3, 0, 7, 0x40, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]types.Value, 0, 22)
		for k := 0; k < 8; k++ {
			keys = append(keys, types.NewInt(int64(k)))
		}
		for k := 0; k < 8; k++ {
			keys = append(keys, types.NewString(fmt.Sprintf("k%d", k)))
		}
		keys = append(keys, types.Null, types.NewString(""), types.NewXADT([]byte("k1")))
		for k := 0; k < 3; k++ {
			keys = append(keys, types.NewString(strings.Repeat("long", 20)+fmt.Sprint(k)))
		}
		data = data[:min(len(data), 3*256)]
		tr := New()
		model := map[types.Value][]storage.RID{}
		size := 0
		for ; len(data) >= 3; data = data[3:] {
			op, key, page := data[0], keys[int(data[1])%len(keys)], int32(data[2])
			if op&1 == 0 {
				for s := int32(0); s <= int32(op>>1)%32; s++ {
					r := storage.RID{Page: page, Slot: s}
					tr.Insert(key, r)
					model[key] = append(model[key], r)
					size++
				}
			} else if rids := model[key]; len(rids) > 0 {
				j := int(page) % len(rids)
				if !tr.Delete(key, rids[j]) {
					t.Fatalf("Delete(%v, %v) found nothing", key, rids[j])
				}
				model[key] = append(rids[:j], rids[j+1:]...)
				size--
			} else if tr.Delete(key, storage.RID{Page: page}) {
				t.Fatalf("Delete(%v) removed an entry the model lacks", key)
			}
			if tr.Len() != size {
				t.Fatalf("Len = %d, want %d", tr.Len(), size)
			}
			for _, k := range keys {
				if got, want := tr.Lookup(k), sortedRIDs(model[k]); !slices.Equal(got, want) {
					t.Fatalf("Lookup(%v) = %v, want %v", k, got, want)
				}
			}
			checkAscend(t, tr, model)
		}
	})
}

// checkAscend holds a full Ascend to the model: keys in types.Compare
// order, and under each key exactly the model's RIDs.
func checkAscend(t *testing.T, tr *BTree, model map[types.Value][]storage.RID) {
	t.Helper()
	seen := map[types.Value][]storage.RID{}
	var prev types.Value
	first := true
	tr.Ascend(func(k types.Value, r storage.RID) bool {
		if !first && types.Compare(prev, k) > 0 {
			t.Fatalf("Ascend visited %v after %v", k, prev)
		}
		prev, first = k, false
		seen[k] = append(seen[k], r)
		return true
	})
	for k, rids := range model {
		if got, want := sortedRIDs(seen[k]), sortedRIDs(rids); !slices.Equal(got, want) {
			t.Fatalf("Ascend visited %v under %v, want %v", got, k, want)
		}
		delete(seen, k)
	}
	for k, rids := range seen {
		t.Fatalf("Ascend visited %v under %v, which the model lacks", rids, k)
	}
}
