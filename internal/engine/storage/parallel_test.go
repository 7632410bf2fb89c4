package storage

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine/types"
)

func TestMorselSourceCoversAllPages(t *testing.T) {
	src := NewMorselSource(37, 4)
	if src.Count() != 10 {
		t.Errorf("Count = %d, want 10", src.Count())
	}
	covered := make([]bool, 37)
	for {
		m, ok := src.Next()
		if !ok {
			break
		}
		for p := m.Lo; p < m.Hi; p++ {
			if covered[p] {
				t.Fatalf("page %d handed out twice", p)
			}
			covered[p] = true
		}
	}
	for p, c := range covered {
		if !c {
			t.Fatalf("page %d never handed out", p)
		}
	}
}

func TestMorselSourceConcurrentClaims(t *testing.T) {
	src := NewMorselSource(1000, 1)
	var mu sync.Mutex
	seen := map[int]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m, ok := src.Next()
				if !ok {
					return
				}
				mu.Lock()
				if seen[m.Seq] {
					t.Errorf("morsel %d claimed twice", m.Seq)
				}
				seen[m.Seq] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 1000 {
		t.Errorf("claimed %d morsels, want 1000", len(seen))
	}
}

func TestMorselSourceAbort(t *testing.T) {
	src := NewMorselSource(100, 1)
	if _, ok := src.Next(); !ok {
		t.Fatal("first claim failed")
	}
	src.Abort()
	if _, ok := src.Next(); ok {
		t.Error("claim after Abort succeeded")
	}
}

// TestBufferPoolConcurrentTouch hammers a sharded pool from many
// goroutines; the race detector verifies the sharding, and the counters
// must account for every touch.
func TestBufferPoolConcurrentTouch(t *testing.T) {
	h := NewHeapFile(nil)
	b := NewBufferPool(4096) // > 64 pages ⇒ sharded
	const workers, touches = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < touches; i++ {
				b.Touch(PageID{File: h, Page: (w*31 + i) % 512})
			}
		}(w)
	}
	wg.Wait()
	if got := b.Stats().Total(); got != workers*touches {
		t.Errorf("hits+misses = %d, want %d", got, workers*touches)
	}
	b.Reset()
	if b.Stats().Total() != 0 {
		t.Error("Reset left counters behind")
	}
}

func TestBufferPoolShardedCapacity(t *testing.T) {
	h := NewHeapFile(nil)
	b := NewBufferPool(4096)
	// Touch more distinct pages than capacity; residency must respect it.
	for i := 0; i < 10000; i++ {
		b.Touch(PageID{File: h, Page: i})
	}
	if r := b.Resident(); r > 4096 {
		t.Errorf("resident = %d pages, exceeds capacity 4096", r)
	}
}

func TestRangeCursor(t *testing.T) {
	h := NewHeapFile(nil)
	for i := 0; i < 3000; i++ {
		h.Insert([]types.Value{types.NewInt(int64(i))})
	}
	pages := h.DataPages()
	if pages < 3 {
		t.Fatalf("need ≥3 pages, got %d", pages)
	}
	// Ranged cursors over a partition of the pages must reproduce the
	// full scan exactly, in order.
	var got []int64
	mid := pages / 2
	for _, r := range [][2]int{{0, mid}, {mid, pages}} {
		for _, row := range drainCursor(t, h.NewRangeCursor(r[0], r[1], nil), 1, 256) {
			got = append(got, row[0].Int())
		}
	}
	if len(got) != 3000 {
		t.Fatalf("ranged cursors yielded %d rows, want 3000", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d, out of order", i, v)
		}
	}
	// Out-of-bounds ranges clamp rather than panic.
	if n := len(drainCursor(t, h.NewRangeCursor(-5, pages+100, nil), 1, 256)); n != 3000 {
		t.Errorf("clamped cursor yielded %d rows, want 3000", n)
	}
}

func TestHeapFileConcurrentScans(t *testing.T) {
	pool := NewBufferPool(256)
	h := NewHeapFile(pool)
	for i := 0; i < 2000; i++ {
		h.Insert([]types.Value{types.NewInt(int64(i))})
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			err := h.Scan(func(RID, []types.Value) error { n++; return nil })
			if err != nil || n != 2000 {
				t.Errorf("concurrent scan: %d rows, %v", n, err)
			}
		}()
	}
	wg.Wait()
}

// TestHeapFileReadersWhileAppending runs lock-free readers against a
// writer that opens new pages and overflow entries. Get on rows of the
// pages that were full before the appends, and a cursor opened before
// them, must see exactly those rows. Run it under -race.
func TestHeapFileReadersWhileAppending(t *testing.T) {
	h := NewHeapFile(nil)
	row := func(i int) []types.Value {
		pad := 100
		if i%10 == 0 {
			pad = MaxInlineRecord + 64 // stored in an overflow entry
		}
		return []types.Value{types.NewInt(int64(i)), types.NewString(strings.Repeat("x", pad))}
	}
	const before, after = 2000, 6000
	var rids []RID
	for i := 0; i < before; i++ {
		rids = append(rids, h.Insert(row(i)))
	}
	// Inserts only ever go to the last page or a new one.
	full := h.DataPages() - 1
	var stable [][]types.Value
	for i, r := range rids {
		if int(r.Page) < full {
			stable = append(stable, row(i))
		}
	}
	cur := h.NewRangeCursor(0, full, nil)
	overflowBefore := len(h.overflow)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := before; i < after; i++ {
			h.Insert(row(i))
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := w; i < len(stable); i += 3 {
					got, err := h.Get(rids[i])
					if err != nil || !slices.EqualFunc(got, stable[i], types.Equal) {
						t.Errorf("Get(%v) = %v, %v; want row %d", rids[i], got, err, i)
						return
					}
				}
			}
		}(w)
	}
	got := drainCursor(t, cur, 2, 64)
	wg.Wait()

	if len(got) != len(stable) {
		t.Fatalf("cursor yielded %d rows, want %d", len(got), len(stable))
	}
	for i := range got {
		if !slices.EqualFunc(got[i], stable[i], types.Equal) {
			t.Fatalf("cursor row %d = %v, want %v", i, got[i], stable[i])
		}
	}
	if h.DataPages() <= full+1 || len(h.overflow) <= overflowBefore {
		t.Fatalf("writer opened no page or overflow entry: %d pages, %d overflow entries",
			h.DataPages(), len(h.overflow))
	}
}
