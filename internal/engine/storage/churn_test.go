package storage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine/types"
)

// heapRun drives heaps and a map model with one op stream and holds them
// to each other after every op. Each op is four bytes: the kind, then
// two bytes picking a victim or a record size, then the size class. The
// live set hovers around a hundred rows: kind 3 inserts below that and
// deletes above it.
type heapRun struct {
	t  testing.TB
	hs []*HeapFile // the heap under test, then its round-tripped twins
	// model maps each live RID to its encoded record; live lists the
	// RIDs in a deterministic order for picking victims.
	model map[RID][]byte
	live  []RID
	seq   int64 // rows built so far
	op    int   // ops applied so far
	// liveBytes sums the live records' page footprints; maxRec is the
	// largest in-page record placed; peak the largest in-page footprint
	// (live records plus slot directories) seen.
	liveBytes, maxRec, peak int
}

func newHeapRun(t testing.TB) *heapRun {
	return &heapRun{t: t, hs: []*HeapFile{NewHeapFile(nil)}, model: map[RID][]byte{}}
}

// row builds the next row, with a payload of n bytes.
func (r *heapRun) row(n int) []types.Value {
	r.seq++
	fill := strings.Repeat(string(rune('a'+r.seq%26)), n)
	return []types.Value{types.NewInt(r.seq), types.NewString(fill)}
}

// recordSize decodes a payload size from two bytes and a class byte:
// mostly tiny to medium records, one in sixty-four oversized.
func recordSize(hi, lo, class byte) int {
	n := int(hi)<<8 | int(lo)
	switch class % 4 {
	case 0:
		return n % 48
	case 1:
		return n % 400
	case 2:
		return n % 2000
	}
	if class&0x3c == 0 {
		return MaxInlineRecord + n%3000
	}
	return n % 1000
}

// inPage is the page footprint of a record: itself, or at most the
// largest overflow stub.
func inPage(rec []byte) int {
	if len(rec) > MaxInlineRecord {
		return 1 + binary.MaxVarintLen64
	}
	return len(rec)
}

// step applies one op to every heap and the model.
func (r *heapRun) step(kind, hi, lo, class byte) {
	r.t.Helper()
	r.op++
	k := kind % 4
	if k == 3 {
		k = 0
		if len(r.live) >= 96 {
			k = 1
		}
	}
	if len(r.live) == 0 {
		k = 0
	}
	victim := (int(hi)<<8 | int(lo)) % max(len(r.live), 1)
	switch k {
	case 0:
		row := r.row(recordSize(hi, lo, class))
		rid := r.hs[0].Insert(row)
		for _, h := range r.hs[1:] {
			if got := h.Insert(row); got != rid {
				r.t.Fatalf("op %d: insert placed at %v, its twin at %v", r.op, rid, got)
			}
		}
		r.place(rid, row)
		r.live = append(r.live, rid)
	case 1:
		rid := r.live[victim]
		for _, h := range r.hs {
			if err := h.Delete(rid); err != nil {
				r.t.Fatalf("op %d: delete %v: %v", r.op, rid, err)
			}
		}
		r.remove(rid)
		r.live[victim] = r.live[len(r.live)-1]
		r.live = r.live[:len(r.live)-1]
	case 2:
		rid := r.live[victim]
		row := r.row(recordSize(lo, hi, class>>2))
		var moved RID
		for i, h := range r.hs {
			got, err := h.Update(rid, row)
			if err != nil {
				r.t.Fatalf("op %d: update %v: %v", r.op, rid, err)
			}
			if i == 0 {
				moved = got
			} else if got != moved {
				r.t.Fatalf("op %d: update moved %v to %v, its twin to %v", r.op, rid, moved, got)
			}
		}
		r.remove(rid)
		r.place(moved, row)
		r.live[victim] = moved
	}
	r.check()
}

func (r *heapRun) place(rid RID, row []types.Value) {
	if _, dup := r.model[rid]; dup {
		r.t.Fatalf("op %d: placed at %v, which holds a live row", r.op, rid)
	}
	rec := EncodeRecord(row)
	r.model[rid] = rec
	r.liveBytes += inPage(rec)
	r.maxRec = max(r.maxRec, inPage(rec))
}

func (r *heapRun) remove(rid RID) {
	r.liveBytes -= inPage(r.model[rid])
	delete(r.model, rid)
}

// check holds every heap to the model: each live RID reads back its
// row, the row count matches, the dead-byte tallies match the page
// images, and the page count stays under the compaction bound. A page is
// appended only when no page, compacted or not, fits the record, so each
// existing page's live records and slot directory then fill all but
// maxRec bytes of it; pages never shrink, so the count stays within one
// page of the peak footprint over that share of a page.
func (r *heapRun) check() {
	r.t.Helper()
	for _, h := range r.hs {
		if h.Rows() != len(r.model) {
			r.t.Fatalf("op %d: heap holds %d rows, model %d", r.op, h.Rows(), len(r.model))
		}
		for _, rid := range r.live {
			got, err := h.fetch(rid)
			if err != nil || !bytes.Equal(got, r.model[rid]) {
				r.t.Fatalf("op %d: row at %v reads back wrong (%v)", r.op, rid, err)
			}
		}
		footprint, dead := r.liveBytes, 0
		for pg, p := range h.pages {
			if h.dead[pg] != p.deadBytes() {
				r.t.Fatalf("op %d: page %d tallies %d dead bytes, its image %d", r.op, pg, h.dead[pg], p.deadBytes())
			}
			dead += h.dead[pg]
			footprint += slotSize * (p.nslots() + 1)
		}
		if h.deadSum != dead {
			r.t.Fatalf("op %d: heap tallies %d dead bytes, its pages %d", r.op, h.deadSum, dead)
		}
		r.peak = max(r.peak, footprint)
		if bound := 1 + r.peak/(PageSize-pageHeaderSize-r.maxRec); len(h.pages) > bound {
			r.t.Fatalf("op %d: %d pages, bound %d (peak footprint %d B, largest record %d B)",
				r.op, len(h.pages), bound, r.peak, r.maxRec)
		}
	}
}

// serialized returns a heap's snapshot image.
func serialized(t testing.TB, h *HeapFile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := h.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runHeapOps replays ops, four bytes each. Halfway through, the heap
// round-trips through Serialize and DeserializeHeapFile and the rest
// replays on both: placement depends only on page images, so every RID
// and the final images must agree.
func runHeapOps(t testing.TB, ops []byte) {
	r := newHeapRun(t)
	n := len(ops) / 4
	for i := 0; i < n; i++ {
		if i == n/2 {
			img := serialized(t, r.hs[0])
			twin, err := DeserializeHeapFile(bytes.NewReader(img), nil)
			if err != nil {
				t.Fatal(err)
			}
			r.hs = append(r.hs, twin)
			r.check()
		}
		o := ops[4*i : 4*i+4]
		r.step(o[0], o[1], o[2], o[3])
	}
	if len(r.hs) == 2 && !bytes.Equal(serialized(t, r.hs[0]), serialized(t, r.hs[1])) {
		t.Fatal("the heap and its round-tripped twin serialize differently after the same ops")
	}
}

// TestHeapChurnModel runs ten thousand seeded inserts, deletes and
// updates of mixed sizes, oversized records included.
func TestHeapChurnModel(t *testing.T) {
	const nops = 10000
	ops := make([]byte, 4*nops)
	rand.New(rand.NewSource(1)).Read(ops)
	runHeapOps(t, ops)
}

// FuzzHeapOps drives the churn model from fuzz bytes. Only the first
// 512 ops run: every op checks every live row, so longer inputs cost
// quadratic time.
func FuzzHeapOps(f *testing.F) {
	seed := make([]byte, 4*400)
	rand.New(rand.NewSource(2)).Read(seed)
	f.Add(seed)
	f.Add([]byte{0, 0, 10, 3, 0, 0, 0, 3, 2, 0, 0, 2, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runHeapOps(t, ops[:min(len(ops), 4*512)])
	})
}

// TestHeapInsertOnlyFillsFrontToBack holds a heap that only takes
// inserts to the plain front-to-back fill: each record goes to the last
// page, or a fresh one when it does not fit, and oversized records leave
// a stub naming the next overflow entry. Such a heap has no dead bytes,
// so compaction never runs and the images match byte for byte.
func TestHeapInsertOnlyFillsFrontToBack(t *testing.T) {
	r := newHeapRun(t)
	rng := rand.New(rand.NewSource(3))
	var want []*page
	overflow := 0
	for i := 0; i < 3000; i++ {
		b := make([]byte, 3)
		rng.Read(b)
		row := r.row(recordSize(b[0], b[1], b[2]))
		r.hs[0].Insert(row)
		rec := EncodeRecord(row)
		if len(rec) > MaxInlineRecord {
			rec = binary.AppendUvarint([]byte{tagOverflow}, uint64(overflow))
			overflow++
		}
		if len(want) == 0 || len(rec) > want[len(want)-1].freeSpace() {
			want = append(want, newPage())
		}
		want[len(want)-1].insert(rec)
	}
	h := r.hs[0]
	if len(h.pages) != len(want) || len(h.overflow) != overflow {
		t.Fatalf("%d pages and %d overflow entries, front-to-back fill gives %d and %d", len(h.pages), len(h.overflow), len(want), overflow)
	}
	for i := range want {
		if h.pages[i].data != want[i].data {
			t.Fatalf("page %d differs from the front-to-back fill", i)
		}
	}
}
