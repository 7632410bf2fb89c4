package storage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine/types"
)

// RID identifies a record by page number and slot within the page.
type RID struct {
	Page int32
	Slot int32
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// CompareRID orders RIDs as a heap scan visits them: page, then slot.
func CompareRID(a, b RID) int {
	if c := cmp.Compare(a.Page, b.Page); c != 0 {
		return c
	}
	return cmp.Compare(a.Slot, b.Slot)
}

// heapFileIDs hands out unique identities for buffer-pool shard hashing.
var heapFileIDs atomic.Uint64

// HeapFile is a heap of records in slotted pages. Records larger than a
// page spill into dedicated overflow storage, referenced by an in-page
// stub so scan order is preserved. Deletes tombstone their slot (RIDs of
// surviving rows never move); a page whose records are all dead resets
// and joins the open list, where inserts reuse it lowest-page-first
// before the file grows. Updates rewrite in place when the new record
// fits the old slot and otherwise move the row (delete + reinsert).
// Churn that leaves pages partly dead is reclaimed by compaction: when a
// record fits neither an open page nor the last page, the lowest page
// whose live records leave it room is compacted (every slot keeps its
// number, so no RID moves) and joins the open list, before the file
// grows. A heap that never deleted or shrank a record never compacts, so
// insert-only loads fill front to back. Every placement decision is a
// pure function of the operation sequence and the page images, so WAL
// replay, and replay after a snapshot round-trip, reproduce the exact
// same layout.
//
// Concurrency: any number of readers (Get, Scan, cursors) may run in
// parallel — the parallel executor scans one heap from many goroutines.
// Readers take no lock: they load the directory a writer last published,
// so they always observe a consistent prefix and write no shared memory;
// cursors snapshot it once at creation. Mutations take the write lock;
// the engine serializes mutation statements against queries, keeping its
// load-then-query discipline within a statement.
type HeapFile struct {
	mu sync.RWMutex
	id uint64
	// pages and overflow are the writers' directory, guarded by mu; dir
	// publishes them to readers after every append to either. Appends
	// never disturb the elements a published prefix covers.
	pages    []*page
	overflow [][]byte
	dir      atomic.Pointer[directory]
	rows     int
	pool     *BufferPool
	// dead tallies each page's dead bytes (page.deadBytes, kept current
	// by the mutators instead of recounted); deadSum totals them, and
	// while it is zero placement skips the compaction search.
	dead    []int
	deadSum int
	// open lists pages that were emptied by deletes and reset, or
	// compacted, sorted ascending; inserts fill them lowest-first before
	// appending. A page leaves the list when its free space can no longer
	// hold a record.
	open []int32
	// ovFree lists freed overflow directory entries, sorted ascending;
	// oversized inserts reuse the lowest before appending.
	ovFree []int
}

// directory is the page and overflow directory readers load.
type directory struct {
	pages    []*page
	overflow [][]byte
}

// NewHeapFile returns an empty heap file. The buffer pool is optional; if
// present, page reads are accounted against it.
func NewHeapFile(pool *BufferPool) *HeapFile {
	h := &HeapFile{pool: pool, id: heapFileIDs.Add(1)}
	h.publish()
	return h
}

// publish makes the writers' directory the one readers load. Callers hold
// h.mu or own h exclusively.
func (h *HeapFile) publish() {
	h.dir.Store(&directory{pages: h.pages, overflow: h.overflow})
}

// Insert stores a row and returns its RID.
func (h *HeapFile) Insert(row []types.Value) RID {
	rec := EncodeRecord(row)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.insertLocked(rec)
}

// insertLocked places an encoded record: oversized records go to overflow
// (reusing the lowest freed entry first), the in-page record or stub goes
// to the lowest open page that fits it, then the last page, then the
// lowest page compaction makes fit it, then a fresh page. Callers hold
// h.mu.
func (h *HeapFile) insertLocked(rec []byte) RID {
	if len(rec) > MaxInlineRecord {
		idx := h.allocOverflow(rec)
		stub := make([]byte, 1, 1+binary.MaxVarintLen64)
		stub[0] = tagOverflow
		stub = binary.AppendUvarint(stub, uint64(idx))
		rec = stub
	}
	pageNo, ok := h.openFit(len(rec))
	if !ok && len(h.pages) > 0 && !h.fitsLast(rec) {
		pageNo, ok = h.compactFit(len(rec))
	}
	if ok {
		slot, _ := h.pages[pageNo].insert(rec)
		h.pruneOpen(pageNo)
		h.rows++
		return RID{Page: int32(pageNo), Slot: int32(slot)}
	}
	if len(h.pages) == 0 || !h.fitsLast(rec) {
		h.pages = append(h.pages, newPage())
		h.dead = append(h.dead, 0)
		h.publish()
	}
	pageNo = len(h.pages) - 1
	slot, ok := h.pages[pageNo].insert(rec)
	if !ok {
		// A fresh page always fits a stub or inline record by
		// construction.
		panic("storage: record insert failed on fresh page")
	}
	h.rows++
	return RID{Page: int32(pageNo), Slot: int32(slot)}
}

func (h *HeapFile) fitsLast(rec []byte) bool {
	return len(rec) <= h.pages[len(h.pages)-1].freeSpace()
}

// allocOverflow stores an oversized record, reusing the lowest freed
// directory entry so overflow storage stays bounded under churn.
func (h *HeapFile) allocOverflow(rec []byte) int {
	if len(h.ovFree) > 0 {
		idx := h.ovFree[0]
		h.ovFree = h.ovFree[1:]
		h.overflow[idx] = rec
		return idx
	}
	h.overflow = append(h.overflow, rec)
	h.publish()
	return len(h.overflow) - 1
}

// minSlotRecord is the smallest useful record (a tag byte plus a column
// count); an open page with less free space than this can never take
// another insert and leaves the open list.
const minSlotRecord = 2

// openFit returns the lowest open page with room for an n-byte record.
func (h *HeapFile) openFit(n int) (int, bool) {
	for _, pg := range h.open {
		if h.pages[pg].freeSpace() >= n {
			return int(pg), true
		}
	}
	return 0, false
}

// compactFit compacts the lowest page whose live records leave room for
// an n-byte record, adds it to the open list and returns it.
func (h *HeapFile) compactFit(n int) (int, bool) {
	if h.deadSum <= 0 {
		return 0, false
	}
	for pg, p := range h.pages {
		if d := h.dead[pg]; d > 0 && p.freeSpace()+d >= n {
			p.compact()
			h.addDead(pg, -d)
			h.addOpen(pg)
			return pg, true
		}
	}
	return 0, false
}

// addDead adds n to page pg's dead-byte tally.
func (h *HeapFile) addDead(pg, n int) {
	h.dead[pg] += n
	h.deadSum += n
}

// pruneOpen drops pageNo from the open list once it is effectively full.
func (h *HeapFile) pruneOpen(pageNo int) {
	if h.pages[pageNo].freeSpace() >= minSlotRecord {
		return
	}
	for i, pg := range h.open {
		if int(pg) == pageNo {
			h.open = append(h.open[:i], h.open[i+1:]...)
			return
		}
	}
}

// addOpen registers a reset page for reuse, keeping the list sorted.
func (h *HeapFile) addOpen(pageNo int) {
	for i, pg := range h.open {
		if int(pg) == pageNo {
			return
		}
		if int(pg) > pageNo {
			h.open = append(h.open, 0)
			copy(h.open[i+1:], h.open[i:])
			h.open[i] = int32(pageNo)
			return
		}
	}
	h.open = append(h.open, int32(pageNo))
}

// freeOverflowLocked releases an overflow entry, keeping ovFree sorted.
func (h *HeapFile) freeOverflowLocked(idx int) {
	h.overflow[idx] = nil
	for i, v := range h.ovFree {
		if v == idx {
			return
		}
		if v > idx {
			h.ovFree = append(h.ovFree, 0)
			copy(h.ovFree[i+1:], h.ovFree[i:])
			h.ovFree[i] = idx
			return
		}
	}
	h.ovFree = append(h.ovFree, idx)
}

// Delete tombstones the row at rid. A page whose last live record is
// deleted resets to factory state and becomes reusable by inserts; its
// buffer-pool residency is dropped.
func (h *HeapFile) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.deleteLocked(rid)
}

func (h *HeapFile) deleteLocked(rid RID) error {
	if int(rid.Page) >= len(h.pages) {
		return errors.New("storage: page out of range")
	}
	p := h.pages[rid.Page]
	rec, err := p.read(int(rid.Slot))
	if err != nil {
		return err
	}
	if len(rec) > 0 && rec[0] == tagOverflow {
		idx, n := binary.Uvarint(rec[1:])
		if n <= 0 || idx >= uint64(len(h.overflow)) {
			return errors.New("storage: corrupt overflow stub")
		}
		h.freeOverflowLocked(int(idx))
	}
	h.killLocked(rid)
	return nil
}

// killLocked tombstones the live slot at rid. A page whose last live
// record it was resets to factory state and becomes reusable by inserts;
// its buffer-pool residency is dropped.
func (h *HeapFile) killLocked(rid RID) {
	pg := int(rid.Page)
	p := h.pages[pg]
	h.addDead(pg, p.kill(int(rid.Slot)))
	h.rows--
	if p.liveSlots() == 0 {
		h.addDead(pg, -h.dead[pg])
		p.reset()
		h.addOpen(int(rid.Page))
		if h.pool != nil {
			h.pool.Forget(PageID{File: h, Page: int(rid.Page)})
		}
	}
}

// Update replaces the row at rid and returns the row's RID afterwards:
// the same RID when the new record fits in place (including an oversized
// record reusing its overflow entry), or a fresh one when the row had to
// move. Movement follows the exact insert placement rules, so replaying
// the same update sequence reproduces the same layout.
func (h *HeapFile) Update(rid RID, row []types.Value) (RID, error) {
	rec := EncodeRecord(row)
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(rid.Page) >= len(h.pages) {
		return RID{}, errors.New("storage: page out of range")
	}
	p := h.pages[rid.Page]
	cur, err := p.read(int(rid.Slot))
	if err != nil {
		return RID{}, err
	}
	if len(cur) > 0 && cur[0] == tagOverflow {
		idx, n := binary.Uvarint(cur[1:])
		if n <= 0 || idx >= uint64(len(h.overflow)) {
			return RID{}, errors.New("storage: corrupt overflow stub")
		}
		if len(rec) > MaxInlineRecord {
			// Oversized before and after: swap the blob, keep the stub.
			h.overflow[idx] = rec
			return rid, nil
		}
		h.freeOverflowLocked(int(idx))
		if len(rec) <= len(cur) {
			h.addDead(int(rid.Page), p.shrinkSlot(int(rid.Slot), rec))
			return rid, nil
		}
	} else if len(rec) <= MaxInlineRecord && len(rec) <= len(cur) {
		h.addDead(int(rid.Page), p.shrinkSlot(int(rid.Slot), rec))
		return rid, nil
	}
	// The new record does not fit the old slot: move the row.
	h.killLocked(rid)
	return h.insertLocked(rec), nil
}

// FreePages returns the number of open pages (reset or compacted)
// currently awaiting reuse.
func (h *HeapFile) FreePages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.open)
}

// pageSnapshot returns the published page directory. The slice itself is
// never mutated in place (Insert only appends); page contents can change
// under mutation statements, but the engine serializes those against
// queries, so snapshot holders read stable pages.
func (h *HeapFile) pageSnapshot() []*page { return h.dir.Load().pages }

// Get fetches the row at rid.
func (h *HeapFile) Get(rid RID) ([]types.Value, error) {
	rec, err := h.fetch(rid)
	if err != nil {
		return nil, err
	}
	return DecodeRecord(rec)
}

// GetInto decodes the columns cols of the row at rid into out, as
// DecodeRecordInto does: only the named columns are copied out, so a
// caller that needs two columns of a wide row pays for two.
func (h *HeapFile) GetInto(rid RID, cols []int, out []types.Value) error {
	rec, err := h.fetch(rid)
	if err != nil {
		return err
	}
	return DecodeRecordInto(rec, cols, out)
}

// fetch returns the encoded record at rid.
func (h *HeapFile) fetch(rid RID) ([]byte, error) {
	pages := h.pageSnapshot()
	if int(rid.Page) >= len(pages) {
		return nil, errors.New("storage: page out of range")
	}
	if h.pool != nil {
		h.pool.Touch(PageID{File: h, Page: int(rid.Page)})
	}
	rec, err := pages[rid.Page].read(int(rid.Slot))
	if err != nil {
		return nil, err
	}
	return h.resolve(rec)
}

// resolve follows an overflow stub to the record it stands for, counting
// one logical buffer-pool access per overflow page; an inline record is
// returned as is.
func (h *HeapFile) resolve(rec []byte) ([]byte, error) {
	if len(rec) == 0 || rec[0] != tagOverflow {
		return rec, nil
	}
	idx, n := binary.Uvarint(rec[1:])
	overflow := h.dir.Load().overflow
	if n <= 0 || idx >= uint64(len(overflow)) {
		return nil, errors.New("storage: corrupt overflow stub")
	}
	if h.pool != nil {
		// Overflow records occupy their own page run.
		for i := 0; i < pagesFor(len(overflow[idx])); i++ {
			h.pool.Touch(PageID{File: h, Page: -1 - int(idx)*1024 - i})
		}
	}
	return overflow[idx], nil
}

// Scan visits every row in insertion order. The callback's row slice is
// freshly decoded and owned by the callee. Returning an error stops the
// scan and propagates the error.
func (h *HeapFile) Scan(fn func(RID, []types.Value) error) error {
	for pi, p := range h.pageSnapshot() {
		if h.pool != nil {
			h.pool.Touch(PageID{File: h, Page: pi})
		}
		for si := 0; si < p.nslots(); si++ {
			if !p.slotLive(si) {
				continue
			}
			rec, err := p.read(si)
			if err != nil {
				return err
			}
			if rec, err = h.resolve(rec); err != nil {
				return err
			}
			row, err := DecodeRecord(rec)
			if err != nil {
				return err
			}
			if err := fn(RID{Page: int32(pi), Slot: int32(si)}, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rows returns the number of stored rows.
func (h *HeapFile) Rows() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rows
}

// DataPages returns the number of data pages (excluding overflow runs) —
// the page range a full scan covers, which the parallel executor splits
// into morsels.
func (h *HeapFile) DataPages() int { return len(h.pageSnapshot()) }

// Cursor iterates a contiguous page range of the heap file in insertion
// order, a batch of rows per call, for the executor's scans. It works
// over a snapshot of the page directory, so concurrent cursors over the
// same file never interfere.
type Cursor struct {
	h     *HeapFile
	pages []*page // snapshot of the covered range
	base  int     // page number of pages[0]
	i     int     // index into pages
	slot  int
	cols  []int // columns decoded, ascending; nil means all
}

// NewCursor returns a cursor over the whole file, positioned before the
// first row, that decodes every column.
func (h *HeapFile) NewCursor() *Cursor {
	return h.NewRangeCursor(0, h.DataPages(), nil)
}

// NewRangeCursor returns a cursor over pages [lo, hi), clamped to the
// file's current extent — the access path of one morsel of a parallel
// scan. It decodes the columns cols (ascending; nil means every column)
// and steps over the rest.
func (h *HeapFile) NewRangeCursor(lo, hi int, cols []int) *Cursor {
	pages := h.pageSnapshot()
	if lo < 0 {
		lo = 0
	}
	if hi > len(pages) {
		hi = len(pages)
	}
	if lo > hi {
		lo = hi
	}
	return &Cursor{h: h, pages: pages[lo:hi], base: lo, cols: cols}
}

// NextBatch decodes up to max rows into the column arrays cols — the
// column-major access path of heap scans. cols must hold one slice per
// decoded column (every table column unless the cursor was opened with a
// column list), each at least max long; rows land in cols[j][0:n] in
// cursor order. It returns the number of rows decoded; 0 means the page
// range is exhausted. Buffer-pool accounting matches Scan: one Touch per
// page entered.
func (c *Cursor) NextBatch(cols [][]types.Value, max int) (int, error) {
	n := 0
	for n < max && c.i < len(c.pages) {
		p := c.pages[c.i]
		if c.slot >= p.nslots() {
			c.i++
			c.slot = 0
			continue
		}
		if c.slot == 0 && c.h.pool != nil {
			c.h.pool.Touch(PageID{File: c.h, Page: c.base + c.i})
		}
		if !p.slotLive(c.slot) {
			c.slot++
			continue
		}
		rec, err := p.read(c.slot)
		if err != nil {
			return n, err
		}
		if rec, err = c.h.resolve(rec); err != nil {
			return n, err
		}
		if err := DecodeRecordCols(rec, c.cols, cols, n); err != nil {
			return n, err
		}
		c.slot++
		n++
	}
	return n, nil
}

// PageCount returns the number of pages the file occupies, counting
// overflow storage in page units.
func (h *HeapFile) PageCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := len(h.pages)
	for _, o := range h.overflow {
		n += pagesFor(len(o))
	}
	return n
}

// DataBytes returns the storage footprint in bytes (page-granular).
func (h *HeapFile) DataBytes() int64 { return int64(h.PageCount()) * PageSize }

func pagesFor(n int) int { return (n + PageSize - 1) / PageSize }
