package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// PageSize is the fixed page size; the paper's DB2 configuration used 8 KiB
// pages.
const PageSize = 8192

const (
	pageHeaderSize = 4 // nslots u16 | freeStart u16
	slotSize       = 4 // offset u16 | length u16
)

// page is a slotted heap page. Records grow from the header forward; the
// slot directory grows from the end backward.
type page struct {
	data [PageSize]byte
}

func newPage() *page {
	p := &page{}
	p.setFreeStart(pageHeaderSize)
	return p
}

func (p *page) nslots() int     { return int(binary.LittleEndian.Uint16(p.data[0:2])) }
func (p *page) setNSlots(n int) { binary.LittleEndian.PutUint16(p.data[0:2], uint16(n)) }
func (p *page) freeStart() int  { return int(binary.LittleEndian.Uint16(p.data[2:4])) }
func (p *page) setFreeStart(n int) {
	binary.LittleEndian.PutUint16(p.data[2:4], uint16(n))
}

func (p *page) slotPos(i int) int { return PageSize - (i+1)*slotSize }

func (p *page) slot(i int) (off, ln int) {
	pos := p.slotPos(i)
	return int(binary.LittleEndian.Uint16(p.data[pos : pos+2])),
		int(binary.LittleEndian.Uint16(p.data[pos+2 : pos+4]))
}

func (p *page) setSlot(i, off, ln int) {
	pos := p.slotPos(i)
	binary.LittleEndian.PutUint16(p.data[pos:pos+2], uint16(off))
	binary.LittleEndian.PutUint16(p.data[pos+2:pos+4], uint16(ln))
}

// freeSpace returns the bytes available for one more record plus its slot.
func (p *page) freeSpace() int {
	return PageSize - p.freeStart() - (p.nslots()+1)*slotSize
}

// insert stores a record and returns its slot number, or false if the page
// lacks room.
func (p *page) insert(rec []byte) (int, bool) {
	if len(rec) > p.freeSpace() {
		return 0, false
	}
	off := p.freeStart()
	copy(p.data[off:], rec)
	slot := p.nslots()
	p.setSlot(slot, off, len(rec))
	p.setNSlots(slot + 1)
	p.setFreeStart(off + len(rec))
	return slot, true
}

// read returns the record bytes in the given slot.
func (p *page) read(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.nslots() {
		return nil, errors.New("storage: slot out of range")
	}
	off, ln := p.slot(slot)
	if ln == 0 {
		return nil, errors.New("storage: slot is deleted")
	}
	return p.data[off : off+ln], nil
}

// slotLive reports whether slot i holds a live record. Deleted slots keep
// their directory entry (so later slot numbers — and thus RIDs — stay
// stable) but have their length zeroed; live records are never empty (a
// record is at least a tag byte plus a column count).
func (p *page) slotLive(i int) bool {
	_, ln := p.slot(i)
	return ln > 0
}

// kill tombstones slot i. The record bytes stay in place and are
// reclaimed only when the whole page empties and resets.
func (p *page) kill(i int) {
	off, _ := p.slot(i)
	p.setSlot(i, off, 0)
}

// liveSlots counts the live records on the page.
func (p *page) liveSlots() int {
	n := 0
	for i := 0; i < p.nslots(); i++ {
		if p.slotLive(i) {
			n++
		}
	}
	return n
}

// validate checks a page image read from outside the process: the slot
// directory fits in the page, the free-space start lies between the
// header and the directory, and every live slot lies in the record area
// before it. Every page this package writes passes; reading a page that
// fails would index outside its image.
func (p *page) validate() error {
	n := p.nslots()
	dir := PageSize - n*slotSize
	if dir < pageHeaderSize {
		return fmt.Errorf("slot count %d does not fit in the page", n)
	}
	free := p.freeStart()
	if free < pageHeaderSize || free > dir {
		return fmt.Errorf("free-space start %d outside [%d, %d]", free, pageHeaderSize, dir)
	}
	for i := 0; i < n; i++ {
		off, ln := p.slot(i)
		if ln > 0 && (off < pageHeaderSize || off+ln > free) {
			return fmt.Errorf("slot %d at [%d, %d) outside the record area [%d, %d)", i, off, off+ln, pageHeaderSize, free)
		}
	}
	return nil
}

// shrinkSlot rewrites slot i in place with a shorter record. The caller
// guarantees len(rec) fits the slot's current extent.
func (p *page) shrinkSlot(i int, rec []byte) {
	off, _ := p.slot(i)
	copy(p.data[off:], rec)
	p.setSlot(i, off, len(rec))
}

// reset returns a fully-dead page to factory-fresh state so inserts can
// reuse it. Zeroing the whole image keeps reset pages byte-identical no
// matter what history emptied them, which snapshot comparisons rely on.
func (p *page) reset() {
	p.data = [PageSize]byte{}
	p.setFreeStart(pageHeaderSize)
}

// MaxInlineRecord is the largest record that fits in a fresh page; larger
// records spill into overflow storage (and, under the WAL, are logged as
// overflow-blob frames).
const MaxInlineRecord = PageSize - pageHeaderSize - slotSize
