package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Serialize writes the heap file's pages and overflow blobs to w in a
// stable binary format readable by DeserializeHeapFile.
func (h *HeapFile) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := writeUvarint(bw, uint64(len(h.pages))); err != nil {
		return err
	}
	for _, p := range h.pages {
		if _, err := bw.Write(p.data[:]); err != nil {
			return err
		}
	}
	if err := writeUvarint(bw, uint64(len(h.overflow))); err != nil {
		return err
	}
	for _, blob := range h.overflow {
		if err := writeUvarint(bw, uint64(len(blob))); err != nil {
			return err
		}
		if _, err := bw.Write(blob); err != nil {
			return err
		}
	}
	// Free-page list: mutation replay positions rows by the same placement
	// rules that produced them, so the open list must survive a snapshot
	// round-trip exactly.
	if err := writeUvarint(bw, uint64(len(h.open))); err != nil {
		return err
	}
	for _, pg := range h.open {
		if err := writeUvarint(bw, uint64(pg)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DeserializeHeapFile reads a heap file written by Serialize. Row counts
// and dead bytes are recomputed from the page images.
func DeserializeHeapFile(r io.Reader, pool *BufferPool) (*HeapFile, error) {
	br := asByteReader(r)
	npages, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("storage: reading page count: %w", err)
	}
	h := NewHeapFile(pool)
	for i := uint64(0); i < npages; i++ {
		p := newPage()
		if _, err := io.ReadFull(br, p.data[:]); err != nil {
			return nil, fmt.Errorf("storage: reading page %d: %w", i, err)
		}
		if err := p.validate(); err != nil {
			return nil, fmt.Errorf("storage: page %d: %w", i, err)
		}
		h.pages = append(h.pages, p)
		h.dead = append(h.dead, 0)
		h.addDead(len(h.pages)-1, p.deadBytes())
		h.rows += p.liveSlots()
	}
	nover, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("storage: reading overflow count: %w", err)
	}
	for i := uint64(0); i < nover; i++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("storage: reading overflow blob %d length: %w", i, err)
		}
		if n > 1<<31 {
			return nil, fmt.Errorf("storage: overflow blob %d: implausible size %d", i, n)
		}
		blob, err := readBlob(br, int(n))
		if err != nil {
			return nil, fmt.Errorf("storage: reading overflow blob %d: %w", i, err)
		}
		h.overflow = append(h.overflow, blob)
		// Freed overflow entries serialize as zero-length blobs; live
		// oversized records are always longer than a page, so emptiness
		// is unambiguous. Appending in directory order keeps ovFree
		// sorted ascending, matching the in-memory free discipline.
		if n == 0 {
			h.overflow[len(h.overflow)-1] = nil
			h.ovFree = append(h.ovFree, int(len(h.overflow)-1))
		}
	}
	nopen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("storage: reading open-page list: %w", err)
	}
	for i := uint64(0); i < nopen; i++ {
		pg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if pg >= npages {
			return nil, errors.New("storage: open page out of range")
		}
		h.open = append(h.open, int32(pg))
	}
	h.publish()
	return h, nil
}

// blobChunk bounds how far a blob's buffer runs ahead of the bytes read
// into it.
const blobChunk = 1 << 20

// readBlob reads an n-byte blob a chunk at a time, so a corrupt length
// costs memory only as far as bytes actually arrive. Blobs up to one
// chunk, which is all of them in practice, get an exactly sized buffer.
func readBlob(r io.Reader, n int) ([]byte, error) {
	blob := make([]byte, 0, min(n, blobChunk))
	for len(blob) < n {
		k := min(n-len(blob), blobChunk)
		blob = slices.Grow(blob, k)
		if _, err := io.ReadFull(r, blob[len(blob):len(blob)+k]); err != nil {
			return nil, err
		}
		blob = blob[:len(blob)+k]
	}
	return blob, nil
}

func writeUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

// asByteReader adapts r for binary.ReadUvarint without double-buffering
// bufio readers.
func asByteReader(r io.Reader) interface {
	io.Reader
	io.ByteReader
} {
	if br, ok := r.(interface {
		io.Reader
		io.ByteReader
	}); ok {
		return br
	}
	return bufio.NewReader(r)
}
