package catalog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// snapshotMagic identifies a catalog snapshot stream. Format v3 appends
// a per-table statistics block after each heap; Load still accepts v2
// snapshots (statistics are recomputed, the pre-v3 behaviour).
const (
	snapshotMagic   = "XORCAT03"
	snapshotMagicV2 = "XORCAT02"
)

// xadtIndexPrefix marks an entry of the per-table index list as an XADT
// fragment-index definition rather than a B+tree column index. "!" is
// not a legal XML name character, so the prefix can never collide with a
// real column name; snapshots without fragment indexes stay byte-for-
// byte identical to the prior format.
const xadtIndexPrefix = "xadt!"

// Save writes the catalog — schemas, heap data, and index definitions —
// to w. Index trees are not serialized; Load rebuilds them, which is
// cheaper than writing them out and keeps the format simple.
func (c *Catalog) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(len(c.order))); err != nil {
		return err
	}
	for _, name := range c.order {
		t := c.tables[name]
		if err := writeString(bw, name); err != nil {
			return err
		}
		if err := writeUvarint(bw, uint64(len(t.Schema.Columns))); err != nil {
			return err
		}
		for _, col := range t.Schema.Columns {
			if err := writeString(bw, col.Name); err != nil {
				return err
			}
			if err := writeUvarint(bw, uint64(col.Type)); err != nil {
				return err
			}
		}
		if err := writeUvarint(bw, uint64(len(t.Indexes)+len(t.FragIndexes))); err != nil {
			return err
		}
		for _, idx := range t.Indexes {
			if err := writeString(bw, idx.Column); err != nil {
				return err
			}
		}
		// Fragment indexes persist as definitions only, like the B+tree
		// indexes: Load rebuilds the postings from the heap, and WAL
		// replay after a checkpoint keeps them current through Insert.
		for _, fi := range t.FragIndexes {
			if err := writeString(bw, xadtIndexPrefix+fi.Column()); err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := t.Heap.Serialize(w); err != nil {
			return err
		}
		bw.Reset(w)
		// Statistics block: a length-prefixed EncodeStats blob, or length
		// 0 when the table was never analyzed. The snapshot carries the
		// live modification delta so staleness survives a save/load cycle.
		snap := t.StatsSnapshot()
		var enc []byte
		if snap.Valid {
			enc = EncodeStats(&snap)
		}
		if err := writeUvarint(bw, uint64(len(enc))); err != nil {
			return err
		}
		if _, err := bw.Write(enc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a snapshot written by Save into a fresh catalog, rebuilding
// indexes and statistics.
func Load(r io.Reader, pool *storage.BufferPool) (*Catalog, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("catalog: reading magic: %w", err)
	}
	if string(magic) != snapshotMagic && string(magic) != snapshotMagicV2 {
		return nil, fmt.Errorf("catalog: bad snapshot magic %q", magic)
	}
	hasStats := string(magic) == snapshotMagic
	c := New(pool)
	ntables, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ntables; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		ncols, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		cols := make([]Column, ncols)
		for j := range cols {
			cname, err := readString(br)
			if err != nil {
				return nil, err
			}
			kind, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			cols[j] = Column{Name: cname, Type: types.Kind(kind)}
		}
		nidx, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		idxCols := make([]string, nidx)
		for j := range idxCols {
			if idxCols[j], err = readString(br); err != nil {
				return nil, err
			}
		}
		tbl, err := c.CreateTable(name, cols)
		if err != nil {
			return nil, err
		}
		heap, err := storage.DeserializeHeapFile(br, pool)
		if err != nil {
			return nil, fmt.Errorf("catalog: table %s heap: %w", name, err)
		}
		tbl.Heap = heap
		// The column's type decides the kind of index CreateIndexes
		// builds; the prefix must agree with it.
		for j, def := range idxCols {
			col, frag := strings.CutPrefix(def, xadtIndexPrefix)
			if ci := tbl.Schema.ColIndex(col); ci >= 0 && (cols[ci].Type == types.KindXADT) != frag {
				return nil, fmt.Errorf("catalog: table %s: index %q does not fit its column's type", name, def)
			}
			idxCols[j] = col
		}
		if err := c.CreateIndexes(name, idxCols); err != nil {
			return nil, err
		}
		restored := false
		if hasStats {
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("catalog: table %s stats length: %w", name, err)
			}
			if n > 1<<26 {
				return nil, fmt.Errorf("catalog: implausible stats length %d", n)
			}
			if n > 0 {
				blob := make([]byte, n)
				if _, err := io.ReadFull(br, blob); err != nil {
					return nil, fmt.Errorf("catalog: table %s stats: %w", name, err)
				}
				stats, err := DecodeStats(blob)
				if err != nil {
					return nil, fmt.Errorf("catalog: table %s stats: %w", name, err)
				}
				// Restore the staleness clock: the table resumes with the
				// persisted modification delta, so stats that were stale
				// before the save stay stale after the load.
				tbl.mu.Lock()
				tbl.mods = stats.ModsSince
				stats.ModsSince = 0
				stats.modsAt = 0
				tbl.Stats = *stats
				tbl.mu.Unlock()
				restored = true
			}
		}
		if !restored {
			if err := c.RunStats(name); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

func writeUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w io.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("catalog: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
