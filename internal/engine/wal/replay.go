package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// OpKind classifies one logged mutation.
type OpKind byte

// Mutation kinds, in frame-tag order.
const (
	OpInsert OpKind = iota
	OpDelete
	OpUpdate
)

// ScannedOp is one logged row mutation. Which fields are meaningful
// depends on Kind: inserts carry Table/Row/Overflow, deletes Table/RID,
// updates Table/RID/Row.
type ScannedOp struct {
	Kind  OpKind
	Table string
	Row   []types.Value
	// Overflow reports that an inserted row was framed as an overflow
	// blob (its encoded record exceeds the inline page capacity).
	Overflow bool
	// RID addresses the target row of a delete or update.
	RID storage.RID
}

// ScannedBatch is one committed batch of the log.
type ScannedBatch struct {
	// Seq is the batch's commit sequence number.
	Seq uint64
	// Format, when non-nil, is the XADT storage format the batch logged.
	Format *byte
	// Ops are the batch's mutations in log order; replay must apply them
	// in exactly this order to reproduce the logged heap layout.
	Ops []ScannedOp
}

// Tail is the result of scanning a log: the committed batches and the
// position of the end of the last one, where Resume truncates.
type Tail struct {
	Batches []ScannedBatch
	// ValidEnd is the file offset just past the last committed batch
	// (or past the magic when none committed; 0 when even the magic is
	// missing or torn). Everything after it is an uncommitted or torn
	// tail that recovery discards.
	ValidEnd int64
	// LastSeq is the sequence number of the last committed batch, 0 if
	// none.
	LastSeq uint64
	// Torn reports that scanning stopped at a truncated or CRC-corrupt
	// frame (the expected shape of a crash) rather than the clean end of
	// the file.
	Torn bool
}

// CorruptError reports structural damage the scanner cannot attribute to
// a torn tail: a CRC-valid frame whose content violates the format (bad
// record encoding, non-monotonic commit sequence, unknown frame type), or
// a wrong file magic. Callers distinguish it from clean prefix recovery
// with errors.As.
type CorruptError struct {
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log at offset %d: %s", e.Offset, e.Reason)
}

// maxFramePayload bounds a frame payload; anything larger is treated as
// damage. The largest legitimate frame is an overflow blob, which the
// shredder caps well under this.
const maxFramePayload = 1 << 28

// Scan reads the log in dir and returns its committed batches. A missing
// log file yields an empty tail. Scanning never panics on arbitrary
// bytes: damage either terminates the committed prefix (torn tail) or
// surfaces as a *CorruptError.
func Scan(vfs storage.VFS, dir string) (*Tail, error) {
	f, err := vfs.Open(path.Join(dir, FileName))
	if err != nil {
		if storage.IsNotExist(err) {
			return &Tail{}, nil
		}
		return nil, fmt.Errorf("wal: opening log: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("wal: reading log: %w", err)
	}
	return ScanBytes(data)
}

// ScanBytes scans an in-memory log image; see Scan.
func ScanBytes(data []byte) (*Tail, error) {
	t := &Tail{}
	if len(data) < len(Magic) {
		// The magic itself was torn; there is nothing to keep.
		t.Torn = len(data) > 0
		return t, nil
	}
	if !bytes.Equal(data[:len(Magic)], []byte(Magic)) {
		return nil, &CorruptError{Offset: 0, Reason: "bad magic"}
	}
	pos := int64(len(Magic))
	t.ValidEnd = pos
	var pending []ScannedOp
	var pendingFormat *byte
	for int(pos) < len(data) {
		frameStart := pos
		typ, payload, next, ok := readFrame(data, pos)
		if !ok {
			t.Torn = true
			return t, nil
		}
		switch typ {
		case frameInsert, frameBlob:
			rec, err := parseInsert(payload, typ == frameBlob)
			if err != nil {
				return nil, &CorruptError{Offset: frameStart, Reason: err.Error()}
			}
			pending = append(pending, rec)
		case frameDelete:
			op, err := parseDelete(payload)
			if err != nil {
				return nil, &CorruptError{Offset: frameStart, Reason: err.Error()}
			}
			pending = append(pending, op)
		case frameUpdate:
			op, err := parseUpdate(payload)
			if err != nil {
				return nil, &CorruptError{Offset: frameStart, Reason: err.Error()}
			}
			pending = append(pending, op)
		case frameFormat:
			if len(payload) != 1 {
				return nil, &CorruptError{Offset: frameStart, Reason: "format frame payload must be 1 byte"}
			}
			b := payload[0]
			pendingFormat = &b
		case frameCommit:
			seq, n := binary.Uvarint(payload)
			if n <= 0 || n != len(payload) {
				return nil, &CorruptError{Offset: frameStart, Reason: "malformed commit sequence"}
			}
			if seq <= t.LastSeq {
				return nil, &CorruptError{Offset: frameStart,
					Reason: fmt.Sprintf("commit sequence %d not after %d", seq, t.LastSeq)}
			}
			t.Batches = append(t.Batches, ScannedBatch{Seq: seq, Format: pendingFormat, Ops: pending})
			t.LastSeq = seq
			pending, pendingFormat = nil, nil
			t.ValidEnd = next
		default:
			return nil, &CorruptError{Offset: frameStart, Reason: fmt.Sprintf("unknown frame type 0x%02x", typ)}
		}
		pos = next
	}
	return t, nil
}

// readFrame decodes the frame at pos; ok is false when the frame is
// truncated or its CRC does not match (a torn tail).
func readFrame(data []byte, pos int64) (typ byte, payload []byte, next int64, ok bool) {
	p := int(pos)
	if p >= len(data) {
		return 0, nil, 0, false
	}
	typ = data[p]
	plen, n := binary.Uvarint(data[p+1:])
	if n <= 0 || plen > maxFramePayload {
		return 0, nil, 0, false
	}
	payloadStart := p + 1 + n
	end := payloadStart + int(plen) + 4
	if end > len(data) || end < payloadStart {
		return 0, nil, 0, false
	}
	body := data[p : payloadStart+int(plen)]
	want := binary.LittleEndian.Uint32(data[payloadStart+int(plen) : end])
	if crc32.ChecksumIEEE(body) != want {
		return 0, nil, 0, false
	}
	return typ, data[payloadStart : payloadStart+int(plen)], int64(end), true
}

// parseTable decodes the leading uvarint-length table name shared by the
// row-addressed payloads, returning the name and the remaining bytes.
func parseTable(payload []byte) (string, []byte, error) {
	tlen, n := binary.Uvarint(payload)
	if n <= 0 || tlen > 1<<16 || int(tlen) > len(payload)-n {
		return "", nil, fmt.Errorf("malformed table name length")
	}
	return string(payload[n : n+int(tlen)]), payload[n+int(tlen):], nil
}

// parseRID decodes a page/slot pair, returning the RID and the remaining
// bytes.
func parseRID(rest []byte) (storage.RID, []byte, error) {
	page, n := binary.Uvarint(rest)
	if n <= 0 || page > 1<<31-1 {
		return storage.RID{}, nil, fmt.Errorf("malformed page number")
	}
	rest = rest[n:]
	slot, n := binary.Uvarint(rest)
	if n <= 0 || slot > 1<<31-1 {
		return storage.RID{}, nil, fmt.Errorf("malformed slot number")
	}
	return storage.RID{Page: int32(page), Slot: int32(slot)}, rest[n:], nil
}

// parseInsert decodes an insert/blob payload and cross-checks the framing
// against the record's inline/overflow size class.
func parseInsert(payload []byte, blob bool) (ScannedOp, error) {
	table, rec, err := parseTable(payload)
	if err != nil {
		return ScannedOp{}, err
	}
	if blob != (len(rec) > storage.MaxInlineRecord) {
		return ScannedOp{}, fmt.Errorf("frame size class does not match record size %d", len(rec))
	}
	row, err := storage.DecodeRecord(rec)
	if err != nil {
		return ScannedOp{}, fmt.Errorf("record does not decode: %v", err)
	}
	return ScannedOp{Kind: OpInsert, Table: table, Row: row, Overflow: blob}, nil
}

// parseDelete decodes a delete payload: table name plus target RID.
func parseDelete(payload []byte) (ScannedOp, error) {
	table, rest, err := parseTable(payload)
	if err != nil {
		return ScannedOp{}, err
	}
	rid, rest, err := parseRID(rest)
	if err != nil {
		return ScannedOp{}, err
	}
	if len(rest) != 0 {
		return ScannedOp{}, fmt.Errorf("trailing bytes after delete payload")
	}
	return ScannedOp{Kind: OpDelete, Table: table, RID: rid}, nil
}

// parseUpdate decodes an update payload: table name, target RID, and the
// row's full new image.
func parseUpdate(payload []byte) (ScannedOp, error) {
	table, rest, err := parseTable(payload)
	if err != nil {
		return ScannedOp{}, err
	}
	rid, rec, err := parseRID(rest)
	if err != nil {
		return ScannedOp{}, err
	}
	row, err := storage.DecodeRecord(rec)
	if err != nil {
		return ScannedOp{}, fmt.Errorf("update record does not decode: %v", err)
	}
	return ScannedOp{Kind: OpUpdate, Table: table, RID: rid, Row: row}, nil
}
