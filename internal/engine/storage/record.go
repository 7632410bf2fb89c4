// Package storage implements the physical layer of the engine: a
// self-describing record codec, slotted 8 KiB heap pages with overflow
// chains for records larger than a page (XADT fragments routinely are),
// heap files, and an LRU buffer-pool accountant. Database and index sizes
// reported in the experiments come from this package's page accounting.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/engine/types"
)

// Record format tags.
const (
	tagInline   = 0x01
	tagOverflow = 0x02
)

// Value kind tags inside a record.
const (
	vNull   = 0
	vInt    = 1
	vString = 2
	vXADT   = 3
	vBool   = 4
)

// EncodeRecord serializes a row into the self-describing record format.
func EncodeRecord(row []types.Value) []byte {
	size := 1 + binary.MaxVarintLen32
	for _, v := range row {
		size += v.Size()
	}
	buf := make([]byte, 0, size)
	buf = append(buf, tagInline)
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		switch v.Kind() {
		case types.KindNull:
			buf = append(buf, vNull)
		case types.KindInt:
			buf = append(buf, vInt)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
		case types.KindString:
			buf = append(buf, vString)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Str())))
			buf = append(buf, v.Str()...)
		case types.KindXADT:
			x := v.XADT() // builds a reference's bytes once
			buf = append(buf, vXADT)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
			buf = append(buf, x...)
		case types.KindBool:
			buf = append(buf, vBool)
			if v.Bool() {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// DecodeRecord deserializes a record produced by EncodeRecord.
func DecodeRecord(buf []byte) ([]types.Value, error) {
	ncols, pos, err := recordHeader(buf)
	if err != nil {
		return nil, err
	}
	row := make([]types.Value, ncols)
	if err := decodeRow(buf, pos, ncols, nil, row); err != nil {
		return nil, err
	}
	return row, nil
}

// recordHeader validates a record's tag and column count and returns the
// count and the offset of the first value.
func recordHeader(buf []byte) (ncols, pos int, err error) {
	if len(buf) == 0 || buf[0] != tagInline {
		return 0, 0, errors.New("storage: not an inline record")
	}
	n64, n := binary.Uvarint(buf[1:])
	if n <= 0 {
		return 0, 0, errors.New("storage: corrupt record header")
	}
	// Every value occupies at least one byte, so a count beyond the
	// buffer is damage — reject before anyone sizes a row by it.
	if n64 > uint64(len(buf)) {
		return 0, 0, errors.New("storage: implausible record column count")
	}
	return int(n64), 1 + n, nil
}

// DecodeRecordInto decodes the columns cols of a record produced by
// EncodeRecord into out: out[k] receives column cols[k]. cols must be
// ascending and name columns the record has; nil names every column, and
// then len(out) must equal the record's column count. Every value is
// bounds-checked whether it is named or not, so a damaged record fails
// the same way under any column list; unnamed strings and XADT payloads
// are stepped over without being copied.
func DecodeRecordInto(buf []byte, cols []int, out []types.Value) error {
	ncols, pos, err := recordHeader(buf)
	if err != nil {
		return err
	}
	if err := checkColumns(ncols, cols, len(out)); err != nil {
		return err
	}
	return decodeRow(buf, pos, ncols, cols, out)
}

// DecodeRecordCols is DecodeRecordInto with column arrays for a
// destination, the batch form: column cols[k] lands in dst[k][row].
func DecodeRecordCols(buf []byte, cols []int, dst [][]types.Value, row int) error {
	ncols, pos, err := recordHeader(buf)
	if err != nil {
		return err
	}
	if err := checkColumns(ncols, cols, len(dst)); err != nil {
		return err
	}
	return decodeValues(buf, pos, ncols, cols, dst, row)
}

// checkColumns rejects a destination that cannot take the columns cols
// of a record with ncols columns.
func checkColumns(ncols int, cols []int, n int) error {
	if cols == nil && ncols != n {
		return fmt.Errorf("storage: record has %d columns, caller expects %d", ncols, n)
	}
	if cols != nil && len(cols) != n {
		return fmt.Errorf("storage: %d columns named, %d destinations", len(cols), n)
	}
	return nil
}

// decodeRow runs the record loop into one row, viewing out[k] as a
// one-row column; up to 16 columns the view lives on the stack.
func decodeRow(buf []byte, pos, ncols int, cols []int, out []types.Value) error {
	var stack [16][]types.Value
	dst := stack[:0]
	if len(out) > len(stack) {
		dst = make([][]types.Value, 0, len(out))
	}
	for k := range out {
		dst = append(dst, out[k:k+1])
	}
	return decodeValues(buf, pos, ncols, cols, dst, 0)
}

// decodeValues is the record loop: it walks the ncols values starting at
// pos and stores the k-th one cols names (all when nil) in dst[k][row].
func decodeValues(buf []byte, pos, ncols int, cols []int, dst [][]types.Value, row int) error {
	k := 0 // next entry of cols
	for j := 0; j < ncols; j++ {
		o := j // destination of column j; -1 when it is not named
		if cols != nil {
			o = -1
			if k < len(cols) && cols[k] == j {
				o = k
				k++
			}
		}
		if pos >= len(buf) {
			return errors.New("storage: truncated record")
		}
		kind := buf[pos]
		pos++
		switch kind {
		case vNull:
			if o >= 0 {
				dst[o][row] = types.Null
			}
		case vInt:
			if pos+8 > len(buf) {
				return errors.New("storage: truncated int")
			}
			if o >= 0 {
				dst[o][row] = types.NewInt(int64(binary.LittleEndian.Uint64(buf[pos:])))
			}
			pos += 8
		case vString, vXADT:
			if pos+4 > len(buf) {
				return errors.New("storage: truncated length")
			}
			ln := int(binary.LittleEndian.Uint32(buf[pos:]))
			pos += 4
			if ln > len(buf)-pos {
				return errors.New("storage: truncated payload")
			}
			payload := buf[pos : pos+ln]
			switch {
			case o < 0:
			case kind == vString:
				dst[o][row] = types.NewString(string(payload))
			default:
				x := make([]byte, len(payload))
				copy(x, payload)
				dst[o][row] = types.NewXADT(x)
			}
			pos += ln
		case vBool:
			if pos >= len(buf) {
				return errors.New("storage: truncated bool")
			}
			if o >= 0 {
				dst[o][row] = types.NewBool(buf[pos] != 0)
			}
			pos++
		default:
			return fmt.Errorf("storage: unknown value tag %d", kind)
		}
	}
	if k < len(cols) {
		return fmt.Errorf("storage: column %d is not in the record's %d ascending columns", cols[k], ncols)
	}
	return nil
}
