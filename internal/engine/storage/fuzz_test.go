package storage

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine/types"
)

// FuzzDecodeRecord holds the column-list decoder, in its row form
// (DecodeRecordInto) and its column form (DecodeRecordCols), to the
// all-columns decoder on arbitrary bytes: none panics; for every
// ascending list of columns the record's header declares, each form
// rejects exactly the records DecodeRecord rejects — damage in a skipped
// or trailing column included — and where all accept, the listed
// columns hold the same values. mask picks the list from the first 64
// columns.
func FuzzDecodeRecord(f *testing.F) {
	big := strings.Repeat("<LINE>overflow</LINE>", MaxInlineRecord/20+1)
	for _, row := range [][]types.Value{
		{},
		{types.Null},
		{types.NewInt(-7), types.NewString("speaker"), types.Null, types.NewXADT([]byte("<a>b</a>")), types.NewBool(true), types.NewBool(false)},
		{types.NewString(""), types.NewXADT([]byte{}), types.NewInt(1 << 62)},
		{types.NewInt(1), types.NewXADT([]byte(big)), types.NewString(big[:100]), types.NewInt(2)},
		{types.NewInt(3), types.NewString("a trailing string")},
		{types.NewInt(4), types.NewXADT([]byte("<a>trailing fragment</a>"))},
	} {
		rec := EncodeRecord(row)
		for _, mask := range []uint64{0, 1, 0b10110, ^uint64(0)} {
			f.Add(rec, mask)
			f.Add(rec[:len(rec)-1], mask)
		}
		damaged := append([]byte(nil), rec...)
		if len(damaged) > 3 {
			damaged[len(damaged)-2] = 9 // unknown tag or bad length near the end
		}
		f.Add(damaged, uint64(1))
	}
	f.Fuzz(func(t *testing.T, buf []byte, mask uint64) {
		row, err := DecodeRecord(buf)
		ncols, _, herr := recordHeader(buf)
		if herr != nil {
			if err == nil {
				t.Fatalf("DecodeRecord accepted a record whose header fails: %v", herr)
			}
			return
		}
		var cols []int
		for j := 0; j < ncols && j < 64; j++ {
			if mask&(1<<j) != 0 {
				cols = append(cols, j)
			}
		}
		if cols == nil {
			cols = []int{}
		}
		out := make([]types.Value, len(cols))
		lerr := DecodeRecordInto(buf, cols, out)
		dst := make([][]types.Value, len(cols))
		for k := range dst {
			dst[k] = make([]types.Value, 2)
		}
		cerr := DecodeRecordCols(buf, cols, dst, 1)
		if (err == nil) != (lerr == nil) || (err == nil) != (cerr == nil) {
			t.Fatalf("DecodeRecord error %v, column list %v: row form error %v, column form error %v", err, cols, lerr, cerr)
		}
		if err != nil {
			return
		}
		if len(row) != ncols {
			t.Fatalf("DecodeRecord returned %d columns, header declares %d", len(row), ncols)
		}
		for k, j := range cols {
			if !reflect.DeepEqual(out[k], row[j]) || !reflect.DeepEqual(dst[k][1], row[j]) {
				t.Fatalf("column %d: row form %v, column form %v, DecodeRecord %v", j, out[k], dst[k][1], row[j])
			}
		}
	})
}
