package storage

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine/types"
)

func TestDecodeRecordCols(t *testing.T) {
	row := []types.Value{
		types.NewInt(42),
		types.NewString("hello"),
		types.Null,
		types.NewXADT([]byte("<a>frag</a>")),
		types.NewBool(true),
	}
	cols := make([][]types.Value, len(row))
	for j := range cols {
		cols[j] = make([]types.Value, 4)
	}
	if err := DecodeRecordCols(EncodeRecord(row), cols, 2); err != nil {
		t.Fatal(err)
	}
	for j := range row {
		if !types.Equal(cols[j][2], row[j]) {
			t.Errorf("column %d = %v, want %v", j, cols[j][2], row[j])
		}
	}
	// Arity mismatch must fail loudly, not silently truncate.
	if err := DecodeRecordCols(EncodeRecord(row), cols[:3], 0); err == nil {
		t.Fatal("arity mismatch not detected")
	}
}

// drainCursor reads a cursor to the end in batches of max rows and
// returns the rows it produced.
func drainCursor(t *testing.T, cur *Cursor, ncols, max int) [][]types.Value {
	t.Helper()
	cols := make([][]types.Value, ncols)
	for j := range cols {
		cols[j] = make([]types.Value, max)
	}
	var rows [][]types.Value
	for {
		k, err := cur.NextBatch(cols, max)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			return rows
		}
		for i := 0; i < k; i++ {
			row := make([]types.Value, ncols)
			for j := range cols {
				row[j] = cols[j][i]
			}
			rows = append(rows, row)
		}
	}
}

// TestCursorNextBatchMatchesNext holds the batch cursor to the next row
// of a row-at-a-time Scan: same rows, same order, overflow rows included.
func TestCursorNextBatchMatchesNext(t *testing.T) {
	h := NewHeapFile(nil)
	const n = 3000
	// Mix in an overflow row so NextBatch exercises stub resolution.
	big := types.NewString(strings.Repeat("x", MaxInlineRecord+10))
	for i := 0; i < n; i++ {
		v := types.NewString(fmt.Sprintf("s%d", i))
		if i == 1234 {
			v = big
		}
		h.Insert([]types.Value{types.NewInt(int64(i)), v})
	}

	var want [][]types.Value
	if err := h.Scan(func(_ RID, row []types.Value) error {
		want = append(want, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Deliberately small batches so page boundaries land mid-batch.
	got := drainCursor(t, h.NewCursor(), 2, 100)
	if len(got) != n || len(want) != n {
		t.Fatalf("batch cursor produced %d rows, Scan %d, want %d", len(got), len(want), n)
	}
	for i := range want {
		for j := range want[i] {
			if !types.Equal(got[i][j], want[i][j]) {
				t.Fatalf("row %d col %d = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestCursorNextBatchTouchAccounting(t *testing.T) {
	bp := NewBufferPool(64)
	h := NewHeapFile(bp)
	for i := 0; i < 2000; i++ {
		h.Insert([]types.Value{types.NewInt(int64(i))})
	}
	drainCursor(t, h.NewCursor(), 1, 512)
	if got, pages := bp.Stats().Total(), int64(h.DataPages()); got != pages {
		t.Fatalf("batch cursor touched %d pages, file has %d data pages", got, pages)
	}
	// Scan accounts the same way: one Touch per data page.
	bp.Reset()
	if err := h.Scan(func(RID, []types.Value) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got, pages := bp.Stats().Total(), int64(h.DataPages()); got != pages {
		t.Fatalf("Scan touched %d pages, file has %d data pages", got, pages)
	}
}
