package storage

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine/types"
)

// TestDecodeRecordCols decodes records into column lists: every column,
// a subset that skips strings and XADT payloads, and malformed lists.
func TestDecodeRecordCols(t *testing.T) {
	row := []types.Value{
		types.NewInt(42),
		types.NewString("hello"),
		types.Null,
		types.NewXADT([]byte("<a>frag</a>")),
		types.NewBool(true),
	}
	rec := EncodeRecord(row)
	for _, cols := range [][]int{nil, {}, {0}, {4}, {0, 2, 4}, {1, 3}, {0, 1, 2, 3, 4}} {
		n := len(cols)
		if cols == nil {
			n = len(row)
		}
		out := make([]types.Value, n)
		if err := DecodeRecordInto(rec, cols, out); err != nil {
			t.Fatalf("%v: %v", cols, err)
		}
		for k := range out {
			j := k
			if cols != nil {
				j = cols[k]
			}
			if !types.Equal(out[k], row[j]) || out[k].Kind() != row[j].Kind() {
				t.Errorf("%v: out[%d] = %v, want column %d = %v", cols, k, out[k], j, row[j])
			}
		}
	}
	// Arity mismatches and unusable lists fail loudly, never truncate.
	for _, c := range []struct {
		cols []int
		n    int
	}{
		{nil, 3}, {[]int{0, 1}, 1}, {[]int{5}, 1}, {[]int{2, 1}, 2}, {[]int{1, 1}, 2},
	} {
		if err := DecodeRecordInto(rec, c.cols, make([]types.Value, c.n)); err == nil {
			t.Errorf("cols %v into %d values: no error", c.cols, c.n)
		}
	}
}

// TestCursorDecodesNamedColumns checks that a cursor opened with a column
// list yields exactly those columns of every row, overflow rows included.
func TestCursorDecodesNamedColumns(t *testing.T) {
	h := NewHeapFile(nil)
	big := strings.Repeat("x", 3*PageSize)
	for i := 0; i < 500; i++ {
		s := fmt.Sprintf("row %d", i)
		if i%97 == 0 {
			s = big
		}
		h.Insert([]types.Value{types.NewInt(int64(i)), types.NewString(s), types.NewXADT([]byte(s)), types.NewInt(int64(-i))})
	}
	rows := drainCursor(t, h.NewRangeCursor(0, h.DataPages(), []int{0, 3}), 2, 64)
	if len(rows) != 500 {
		t.Fatalf("%d rows, want 500", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) || r[1].Int() != int64(-i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

// drainCursor reads a cursor to the end in batches of max rows and
// returns the rows it produced.
func drainCursor(t *testing.T, cur *Cursor, ncols, max int) [][]types.Value {
	t.Helper()
	rows, _ := drainCursorRIDs(t, cur, ncols, max)
	return rows
}

// drainCursorRIDs is drainCursor that also returns each row's RID.
func drainCursorRIDs(t *testing.T, cur *Cursor, ncols, max int) ([][]types.Value, []RID) {
	t.Helper()
	cols := make([][]types.Value, ncols)
	for j := range cols {
		cols[j] = make([]types.Value, max)
	}
	cur.RIDs = make([]RID, max)
	var rows [][]types.Value
	var rids []RID
	for {
		k, err := cur.NextBatch(cols, max)
		if err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			return rows, rids
		}
		rids = append(rids, cur.RIDs[:k]...)
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
	var wantRIDs []RID
	if err := h.Scan(func(rid RID, row []types.Value) error {
		want = append(want, row)
		wantRIDs = append(wantRIDs, rid)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Deliberately small batches so page boundaries land mid-batch.
	got, gotRIDs := drainCursorRIDs(t, h.NewCursor(), 2, 100)
	if len(got) != n || len(want) != n {
		t.Fatalf("batch cursor produced %d rows, Scan %d, want %d", len(got), len(want), n)
	}
	if !slices.Equal(gotRIDs, wantRIDs) {
		t.Fatal("batch cursor RIDs differ from Scan's")
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
