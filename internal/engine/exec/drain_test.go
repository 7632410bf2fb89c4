package exec

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/engine/expr"
	"repro/internal/engine/types"
)

// repeatRow yields the same row n times, allocating nothing per row, so
// that what Drain allocates is all a test measures.
type repeatRow struct {
	row  []types.Value
	n, i int
}

func (r *repeatRow) Schema() *expr.RowSchema { return expr.NewRowSchema() }
func (r *repeatRow) Open() error             { r.i = 0; return nil }
func (r *repeatRow) Close() error            { return nil }
func (r *repeatRow) Next() ([]types.Value, error) {
	if r.i == r.n {
		return nil, nil
	}
	r.i++
	return r.row, nil
}

// TestDrainAllocatesAboutTwiceTheResult bounds what Drain allocates to
// collect a result: its chunks and one exact-size copy, about twice the
// final slice, where growing the result by append cost about five
// times. 140,678 rows is Hybrid QS1's result at the benchmark's scale.
func TestDrainAllocatesAboutTwiceTheResult(t *testing.T) {
	for _, n := range []int{0, 1, 9, 1000, 140678} {
		op := &repeatRow{row: []types.Value{types.NewInt(1)}, n: n}
		// The least of a few runs: other goroutines of the test binary
		// may allocate during one.
		got := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rows, err := Drain(op)
			runtime.ReadMemStats(&after)
			if err != nil || len(rows) != n || cap(rows) != n {
				t.Fatalf("Drain of %d rows: len %d cap %d, %v", n, len(rows), cap(rows), err)
			}
			if n == 0 && rows != nil {
				t.Fatal("Drain of no rows is not nil")
			}
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		final := uint64(n) * 24 // one slice header per row
		if limit := 2*final + final/10 + 4096; got > limit {
			t.Errorf("Drain of %d rows allocated %d bytes, want <= %d (final slice %d)", n, got, limit, final)
		}
	}
}
