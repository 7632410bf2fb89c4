package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/plan"
	"repro/internal/engine/types"
)

// TestJoinSkipsUnnamedWideColumn joins into a table whose 1 KiB string
// column the query never names. Scans and index probes step over that
// column in the record, so a joined row costs less than the column
// would to copy — by hash join and by index nested loops, serial and
// parallel. Under the race detector, which empties pools at random, only
// the rows and plans are checked.
func TestJoinSkipsUnnamedWideColumn(t *testing.T) {
	const padBytes = 1024
	db := Open(Config{})
	outer, err := db.CreateTable("o", []catalog.Column{
		{Name: "oid", Type: types.KindInt},
		{Name: "ok", Type: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := db.CreateTable("i", []catalog.Column{
		{Name: "iid", Type: types.KindInt},
		{Name: "ik", Type: types.KindInt},
		{Name: "pad", Type: types.KindString},
		{Name: "v", Type: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every row on either side joins exactly one row of the other.
	const n = 2000
	pad := strings.Repeat("p", padBytes)
	for i := 0; i < n; i++ {
		outer.Insert([]types.Value{types.NewInt(int64(i)), types.NewInt(int64(i))})
		inner.Insert([]types.Value{types.NewInt(int64(i)), types.NewInt(int64(i)),
			types.NewString(pad), types.NewInt(int64(-i))})
	}
	if err := db.CreateIndexes("i", []string{"ik"}); err != nil {
		t.Fatal(err)
	}
	if err := db.RunStats(); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT oid, v FROM o, i WHERE ok = ik`
	const wantRows = n
	for _, c := range []struct {
		join plan.JoinAlgorithm
		op   string
	}{
		{"", "IndexLoopJoin"},
		{plan.JoinHash, "Hash"},
	} {
		for _, dop := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/dop%d", c.op, dop), func(t *testing.T) {
				db.SetPlannerOptions(plan.Options{Join: c.join, DOP: dop, MorselPages: 1, CPUs: 4, ForceParallel: dop > 1})
				ex, err := db.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(ex, c.op) || (dop > 1) != strings.Contains(ex, "Gather") {
					t.Fatalf("unexpected plan:\n%s", ex)
				}
				run := func() {
					res, err := db.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Rows) != wantRows {
						t.Fatalf("%d rows, want %d", len(res.Rows), wantRows)
					}
				}
				run()
				const reps = 5
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for r := 0; r < reps; r++ {
					run()
				}
				runtime.ReadMemStats(&after)
				perRow := float64(after.TotalAlloc-before.TotalAlloc) / (reps * wantRows)
				if perRow >= padBytes && !raceEnabled {
					t.Errorf("%.0f bytes allocated per joined row, want fewer than the %d-byte unnamed column", perRow, padBytes)
				}
				t.Logf("%.0f bytes per joined row", perRow)
			})
		}
	}
}
