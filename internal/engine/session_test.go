package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/plan"
	"repro/internal/engine/types"
)

// pointReadDB opens an MVCC database holding a table of rows rows
// indexed on its key column, the shape of a session's point read.
func pointReadDB(tb testing.TB, rows int) *Database {
	tb.Helper()
	db := Open(Config{MVCC: true, DOP: 1})
	t, err := db.CreateTable("item", []catalog.Column{
		{Name: "id", Type: types.KindInt},
		{Name: "label", Type: types.KindString},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		t.Insert([]types.Value{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("item number %d", i))})
	}
	if err := db.CreateIndexes("item", []string{"id"}); err != nil {
		tb.Fatal(err)
	}
	if err := db.RunStats(); err != nil {
		tb.Fatal(err)
	}
	return db
}

const pointRead = `SELECT label FROM item WHERE id = 4321`

// TestSessionPointReadAllocs holds a session's point read to what it
// touches: it probes the B+tree under its snapshot, so on a 10k-row
// table it allocates a few statements' worth, not a copy of the table.
func TestSessionPointReadAllocs(t *testing.T) {
	db := pointReadDB(t, 10000)
	s, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Rollback()
	read := func() {
		res, err := s.Query(pointRead)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != "item number 4321" {
			t.Fatalf("point read returned %v", res.Rows)
		}
	}
	read()
	const reps = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / reps
	if perRead >= 64<<10 && !raceEnabled {
		t.Errorf("a session point read allocates %d bytes, want under 64 KiB", perRead)
	}
	t.Logf("%d bytes per session point read", perRead)
}

// BenchmarkSessionPointRead measures one indexed point read in a session
// on a 10k-row table.
func BenchmarkSessionPointRead(b *testing.B) {
	db := pointReadDB(b, 10000)
	s, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Rollback()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(pointRead); err != nil {
			b.Fatal(err)
		}
	}
}

const keylessCount = `SELECT COUNT(*) FROM item`

// TestSessionScanAllocs holds a session's keyless scan to what a store
// scan costs: the heap cursor filters RIDs through the snapshot in place,
// so a COUNT(*) over 10k rows allocates the rows it hands up, not a copy
// of the table gathered first.
func TestSessionScanAllocs(t *testing.T) {
	db := pointReadDB(t, 10000)
	s, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Rollback()
	count := func() {
		res, err := s.Query(keylessCount)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 10000 {
			t.Fatalf("count returned %v", res.Rows)
		}
	}
	count()
	const reps = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		count()
	}
	runtime.ReadMemStats(&after)
	perScan := (after.TotalAlloc - before.TotalAlloc) / reps
	if perScan >= 768<<10 && !raceEnabled {
		t.Errorf("a session COUNT(*) over 10k rows allocates %d bytes, want under 768 KiB", perScan)
	}
	t.Logf("%d bytes per session keyless scan", perScan)
}

// BenchmarkSessionScan measures a keyless COUNT(*) in a session on a
// 10k-row table.
func BenchmarkSessionScan(b *testing.B) {
	db := pointReadDB(b, 10000)
	s, err := db.Begin()
	if err != nil {
		b.Fatal(err)
	}
	defer s.Rollback()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(keylessCount); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSessionPlansStaySerial holds sessions to serial plans: a morsel of
// a parallel scan cannot merge a snapshot's versions, so even where the
// store's planner forces a Gather the session's plan has none, and it
// returns the store's rows.
func TestSessionPlansStaySerial(t *testing.T) {
	db := parallelFixture(t, 30)
	db.EnableMVCC()
	db.SetPlannerOptions(plan.Options{DOP: 4, MorselPages: 1, CPUs: 4, ForceParallel: true})
	s, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Rollback()
	gathers := 0
	for _, q := range parallelQueries {
		ex, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(ex, "Gather") {
			gathers++
		}
		if ex, err = s.Explain(q); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(ex, "Gather") {
			t.Errorf("%q: the session plan has a Gather:\n%s", q, ex)
		}
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%q: session returned %d rows differing from the store's %d", q, len(got.Rows), len(want.Rows))
		}
	}
	if gathers == 0 {
		t.Fatal("no store plan has a Gather to keep out of the session's")
	}
}
