package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/engine/catalog"
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
