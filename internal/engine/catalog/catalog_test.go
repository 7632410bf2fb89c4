package catalog

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/xadt"
)

func newTestTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := New(nil)
	tbl, err := c.CreateTable("speech", []Column{
		{Name: "speechID", Type: types.KindInt},
		{Name: "speaker", Type: types.KindString},
		{Name: "line", Type: types.KindXADT},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl
}

func TestCreateTableAndInsert(t *testing.T) {
	_, tbl := newTestTable(t)
	err := tbl.Insert([]types.Value{
		types.NewInt(1), types.NewString("HAMLET"), types.NewXADT([]byte("<LINE>hi</LINE>")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows() != 1 {
		t.Errorf("Rows = %d", tbl.Rows())
	}
}

func TestInsertValidation(t *testing.T) {
	_, tbl := newTestTable(t)
	if err := tbl.Insert([]types.Value{types.NewInt(1)}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := tbl.Insert([]types.Value{
		types.NewString("x"), types.NewString("y"), types.Null,
	}); err == nil {
		t.Error("wrong type should fail")
	}
	// NULLs are allowed in any column.
	if err := tbl.Insert([]types.Value{types.NewInt(1), types.Null, types.Null}); err != nil {
		t.Errorf("nulls rejected: %v", err)
	}
}

func TestCreateTableErrors(t *testing.T) {
	c, _ := newTestTable(t)
	if _, err := c.CreateTable("speech", nil); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := c.CreateTable("bad", []Column{
		{Name: "x", Type: types.KindInt}, {Name: "x", Type: types.KindInt},
	}); err == nil {
		t.Error("duplicate column should fail")
	}
}

func TestIndexMaintenance(t *testing.T) {
	c, tbl := newTestTable(t)
	// Backfill path: rows exist before the index.
	for i := 0; i < 100; i++ {
		tbl.Insert([]types.Value{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("S%d", i%10)), types.Null,
		})
	}
	idx, err := c.CreateIndex("speech", "speaker")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(idx.Tree.Lookup(types.NewString("S3"))); got != 10 {
		t.Errorf("backfilled lookup = %d, want 10", got)
	}
	// Forward maintenance: inserts after the index.
	tbl.Insert([]types.Value{types.NewInt(100), types.NewString("S3"), types.Null})
	if got := len(idx.Tree.Lookup(types.NewString("S3"))); got != 11 {
		t.Errorf("maintained lookup = %d, want 11", got)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	c, _ := newTestTable(t)
	if _, err := c.CreateIndex("ghost", "x"); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := c.CreateIndex("speech", "ghost"); err == nil {
		t.Error("missing column should fail")
	}
	if _, err := c.CreateIndex("speech", "speaker"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex("speech", "speaker"); err == nil {
		t.Error("duplicate index should fail")
	}
}

// TestCreateIndexesOnePass: every new index of a table, B+trees and
// fragment indexes alike, fills from one heap scan, and the kind of
// index follows the column's type.
func TestCreateIndexesOnePass(t *testing.T) {
	pool := storage.NewBufferPool(0) // counts every page access as a miss
	c := New(pool)
	tbl, err := c.CreateTable("speech", []Column{
		{Name: "speechID", Type: types.KindInt},
		{Name: "speaker", Type: types.KindString},
		{Name: "line", Type: types.KindXADT},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		line, err := xadt.Parse(fmt.Sprintf("<LINE>line %d of %s</LINE>", i, strings.Repeat("x", i%40)), xadt.Raw)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Insert([]types.Value{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("S%d", i%10)), types.NewXADT(line.Bytes())})
	}
	before := pool.Stats().Total()
	if err := c.CreateIndexes("speech", []string{"speechID", "line", "speaker"}); err != nil {
		t.Fatal(err)
	}
	if got, pages := pool.Stats().Total()-before, tbl.Heap.DataPages(); got != int64(pages) || pages < 2 {
		t.Errorf("building three indexes touched %d pages of a %d-page heap, want one scan", got, pages)
	}
	if len(tbl.Indexes) != 2 || tbl.IndexOn("speaker") == nil || len(tbl.FragIndexes) != 1 {
		t.Fatalf("indexes %d B+trees, %d fragment indexes", len(tbl.Indexes), len(tbl.FragIndexes))
	}
	if fi := tbl.FragIndexOn("line"); !fi.Valid() || fi.Rows() != 500 {
		t.Errorf("fragment index Valid=%v Rows=%d", fi.Valid(), fi.Rows())
	}
	if got := len(tbl.IndexOn("speaker").Tree.Lookup(types.NewString("S3"))); got != 50 {
		t.Errorf("backfilled speaker lookup = %d, want 50", got)
	}
	if err := c.CreateIndexes("speech", []string{"speaker"}); err == nil {
		t.Error("an existing index was built again")
	}
	c.CreateTable("t2", []Column{{Name: "a", Type: types.KindInt}, {Name: "x", Type: types.KindXADT}})
	if err := c.CreateIndexes("t2", []string{"a", "a"}); err == nil {
		t.Error("a column listed twice got two indexes")
	}
	if _, err := c.CreateIndex("t2", "x"); err == nil {
		t.Error("CreateIndex built a B+tree on an XADT column")
	}
	if _, err := c.CreateXADTIndex("t2", "a"); err == nil {
		t.Error("CreateXADTIndex accepted an integer column")
	}
}

func TestRunStats(t *testing.T) {
	c, tbl := newTestTable(t)
	for i := 0; i < 50; i++ {
		tbl.Insert([]types.Value{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("S%d", i%5)), types.Null,
		})
	}
	if tbl.Stats.Valid {
		t.Error("stats should be invalid before RunStats")
	}
	if err := c.RunStats("speech"); err != nil {
		t.Fatal(err)
	}
	if !tbl.Stats.Valid || tbl.Stats.Rows != 50 {
		t.Errorf("stats = %+v", tbl.Stats)
	}
	if got := tbl.Stats.Distinct["speaker"]; got != 5 {
		t.Errorf("distinct speakers = %d, want 5", got)
	}
	if got := tbl.Stats.Distinct["speechID"]; got != 50 {
		t.Errorf("distinct ids = %d, want 50", got)
	}
	// Inserting no longer invalidates outright: the modification counter
	// advances and StaleRatio reflects the drift.
	tbl.Insert([]types.Value{types.NewInt(51), types.Null, types.Null})
	snap := tbl.StatsSnapshot()
	if !snap.Valid {
		t.Error("one insert should not invalidate stats")
	}
	if snap.ModsSince != 1 {
		t.Errorf("ModsSince = %d, want 1", snap.ModsSince)
	}
	if r := snap.StaleRatio(); r <= 0 || r > DefaultStaleRatio {
		t.Errorf("StaleRatio = %v, want small but positive", r)
	}
	// Enough DML pushes the ratio past the planner's trust threshold.
	tbl.AdvanceMods(int64(float64(snap.Rows)*DefaultStaleRatio) + 1)
	if snap = tbl.StatsSnapshot(); snap.StaleRatio() <= DefaultStaleRatio {
		t.Errorf("StaleRatio = %v, want past %v", snap.StaleRatio(), DefaultStaleRatio)
	}
	if snap.Fresh() {
		t.Error("stale stats should not report Fresh")
	}
}

func TestSizeAccounting(t *testing.T) {
	c, tbl := newTestTable(t)
	for i := 0; i < 2000; i++ {
		tbl.Insert([]types.Value{
			types.NewInt(int64(i)), types.NewString(strings.Repeat("a", 100)), types.Null,
		})
	}
	c.CreateIndex("speech", "speechID")
	if tbl.DataBytes() <= 0 || tbl.IndexBytes() <= 0 {
		t.Errorf("sizes: data=%d index=%d", tbl.DataBytes(), tbl.IndexBytes())
	}
	if c.TotalDataBytes() != tbl.DataBytes() || c.TotalIndexBytes() != tbl.IndexBytes() {
		t.Error("catalog totals disagree with table")
	}
}

func TestDescribeAndNames(t *testing.T) {
	c, _ := newTestTable(t)
	c.CreateTable("act", []Column{{Name: "actID", Type: types.KindInt}})
	names := c.TableNames()
	if len(names) != 2 || names[0] != "speech" || names[1] != "act" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestRunStatsAll(t *testing.T) {
	c, tbl := newTestTable(t)
	tbl.Insert([]types.Value{types.NewInt(1), types.Null, types.Null})
	if err := c.RunStatsAll(); err != nil {
		t.Fatal(err)
	}
	if !tbl.Stats.Valid {
		t.Error("RunStatsAll did not refresh")
	}
	if err := c.RunStats("ghost"); err == nil {
		t.Error("missing table should fail")
	}
}
