package core

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/engine/catalog"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/wal"
	"repro/internal/xadt"
)

func TestSnapshotRoundTrip(t *testing.T) {
	st := newPlayStore(t, XORator)
	if err := st.CreateDefaultIndexes(); err != nil {
		t.Fatal(err)
	}
	before, err := st.Query(`SELECT speechID FROM speech WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1`)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSnapshot(&buf, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Format != st.Format {
		t.Errorf("format = %v, want %v", restored.Format, st.Format)
	}
	if len(restored.Schema.Relations) != len(st.Schema.Relations) {
		t.Errorf("relations = %d, want %d", len(restored.Schema.Relations), len(st.Schema.Relations))
	}
	after, err := restored.Query(`SELECT speechID FROM speech WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != len(before.Rows) {
		t.Fatalf("rows after restore = %d, want %d", len(after.Rows), len(before.Rows))
	}
	// Indexes were rebuilt: an indexed lookup works and stats are fresh.
	if restored.Table("speech").IndexOn("speechID") == nil {
		t.Error("index not rebuilt")
	}
	if !restored.Table("speech").Stats.Valid {
		t.Error("stats not refreshed")
	}
	// Load rebuilds every index equal to the saved store's.
	entries := func(idx *catalog.Index) (keys []types.Value, rids []storage.RID) {
		idx.Tree.Ascend(func(k types.Value, rid storage.RID) bool {
			keys, rids = append(keys, k), append(rids, rid)
			return true
		})
		return keys, rids
	}
	sameKey := func(a, b types.Value) bool { return types.Compare(a, b) == 0 }
	for _, name := range st.DB.Catalog.TableNames() {
		a, b := st.Table(name), restored.Table(name)
		if len(a.Indexes) != len(b.Indexes) || len(a.FragIndexes) != len(b.FragIndexes) {
			t.Fatalf("%s: %d B+trees and %d fragment indexes restored, want %d and %d",
				name, len(b.Indexes), len(b.FragIndexes), len(a.Indexes), len(a.FragIndexes))
		}
		for i, idx := range a.Indexes {
			wk, wr := entries(idx)
			gk, gr := entries(b.Indexes[i])
			if b.Indexes[i].Column != idx.Column || !slices.EqualFunc(gk, wk, sameKey) || !slices.Equal(gr, wr) {
				t.Errorf("%s: restored index on %s differs from the saved one", name, idx.Column)
			}
		}
		for i, fi := range a.FragIndexes {
			if d := b.FragIndexes[i].Diff(fi); d != "" || b.FragIndexes[i].Column() != fi.Column() {
				t.Errorf("%s.%s: restored fragment index differs: %s", name, fi.Column(), d)
			}
		}
	}
}

func TestSnapshotHybridAgrees(t *testing.T) {
	st := newPlayStore(t, Hybrid)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSnapshot(&buf, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT COUNT(*) FROM line`
	a, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0][0].Int() != b.Rows[0][0].Int() {
		t.Errorf("line counts differ: %v vs %v", a.Rows[0][0], b.Rows[0][0])
	}
}

func TestSnapshotResumeLoading(t *testing.T) {
	st := newPlayStore(t, XORator)
	beforeRows := st.Stats().Rows

	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSnapshot(&buf, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := datagen.DefaultPlayConfig()
	cfg.Plays = 1
	cfg.Seed = 99
	if err := restored.Load(datagen.GeneratePlays(cfg)); err != nil {
		t.Fatal(err)
	}
	if restored.Stats().Rows <= beforeRows {
		t.Errorf("rows after resume load = %d, want > %d", restored.Stats().Rows, beforeRows)
	}
	// IDs stay unique after the resume.
	res, err := restored.Query(`SELECT COUNT(DISTINCT speechID) FROM speech`)
	if err != nil {
		t.Fatal(err)
	}
	count, err := restored.Query(`SELECT COUNT(*) FROM speech`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != count.Rows[0][0].Int() {
		t.Errorf("duplicate speech IDs after resume: %v distinct of %v",
			res.Rows[0][0], count.Rows[0][0])
	}
}

func TestSnapshotFile(t *testing.T) {
	st := newPlayStore(t, XORator)
	path := filepath.Join(t.TempDir(), "store.xordb")
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSnapshotFile(path, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats().Rows != st.Stats().Rows {
		t.Errorf("rows = %d, want %d", restored.Stats().Rows, st.Stats().Rows)
	}
}

func TestSnapshotCorrupt(t *testing.T) {
	st := newPlayStore(t, XORator)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cases := [][]byte{
		nil,
		data[:10],
		append([]byte{0xFF, 0xFF}, data...),
	}
	for i, b := range cases {
		if _, err := OpenSnapshot(bytes.NewReader(b), engine.Config{}); err == nil {
			t.Errorf("case %d: corrupt snapshot accepted", i)
		}
	}
}

func TestSnapshotPreservesXADTPayloads(t *testing.T) {
	st := newPlayStore(t, XORator)
	q := `SELECT xadtText(speech_line) FROM speech WHERE speechID = 5`
	a, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSnapshot(&buf, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows[0][0].Str() != b.Rows[0][0].Str() {
		t.Error("XADT payload changed across snapshot")
	}
}

// TestSnapshotRejectsAlteredTable alters one byte of the element table
// of a stored fragment in a saved snapshot, and separately stores every
// speech fragment in the format written before values carried a table
// (format byte and text). Opening either snapshot fails with the ingress
// error naming the table and the column; the snapshot keeps no checksum
// that would fire first.
func TestSnapshotRejectsAlteredTable(t *testing.T) {
	st := newPlayStore(t, XORator)
	tbl := st.DB.Catalog.Table("speech")
	var rids []storage.RID
	var rows [][]types.Value
	if err := tbl.Heap.Scan(func(rid storage.RID, row []types.Value) error {
		rids, rows = append(rids, rid), append(rows, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	col := -1
	for j, v := range rows[0] {
		if v.Kind() == types.KindXADT {
			col = j
			break
		}
	}
	if col < 0 {
		t.Fatal("speech has no XADT value")
	}
	wantErr := "catalog: table speech column " + tbl.Schema.Columns[col].Name + ": xadt:"
	open := func(what string, snap []byte) {
		t.Helper()
		_, err := OpenSnapshot(bytes.NewReader(snap), engine.Config{})
		if err == nil || !strings.Contains(err.Error(), wantErr) || !strings.Contains(err.Error(), "element table") {
			t.Fatalf("%s: OpenSnapshot error %v, want one naming %q and the element table", what, err, wantErr)
		}
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	val := rows[0][col].XADT()
	at := bytes.Index(buf.Bytes(), val)
	if at < 0 {
		t.Fatalf("stored value %q not found in the snapshot", val)
	}
	altered := bytes.Clone(buf.Bytes())
	copy(altered[at:], alterTable(t, val))
	open("altered table byte", altered)

	for i, row := range rows {
		text, err := xadt.FromBytes(row[col].XADT()).Text()
		if err != nil {
			t.Fatal(err)
		}
		row[col] = types.NewXADT(append([]byte{byte(xadt.Raw)}, text...))
		if _, err := tbl.UpdateRID(rids[i], row); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	open("values without a table", buf.Bytes())
}

// alterTable returns a copy of the stored value val with its first
// table entry, the name code of its first element, one larger.
func alterTable(t *testing.T, val []byte) []byte {
	t.Helper()
	if len(val) < 3 || val[1] == 0 || val[1] >= 0x80 || val[2] >= 0x7F {
		t.Fatalf("value %x: no one-byte table entry", val)
	}
	out := bytes.Clone(val)
	out[2]++
	return out
}

// TestRecoveryRejectsAlteredTable logs a row whose XADT value has one
// table byte altered (the log's checksums are computed over it, so they
// pass): recovery fails with the ingress error naming the table and the
// column.
func TestRecoveryRejectsAlteredTable(t *testing.T) {
	vfs := storage.NewMemVFS()
	st, _ := addPlayStore(t, XORator, vfs)
	tbl := st.DB.Catalog.Table("speech")
	var row []types.Value
	if err := tbl.Heap.Scan(func(_ storage.RID, r []types.Value) error {
		if row == nil {
			row = r
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	col := slices.IndexFunc(row, func(v types.Value) bool { return v.Kind() == types.KindXADT })
	row[col] = types.NewXADT(alterTable(t, row[col].XADT()))
	b := st.wal.Begin()
	if err := b.Insert("speech", row); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err := OpenRecovered(Config{Engine: engine.Config{WALDir: "wal", WALSync: wal.SyncAlways, VFS: vfs}})
	want := "catalog: table speech column " + tbl.Schema.Columns[col].Name + ": xadt:"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenRecovered error %v, want one naming %q", err, want)
	}
}
