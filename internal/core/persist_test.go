package core

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/engine/catalog"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
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

// TestSnapshotOpensHeaderlessLegacyStore opens a snapshot shaped like
// those written by stores that stored XADT values without fragment
// headers: headerless values and "legacy": true in the header. The
// field is ignored, the values read as before, and later loads write
// headered values beside them.
func TestSnapshotOpensHeaderlessLegacyStore(t *testing.T) {
	st := newPlayStore(t, XORator)
	q := `SELECT xadtText(speech_line) FROM speech WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1`
	texts := func(s *Store) []string {
		t.Helper()
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r[0].Str()
		}
		slices.Sort(out)
		return out
	}
	want := texts(st)
	if len(want) == 0 {
		t.Fatal("query matches no speech")
	}

	// Rewrite every stored fragment of speech without its header.
	tbl := st.DB.Catalog.Table("speech")
	var rids []storage.RID
	var rows [][]types.Value
	if err := tbl.Heap.Scan(func(rid storage.RID, row []types.Value) error {
		rids, rows = append(rids, rid), append(rows, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		for j, v := range row {
			if v.Kind() != types.KindXADT {
				continue
			}
			nodes, err := xadt.FromBytes(v.XADT()).Nodes()
			if err != nil {
				t.Fatal(err)
			}
			row[j] = types.NewXADT(xadt.Encode(nodes, st.Format).Bytes())
		}
		if _, err := tbl.UpdateRID(rids[i], row); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	hlen, n := binary.Uvarint(data)
	hdr := append([]byte(`{"legacy":true,`), data[n+1:n+int(hlen)]...)
	snap := binary.AppendUvarint(nil, uint64(len(hdr)))
	snap = append(append(snap, hdr...), data[n+int(hlen):]...)

	restored, err := OpenSnapshot(bytes.NewReader(snap), engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var stored types.Value
	if err := restored.DB.Catalog.Table("speech").Heap.Scan(func(_ storage.RID, row []types.Value) error {
		for _, v := range row {
			if v.Kind() == types.KindXADT && stored.Kind() != types.KindXADT {
				stored = v
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := xadt.FromBytes(stored.XADT()).Header(); ok {
		t.Fatal("restored fragment carries a header; the test store is not headerless")
	}
	if got := texts(restored); !slices.Equal(got, want) {
		t.Fatalf("headerless snapshot returns %d fragments, want %d", len(got), len(want))
	}

	cfg := datagen.DefaultPlayConfig()
	cfg.Plays = 1
	cfg.Seed = 99
	if err := restored.Load(datagen.GeneratePlays(cfg)); err != nil {
		t.Fatal(err)
	}
	if got := texts(restored); len(got) < len(want) {
		t.Fatalf("after a resumed load the query returns %d fragments, fewer than %d", len(got), len(want))
	}
}
