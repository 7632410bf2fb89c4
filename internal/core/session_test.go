package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/engine/catalog"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// mvccPlayStore builds an MVCC-enabled store with registered documents.
func mvccPlayStore(t *testing.T, alg Algorithm, dop int) (*Store, []int64) {
	t.Helper()
	st, err := NewStore(corpus.ShakespeareDTD, Config{
		Algorithm: alg,
		Engine:    engine.Config{MVCC: true, DOP: dop},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := st.AddDocuments(smallPlays(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RunStats(); err != nil {
		t.Fatal(err)
	}
	return st, ids
}

// canon renders query rows as a sorted byte-comparable string.
func canon(res *engine.Result) string {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func sessionQuery(t *testing.T, s *Session, q string) string {
	t.Helper()
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return canon(res)
}

func sessionExec(t *testing.T, s *Session, q string) int64 {
	t.Helper()
	n, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// forEachCell runs fn across both mappings and serial/parallel planning.
func forEachCell(t *testing.T, fn func(t *testing.T, alg Algorithm, dop int)) {
	for _, alg := range []Algorithm{Hybrid, XORator} {
		for _, dop := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/dop%d", alg, dop), func(t *testing.T) {
				fn(t, alg, dop)
			})
		}
	}
}

const titleOfPlay1 = `SELECT play_title FROM play WHERE playID = %d`

func TestIsolationAnomalies(t *testing.T) {
	forEachCell(t, func(t *testing.T, alg Algorithm, dop int) {
		t.Run("DirtyRead", func(t *testing.T) {
			st, _ := mvccPlayStore(t, alg, dop)
			writer, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer writer.Rollback()
			sessionExec(t, writer, `UPDATE play SET play_title = 'DIRTY' WHERE playID = 1`)

			// Neither another session nor the autocommit path may see
			// the uncommitted write.
			reader, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Rollback()
			for name, got := range map[string]string{
				"session": sessionQuery(t, reader, `SELECT COUNT(*) FROM play WHERE play_title = 'DIRTY'`),
				"store":   storeCount(t, st, `SELECT COUNT(*) FROM play WHERE play_title = 'DIRTY'`),
			} {
				if got != "0" {
					t.Errorf("%s reader sees %s dirty rows, want 0", name, got)
				}
			}
			writer.Rollback()
			if got := storeCount(t, st, `SELECT COUNT(*) FROM play WHERE play_title = 'DIRTY'`); got != "0" {
				t.Errorf("rolled-back write visible: %s rows", got)
			}
		})

		t.Run("NonRepeatableRead", func(t *testing.T) {
			st, _ := mvccPlayStore(t, alg, dop)
			reader, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer reader.Rollback()
			q := fmt.Sprintf(titleOfPlay1, 1)
			first := sessionQuery(t, reader, q)

			writer, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			sessionExec(t, writer, `UPDATE play SET play_title = 'CHANGED' WHERE playID = 1`)
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}

			if again := sessionQuery(t, reader, q); again != first {
				t.Errorf("repeated read changed: %q then %q", first, again)
			}
			// A fresh session does see the commit.
			fresh, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Rollback()
			if got := sessionQuery(t, fresh, q); got != "CHANGED" {
				t.Errorf("fresh session reads %q, want CHANGED", got)
			}
		})

		t.Run("LostUpdate", func(t *testing.T) {
			st, _ := mvccPlayStore(t, alg, dop)
			s1, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			s2, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Rollback()
			// Both read-modify-write the same row.
			sessionExec(t, s1, `UPDATE play SET play_title = 'FIRST' WHERE playID = 1`)
			sessionExec(t, s2, `UPDATE play SET play_title = 'SECOND' WHERE playID = 1`)
			if err := s1.Commit(); err != nil {
				t.Fatalf("first committer: %v", err)
			}
			err = s2.Commit()
			if !errors.Is(err, ErrConflict) {
				t.Fatalf("second committer got %v, want ErrConflict", err)
			}
			if got := storeCount(t, st, `SELECT play_title FROM play WHERE playID = 1`); got != "FIRST" {
				t.Errorf("final title %q, want FIRST (no lost update)", got)
			}
		})

		t.Run("WriteSkew", func(t *testing.T) {
			st, _ := mvccPlayStore(t, alg, dop)
			// Snapshot isolation permits write skew: both sessions read
			// the same two rows but write disjoint ones, so neither
			// conflicts and both commit.
			s1, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			s2, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			_ = sessionQuery(t, s1, `SELECT play_title FROM play WHERE playID <= 2`)
			_ = sessionQuery(t, s2, `SELECT play_title FROM play WHERE playID <= 2`)
			sessionExec(t, s1, `UPDATE play SET play_title = 'SKEW-A' WHERE playID = 1`)
			sessionExec(t, s2, `UPDATE play SET play_title = 'SKEW-B' WHERE playID = 2`)
			if err := s1.Commit(); err != nil {
				t.Fatalf("s1: %v", err)
			}
			if err := s2.Commit(); err != nil {
				t.Fatalf("s2 (write skew must commit under SI): %v", err)
			}
			if got := storeCount(t, st, `SELECT COUNT(*) FROM play WHERE play_title = 'SKEW-A' OR play_title = 'SKEW-B'`); got != "2" {
				t.Errorf("skew rows = %s, want 2", got)
			}
		})

		t.Run("ReadOwnWrites", func(t *testing.T) {
			st, _ := mvccPlayStore(t, alg, dop)
			s, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Rollback()
			sessionExec(t, s, `INSERT INTO play (playID, play_title) VALUES (-7, 'Mine')`)
			sessionExec(t, s, `UPDATE play SET play_title = 'MineToo' WHERE playID = 1`)
			if got := sessionQuery(t, s, `SELECT COUNT(*) FROM play WHERE play_title = 'Mine' OR play_title = 'MineToo'`); got != "2" {
				t.Errorf("session sees %s of its own writes, want 2", got)
			}
			sessionExec(t, s, `DELETE FROM play WHERE playID = -7`)
			if got := sessionQuery(t, s, `SELECT COUNT(*) FROM play WHERE playID = -7`); got != "0" {
				t.Errorf("session sees its own deleted row")
			}
			// Nothing escaped before commit.
			if got := storeCount(t, st, `SELECT COUNT(*) FROM play WHERE play_title = 'MineToo'`); got != "0" {
				t.Errorf("uncommitted write leaked")
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := storeCount(t, st, `SELECT COUNT(*) FROM play WHERE play_title = 'MineToo'`); got != "1" {
				t.Errorf("committed write missing")
			}
		})
	})
}

func storeCount(t *testing.T, st *Store, q string) string {
	t.Helper()
	res, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return canon(res)
}

// TestSnapshotStability is the acceptance criterion: a reader holding a
// snapshot gets byte-identical results before, during, and after a
// concurrent committed writer.
func TestSnapshotStability(t *testing.T) {
	forEachCell(t, func(t *testing.T, alg Algorithm, dop int) {
		queries := []string{
			`SELECT play_title FROM play`,
			`SELECT COUNT(*) FROM speech`,
		}
		if alg == Hybrid {
			queries = append(queries,
				`SELECT speaker_value FROM speaker, speech WHERE speaker_parentID = speechID`)
		} else {
			queries = append(queries,
				`SELECT speechID FROM speech, scene WHERE speech_parentID = sceneID`)
		}
		st, ids := mvccPlayStore(t, alg, dop)
		reader, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer reader.Rollback()
		before := make([]string, len(queries))
		for i, q := range queries {
			before[i] = sessionQuery(t, reader, q)
		}

		// Concurrent committed writers: DML, a document removal, and a
		// fresh document load.
		writer, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		sessionExec(t, writer, `UPDATE play SET play_title = 'Rewritten' WHERE playID = 1`)
		if err := writer.RemoveDocument(ids[1]); err != nil {
			t.Fatal(err)
		}
		if err := writer.AddDocuments(smallPlays(t, 1)); err != nil {
			t.Fatal(err)
		}
		if err := writer.Commit(); err != nil {
			t.Fatal(err)
		}

		for i, q := range queries {
			if got := sessionQuery(t, reader, q); got != before[i] {
				t.Errorf("query %q changed under snapshot:\nbefore: %.120q\nafter:  %.120q", q, before[i], got)
			}
		}
		// And the writer's effects are visible to a fresh snapshot.
		fresh, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Rollback()
		if got := sessionQuery(t, fresh, `SELECT COUNT(*) FROM play WHERE play_title = 'Rewritten'`); got != "1" {
			t.Errorf("fresh session misses committed update")
		}
	})
}

// TestSessionNarrowScansMatchStore runs queries that name one or two
// columns of wide tables through a session, whose scans project the
// snapshot's whole rows, and through the engine on the live heap, whose
// scans decode only the named columns: with no writer between them the
// rows must agree, scans and equality probes alike.
func TestSessionNarrowScansMatchStore(t *testing.T) {
	forEachCell(t, func(t *testing.T, alg Algorithm, dop int) {
		st, _ := mvccPlayStore(t, alg, dop)
		if err := st.CreateDefaultIndexes(); err != nil {
			t.Fatal(err)
		}
		if ex, err := st.DB.Explain(`SELECT speechID FROM speech WHERE speech_parentID = 3`); err != nil || !strings.Contains(ex, "IndexScan") {
			t.Fatalf("no index scan to compare (%v):\n%s", err, ex)
		}
		queries := []string{
			`SELECT play_title FROM play`,
			`SELECT speechID FROM speech`,
			`SELECT speechID FROM speech WHERE speech_parentID = 3`,
			`SELECT COUNT(*) FROM speech`,
		}
		if alg == Hybrid {
			queries = append(queries,
				`SELECT line_value FROM line WHERE lineID = 5`,
				`SELECT speaker_value FROM speaker, speech WHERE speaker_parentID = speechID`)
		} else {
			queries = append(queries,
				`SELECT speech_speaker FROM speech WHERE speechID = 5`,
				`SELECT speechID FROM speech, scene WHERE speech_parentID = sceneID`)
		}
		s, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Rollback()
		for _, q := range queries {
			// st.Query would open a session too; the engine reads the heap.
			res, err := st.DB.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want := canon(res)
			if want == "" {
				t.Fatalf("%s: no rows", q)
			}
			if got := sessionQuery(t, s, q); got != want {
				t.Errorf("%s: session rows differ from the store's:\nsession: %.120q\nstore:   %.120q", q, got, want)
			}
		}
	})
}

// TestSessionDocOps exercises document ops inside transactions.
func TestSessionDocOps(t *testing.T) {
	st, ids := mvccPlayStore(t, XORator, 1)
	speeches := storeCount(t, st, `SELECT COUNT(*) FROM speech`)

	// Rolled-back removal leaves everything in place.
	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveDocument(ids[0]); err != nil {
		t.Fatal(err)
	}
	s.Rollback()
	if got := storeCount(t, st, `SELECT COUNT(*) FROM speech`); got != speeches {
		t.Fatalf("rollback leaked: %s speeches, want %s", got, speeches)
	}

	// Committed removal + add in one transaction.
	s, err = st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveDocument(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDocuments(smallPlays(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := storeCount(t, st, `SELECT COUNT(*) FROM play`); got != "4" {
		t.Fatalf("plays = %s, want 4 (3 - 1 + 2)", got)
	}

	// Removing the same document twice across concurrent sessions: the
	// second committer conflicts on the shared victim rows.
	s1, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.RemoveDocument(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := s2.RemoveDocument(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("concurrent double-remove got %v, want ErrConflict", err)
	}

	// Splice inside a session, with a conflicting direct splice landing
	// first.
	s3, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(`SELECT MIN(speechID) FROM speech`)
	if err != nil {
		t.Fatal(err)
	}
	target := res.Rows[0][0].Int()
	frag := `<LINE>mark me</LINE>`
	if err := s3.SpliceFragment("speech", "speech_line", target, []string{frag}); err != nil {
		t.Fatal(err)
	}
	if err := st.SpliceFragment("speech", "speech_line", target, []string{frag}); err != nil {
		t.Fatal(err)
	}
	if err := s3.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("splice over direct splice got %v, want ErrConflict", err)
	}
}

func TestBeginRequiresMVCC(t *testing.T) {
	st := newPlayStore(t, XORator)
	if _, err := st.NewSession(); err == nil {
		t.Fatal("NewSession on a non-MVCC store succeeded")
	}
}

// TestSessionProbeSnapshot holds a session's B+tree probe of the live
// index to the snapshot it must see: versions another session committed
// since are replaced by their undo images, the session's own writes
// apply by their new keys, and a probe yields exactly the rows, in the
// order, a full snapshot scan filtered on the key yields.
func TestSessionProbeSnapshot(t *testing.T) {
	st, _ := mvccPlayStore(t, Hybrid, 1)
	if err := st.CreateDefaultIndexes(); err != nil {
		t.Fatal(err)
	}
	tbl := st.DB.Catalog.Table("speech")
	idx := tbl.IndexOn("speech_parentID")
	if idx == nil {
		t.Fatal("speech_parentID is not indexed")
	}
	ci := idx.ColIdx
	collect := func(s *Session, ix *catalog.Index, key int64) []mvcc.VRow {
		t.Helper()
		var out []mvcc.VRow
		err := s.es.Scan(tbl, ix, types.NewInt(key), func(rid storage.RID, row []types.Value) error {
			if ix != nil || types.Equal(row[ci], types.NewInt(key)) {
				out = append(out, mvcc.VRow{RID: rid, Row: row})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	probe := func(s *Session, key int64) []mvcc.VRow { return collect(s, idx, key) }
	ids := func(rows []mvcc.VRow) []int64 {
		var out []int64
		for _, vr := range rows {
			out = append(out, vr.Row[0].Int())
		}
		return out
	}
	firstChild := func(s *Session, parent int64) int64 {
		t.Helper()
		rows := probe(s, parent)
		if len(rows) < 2 {
			t.Fatalf("parent %d has %d speeches, want several", parent, len(rows))
		}
		return rows[0].Row[0].Int()
	}

	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Rollback()
	movedByOther := firstChild(s, 1)
	movedByOwn := firstChild(s, 2)
	deleted := firstChild(s, 3)

	other, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	sessionExec(t, other, fmt.Sprintf(`UPDATE speech SET speech_parentID = 9001 WHERE speechID = %d`, movedByOther))
	if err := other.Commit(); err != nil {
		t.Fatal(err)
	}

	// The older snapshot finds the row under its old key, as the undo
	// image: the live heap at that RID holds the committed new key.
	var old *mvcc.VRow
	for _, vr := range probe(s, 1) {
		if vr.Row[0].Int() == movedByOther {
			old = &vr
		}
	}
	if old == nil || old.Row[ci].Int() != 1 {
		t.Fatalf("old snapshot's probe by the old key lost speech %d: %v", movedByOther, old)
	}
	if live, err := tbl.Heap.Get(old.RID); err != nil || live[ci].Int() != 9001 {
		t.Fatalf("live row at %v is %v (%v), want the committed key 9001", old.RID, live, err)
	}
	if got := probe(s, 9001); len(got) != 0 {
		t.Fatalf("old snapshot's probe by the committed new key found %v", ids(got))
	}

	// The session's own writes: an UPDATE of the key column, a DELETE
	// and an INSERT.
	sessionExec(t, s, fmt.Sprintf(`UPDATE speech SET speech_parentID = 9002 WHERE speechID = %d`, movedByOwn))
	sessionExec(t, s, fmt.Sprintf(`DELETE FROM speech WHERE speechID = %d`, deleted))
	sessionExec(t, s, `INSERT INTO speech (speechID, speech_parentID) VALUES (99999, 9002)`)
	if got := ids(probe(s, 9002)); !reflect.DeepEqual(got, []int64{movedByOwn, 99999}) {
		t.Fatalf("probe by the session's new key found %v, want [%d 99999]", got, movedByOwn)
	}
	if got := ids(probe(s, 2)); slices.Contains(got, movedByOwn) {
		t.Fatalf("probe by the old key still finds the session's updated speech %d", movedByOwn)
	}
	if got := ids(probe(s, 3)); slices.Contains(got, deleted) {
		t.Fatalf("probe finds the session's deleted speech %d", deleted)
	}

	keys := []int64{9001, 9002, 99999}
	for k := int64(0); k <= 40; k++ {
		keys = append(keys, k)
	}
	for _, k := range keys {
		if got, want := probe(s, k), collect(s, nil, k); !reflect.DeepEqual(got, want) {
			t.Errorf("key %d: probe yields %v, filtered scan %v", k, ids(got), ids(want))
		}
	}
}
