package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/engine/storage"
	"repro/internal/engine/wal"
	"repro/internal/xmltree"
)

// addPlayStore builds a store whose documents entered through
// AddDocuments (so they are registered and removable), optionally
// WAL-backed on the given VFS.
func addPlayStore(t *testing.T, alg Algorithm, vfs storage.VFS) (*Store, []int64) {
	t.Helper()
	cfg := Config{Algorithm: alg}
	if vfs != nil {
		cfg.Engine = engine.Config{WALDir: "wal", WALSync: wal.SyncAlways, VFS: vfs}
	}
	st, err := NewStore(corpus.ShakespeareDTD, cfg)
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

func countRows(t *testing.T, st *Store, table string) int {
	t.Helper()
	res, err := st.Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return int(res.Rows[0][0].Int())
}

func TestExecInsertUpdateDelete(t *testing.T) {
	st, _ := addPlayStore(t, XORator, nil)
	plays := countRows(t, st, "play")

	n, err := st.Exec(`INSERT INTO play (playID, play_title) VALUES (-1, 'Synthetic'), (-2, 'Another')`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("insert affected %d rows, want 2", n)
	}
	if got := countRows(t, st, "play"); got != plays+2 {
		t.Fatalf("plays = %d, want %d", got, plays+2)
	}
	// Unlisted columns default to NULL.
	res, err := st.Query(`SELECT play_scndescr FROM play WHERE playID = -1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !res.Rows[0][0].IsNull() {
		t.Fatalf("inserted row = %v, want single NULL scndescr", res.Rows)
	}

	n, err = st.Exec(`UPDATE play SET play_title = 'Renamed' WHERE playID <= -1`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("update affected %d rows, want 2", n)
	}
	res, err = st.Query(`SELECT COUNT(*) FROM play WHERE play_title = 'Renamed'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("renamed plays = %v, want 2", res.Rows)
	}

	n, err = st.Exec(`DELETE FROM play WHERE play_title = 'Renamed'`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("delete affected %d rows, want 2", n)
	}
	if got := countRows(t, st, "play"); got != plays {
		t.Fatalf("plays = %d, want %d after deleting the synthetics", got, plays)
	}
}

// failingDML are statements that must fail as a whole against a store
// of three plays.
var failingDML = []string{
	`INSERT INTO nosuch (a) VALUES (1)`,
	`INSERT INTO play (nosuch) VALUES (1)`,
	`INSERT INTO play (play_title) VALUES (42)`,                         // type mismatch
	`INSERT INTO play (playID, play_title) VALUES (-1, 'ok'), (-2, 42)`, // second row mismatches
	`UPDATE play SET playID = 'word' WHERE playID = 1`,                  // type mismatch
	`UPDATE nosuch SET a = 1`,
	`DELETE FROM nosuch`,
	`UPDATE play SET play_fm = 'raw' WHERE playID = 1`, // XADT column: splice only
}

func TestExecErrors(t *testing.T) {
	st, _ := addPlayStore(t, XORator, nil)
	for _, src := range failingDML {
		if _, err := st.Exec(src); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", src)
		}
	}
	// A failed statement must not leave partial effects behind.
	if got := countRows(t, st, "play"); got != 3 {
		t.Fatalf("plays = %d after failed statements, want 3", got)
	}
}

// TestExecErrorsRecoverLikeLive runs the failing statements on a WAL
// store: a statement that fails logs nothing and changes nothing, so
// the live store and the store recovered from its log agree.
func TestExecErrorsRecoverLikeLive(t *testing.T) {
	vfs := storage.NewMemVFS()
	st, _ := addPlayStore(t, XORator, vfs)
	for _, src := range failingDML {
		if _, err := st.Exec(src); err == nil {
			t.Errorf("Exec(%q) succeeded, want error", src)
		}
	}
	live := countRows(t, st, "play")
	rec, err := OpenRecovered(Config{Engine: engine.Config{WALDir: "wal", WALSync: wal.SyncAlways, VFS: vfs}})
	if err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, rec, "play"); got != live || live != 3 {
		t.Fatalf("plays: live %d, recovered %d, want 3 both", live, got)
	}
}

func TestRemoveAndReplaceDocument(t *testing.T) {
	st, ids := addPlayStore(t, XORator, nil)
	before := countRows(t, st, "speech")

	if err := st.RemoveDocument(ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, st, "play"); got != 2 {
		t.Fatalf("plays = %d after removal, want 2", got)
	}
	if got := countRows(t, st, "speech"); got >= before {
		t.Fatalf("speeches = %d after removal, want fewer than %d", got, before)
	}
	if err := st.RemoveDocument(ids[0]); err == nil {
		t.Fatal("removing the same document twice succeeded")
	}
	if err := st.RemoveDocument(9999); err == nil {
		t.Fatal("removing an unknown document succeeded")
	}

	repl := smallPlays(t, 1)[0]
	doc, err := xmltree.Parse(xmltree.Serialize(repl.Root))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ReplaceDocument(ids[1], doc); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, st, "play"); got != 2 {
		t.Fatalf("plays = %d after replacement, want 2", got)
	}
}

func TestSpliceFragment(t *testing.T) {
	st, _ := addPlayStore(t, XORator, nil)
	res, err := st.Query(`SELECT COUNT(*) FROM speech, TABLE(unnest(speech_line, 'LINE')) u WHERE speechID = 1`)
	if err != nil {
		t.Fatal(err)
	}
	before := res.Rows[0][0].Int()

	frags := []string{"<LINE>a spliced line</LINE>", "<LINE>and one more</LINE>"}
	if err := st.SpliceFragment("speech", "speech_line", 1, frags); err != nil {
		t.Fatal(err)
	}
	res, err = st.Query(`SELECT COUNT(*) FROM speech, TABLE(unnest(speech_line, 'LINE')) u WHERE speechID = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 2 {
		t.Fatalf("lines after splice = %d, want exactly the 2 spliced (had %d)", got, before)
	}
	res, err = st.Query(`SELECT COUNT(*) FROM speech WHERE findKeyInElm(speech_line, 'LINE', 'spliced') = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("spliced keyword not findable: %v", res.Rows)
	}

	// Error cases: unknown table/column, non-XADT column, wrong fragment
	// root, missing row.
	for _, c := range []struct{ table, col string }{
		{"nosuch", "speech_line"},
		{"speech", "nosuch"},
		{"speech", "speech_speaker"},
	} {
		if err := st.SpliceFragment(c.table, c.col, 1, frags); err == nil {
			t.Errorf("SpliceFragment(%s.%s) succeeded, want error", c.table, c.col)
		}
	}
	if err := st.SpliceFragment("speech", "speech_line", 1, []string{"<STAGEDIR>wrong root</STAGEDIR>"}); err == nil {
		t.Error("splice with mismatched fragment root succeeded")
	}
	if err := st.SpliceFragment("speech", "speech_line", 999999, frags); err == nil {
		t.Error("splice on a missing row succeeded")
	}
}

// TestMutationsSurviveRecovery replays every mutation frame kind: a
// store mutated through SQL DML, a splice, and a document removal is
// abandoned (not closed) and reopened from its WAL, and must answer the
// same queries as before the crash.
func TestMutationsSurviveRecovery(t *testing.T) {
	vfs := storage.NewMemVFS()
	st, ids := addPlayStore(t, XORator, vfs)
	if _, err := st.Exec(`INSERT INTO play (playID, play_title) VALUES (-5, 'Recovered Play')`); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(`UPDATE play SET play_title = 'Renamed' WHERE playID = 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(`DELETE FROM speech WHERE speechID = 1`); err != nil {
		t.Fatal(err)
	}
	if err := st.SpliceFragment("speech", "speech_line", 2, []string{"<LINE>durable splice</LINE>"}); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveDocument(ids[2]); err != nil {
		t.Fatal(err)
	}
	wantPlays := countRows(t, st, "play")
	wantSpeeches := countRows(t, st, "speech")

	// Crash: the handle is abandoned, never closed.
	rec, err := OpenRecovered(Config{Engine: engine.Config{WALDir: "wal", WALSync: wal.SyncAlways, VFS: vfs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.RunStats(); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, rec, "play"); got != wantPlays {
		t.Fatalf("recovered plays = %d, want %d", got, wantPlays)
	}
	if got := countRows(t, rec, "speech"); got != wantSpeeches {
		t.Fatalf("recovered speeches = %d, want %d", got, wantSpeeches)
	}
	res, err := rec.Query(`SELECT COUNT(*) FROM speech WHERE findKeyInElm(speech_line, 'LINE', 'durable') = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("splice lost in recovery: %v", res.Rows)
	}
	res, err = rec.Query(`SELECT play_title FROM play WHERE playID = -5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Recovered Play" {
		t.Fatalf("synthetic insert lost in recovery: %v", res.Rows)
	}

	// The recovered store accepts further mutations.
	if _, err := rec.Exec(`DELETE FROM play WHERE playID = -5`); err != nil {
		t.Fatalf("mutating the recovered store: %v", err)
	}
}

// TestDocumentIDsDeterministic pins the registry's ID allocation: IDs
// restart from the lowest free slot only after the registry is empty,
// never reusing a live document's ID.
func TestDocumentIDsDeterministic(t *testing.T) {
	st, ids := addPlayStore(t, Hybrid, nil)
	if len(ids) != 3 || ids[0] == ids[1] || ids[1] == ids[2] {
		t.Fatalf("initial ids = %v", ids)
	}
	if err := st.RemoveDocument(ids[1]); err != nil {
		t.Fatal(err)
	}
	more, err := st.AddDocuments(smallPlays(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(more) != 1 || more[0] == ids[0] || more[0] == ids[2] {
		t.Fatalf("new id %v collides with live ids %v", more, ids)
	}
}

func TestExecSelectPassesThrough(t *testing.T) {
	st, _ := addPlayStore(t, XORator, nil)
	n, err := st.Exec(`SELECT COUNT(*) FROM play`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("SELECT through Exec returned %d rows, want 1", n)
	}
}
