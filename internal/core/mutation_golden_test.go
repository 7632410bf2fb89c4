package core

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/storage"
	"repro/internal/engine/wal"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

var goldenBooks = []string{
	`<book><title>First</title><chapter>one</chapter><chapter>uno</chapter></book>`,
	`<book><title>Second</title><chapter>two</chapter></book>`,
	`<book><title>Third</title><chapter>three</chapter><chapter>tres</chapter></book>`,
}

// goldenBookStore builds a WAL store of goldenBooks on its own MemVFS,
// with the XADT format forced and the default indexes built.
func goldenBookStore(t *testing.T, mvcc bool) (*Store, storage.VFS, []int64) {
	t.Helper()
	vfs := storage.NewMemVFS()
	format := xadt.Raw
	st, err := NewStore(goldenDTD, Config{
		Algorithm:   XORator,
		ForceFormat: &format,
		Engine:      engine.Config{WALDir: "wal", WALSync: wal.SyncAlways, VFS: vfs, MVCC: mvcc},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := st.AddXML(goldenBooks)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateDefaultIndexes(); err != nil {
		t.Fatal(err)
	}
	return st, vfs, ids
}

// dumpWAL renders a WAL directory's log: its hex image and the frames
// it parses to, row images included.
func dumpWAL(t *testing.T, vfs storage.VFS) string {
	t.Helper()
	f, err := vfs.Open(path.Join("wal", wal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := wal.ScanBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(hex.Dump(data))
	sb.WriteString("\nframes:\n")
	for _, b := range tail.Batches {
		format := "none"
		if b.Format != nil {
			format = fmt.Sprint(*b.Format)
		}
		fmt.Fprintf(&sb, "batch seq=%d format=%s ops=%d\n", b.Seq, format, len(b.Ops))
		for _, op := range b.Ops {
			switch op.Kind {
			case wal.OpInsert:
				fmt.Fprintf(&sb, "  insert %s %v\n", op.Table, op.Row)
			case wal.OpDelete:
				fmt.Fprintf(&sb, "  delete %s rid=%d/%d\n", op.Table, op.RID.Page, op.RID.Slot)
			case wal.OpUpdate:
				fmt.Fprintf(&sb, "  update %s rid=%d/%d %v\n", op.Table, op.RID.Page, op.RID.Slot, op.Row)
			}
		}
	}
	return sb.String()
}

// TestMutationWALGolden pins the WAL frames, byte for byte, that a fixed
// timeline of row mutations writes: SQL DML, a fragment splice and
// document removal/replacement on the store path, then the same kinds
// of edit recorded in a session on an MVCC twin and committed. The
// store and session paths must keep logging exactly these records, in
// this order; rerun with -update only for a deliberate change to what a
// mutation logs.
func TestMutationWALGolden(t *testing.T) {
	var sb strings.Builder
	retitled := "Second, retitled at length"

	st, vfs, ids := goldenBookStore(t, false)
	for _, q := range []string{
		`INSERT INTO book (bookID, book_title) VALUES (-1, 'Minus one'), (-2, 'Minus two')`,
		`UPDATE book SET book_title = '` + retitled + `' WHERE bookID = 2`, // grows: the row moves
		`DELETE FROM book WHERE bookID = -2`,                               // B+tree access path
		`DELETE FROM book WHERE bookID < 0`,                                // heap scan
	} {
		if _, err := st.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if err := st.SpliceFragment("book", "book_chapter", 3, []string{"<chapter>spliced</chapter>", "<chapter>twice</chapter>"}); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveDocument(ids[0]); err != nil {
		t.Fatal(err)
	}
	repl, err := xmltree.Parse(`<book><title>Replaced</title><chapter>new</chapter></book>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ReplaceDocument(ids[2], repl); err != nil {
		t.Fatal(err)
	}
	sb.WriteString("store path: 3 documents added; INSERT 2 rows; UPDATE moving a row; DELETE by index; DELETE by scan; splice; remove; replace\n\n")
	sb.WriteString(dumpWAL(t, vfs))

	tw, twVFS, twIDs := goldenBookStore(t, true)
	s, err := tw.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`INSERT INTO book (bookID, book_title) VALUES (-3, 'Session row')`,
		`UPDATE book SET book_title = '` + retitled + `' WHERE bookID = 2`,
		`UPDATE book SET book_title = 'Session row, renamed' WHERE bookID = -3`,
	} {
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if err := s.SpliceFragment("book", "book_chapter", 2, []string{"<chapter>in a session</chapter>"}); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveDocument(twIDs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	sb.WriteString("\nsession path (MVCC twin): 3 documents added; one session: INSERT; UPDATE moving a row; UPDATE of the own insert; splice; remove; commit\n\n")
	sb.WriteString(dumpWAL(t, twVFS))
	got := sb.String()

	goldenPath := filepath.Join("testdata", "mutation_wal.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file: %v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("mutation WAL frames differ from %s.\nIf intentional, rerun with -update.\n--- got ---\n%s\n--- want ---\n%s",
			goldenPath, got, want)
	}
}

// TestDirectAndSessionLogAlike holds the two write paths to one log: a
// mutation run directly on a store, and the same mutation recorded in a
// session and committed on a twin, log the same row frames.
func TestDirectAndSessionLogAlike(t *testing.T) {
	const update = `UPDATE book SET book_title = 'Retitled at length' WHERE bookID >= 2`
	frags := []string{"<chapter>spliced</chapter>"}
	for _, tc := range []struct {
		name    string
		direct  func(*Store) error
		session func(*Session) error
	}{
		{"remove",
			func(st *Store) error { return st.RemoveDocument(2) },
			func(s *Session) error { return s.RemoveDocument(2) }},
		{"splice",
			func(st *Store) error { return st.SpliceFragment("book", "book_chapter", 3, frags) },
			func(s *Session) error { return s.SpliceFragment("book", "book_chapter", 3, frags) }},
		{"dml",
			func(st *Store) error { _, err := st.Exec(update); return err },
			func(s *Session) error { _, err := s.Exec(update); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, vfs, _ := goldenBookStore(t, true)
			if err := tc.direct(st); err != nil {
				t.Fatal(err)
			}
			tw, twVFS, _ := goldenBookStore(t, true)
			s, err := tw.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.session(s); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			want, got := scanWAL(t, vfs), scanWAL(t, twVFS)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("session path logs %+v\nstore path logs %+v", got, want)
			}
		})
	}
}

// scanWAL returns the committed batches of a WAL directory's log.
func scanWAL(t *testing.T, vfs storage.VFS) []wal.ScannedBatch {
	t.Helper()
	tail, err := wal.Scan(vfs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	return tail.Batches
}
