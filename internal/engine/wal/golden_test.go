package wal

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine/storage"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestWALFormatGolden pins the on-disk WAL byte layout — magic, frame
// type tags, uvarint payload lengths, record encoding, and trailing
// CRC32s — for a fixed two-batch log. Recovery of logs written by older
// builds depends on this layout, so any diff against
// testdata/wal.golden is a compatibility break; rerun with -update only
// for a deliberate format revision (and bump the magic when you do).
func TestWALFormatGolden(t *testing.T) {
	vfs := storage.NewMemVFS()
	w, err := Create(vfs, "wal", SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	b := w.Begin()
	b.SetFormat(1)
	if err := b.Insert("play", row(1, "Hamlet", nil)); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("act", row(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	b = w.Begin()
	if err := b.Insert("play", row(3, "Othello", nil)); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// Mutation frames (update/delete), added with DML support; their
	// byte layout is pinned here too.
	b = w.Begin()
	if err := b.Update("play", storage.RID{Page: 0, Slot: 1}, row(3, "Macbeth", nil)); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("act", storage.RID{Page: 2, Slot: 7}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	f, err := vfs.Open(path.Join("wal", FileName))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	sb.WriteString("WAL log image: format frame + 2 inserts + commit, insert + commit, update + delete + commit\n\n")
	sb.WriteString(hex.Dump(data))
	sb.WriteString("\nframes:\n")
	tail, err := ScanBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range tail.Batches {
		fmt.Fprintf(&sb, "batch seq=%d format=%v ops=%d\n", batch.Seq, fmtPtr(batch.Format), len(batch.Ops))
		for _, op := range batch.Ops {
			switch op.Kind {
			case OpInsert:
				fmt.Fprintf(&sb, "  insert table=%s cols=%d overflow=%v\n", op.Table, len(op.Row), op.Overflow)
			case OpDelete:
				fmt.Fprintf(&sb, "  delete table=%s rid=%d/%d\n", op.Table, op.RID.Page, op.RID.Slot)
			case OpUpdate:
				fmt.Fprintf(&sb, "  update table=%s rid=%d/%d cols=%d\n", op.Table, op.RID.Page, op.RID.Slot, len(op.Row))
			}
		}
	}
	got := sb.String()

	goldenPath := filepath.Join("testdata", "wal.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("WAL byte layout differs from %s — this breaks recovery of existing logs.\nIf intentional, rerun with -update.\n--- got ---\n%s\n--- want ---\n%s",
			goldenPath, got, want)
	}
}

func fmtPtr(b *byte) string {
	if b == nil {
		return "none"
	}
	return fmt.Sprintf("%d", *b)
}
