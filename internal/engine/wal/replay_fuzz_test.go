package wal

import (
	"encoding/binary"
	"errors"
	"io"
	"path"
	"strings"
	"testing"

	"repro/internal/engine/storage"
)

// buildLog writes a representative log through the real Writer: three
// committed batches carrying a format frame, inline inserts, and an
// overflow blob, plus one abandoned (uncommitted) insert at the tail.
func buildLog(tb testing.TB) []byte {
	tb.Helper()
	vfs := storage.NewMemVFS()
	w, err := Create(vfs, "wal", SyncOff)
	if err != nil {
		tb.Fatal(err)
	}
	b := w.Begin()
	b.SetFormat(1)
	if err := b.Insert("play", row(1, "Hamlet", nil)); err != nil {
		tb.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		tb.Fatal(err)
	}
	b = w.Begin()
	if err := b.Insert("line", row(2, strings.Repeat("o", storage.MaxInlineRecord+8))); err != nil {
		tb.Fatal(err)
	}
	if err := b.Insert("line", row(3, "short")); err != nil {
		tb.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		tb.Fatal(err)
	}
	b = w.Begin()
	if err := b.Commit(); err != nil { // an empty batch is legal
		tb.Fatal(err)
	}
	b = w.Begin()
	if err := b.Insert("play", row(4, "uncommitted")); err != nil {
		tb.Fatal(err)
	}
	_ = b // abandoned: never committed
	f, err := vfs.Open(path.Join("wal", FileName))
	if err != nil {
		tb.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzWALReplay pins the recovery scanner's contract on arbitrary bytes:
// it never panics, and it either returns a clean committed prefix or a
// typed *CorruptError — nothing in between. When it accepts a prefix,
// rescanning exactly that prefix must reproduce the same batches with no
// torn tail, which is what makes Resume's truncate-at-ValidEnd sound.
func FuzzWALReplay(f *testing.F) {
	valid := buildLog(f)
	f.Add(valid)
	for _, n := range []int{0, 3, len(Magic), len(Magic) + 1, len(Magic) + 7, len(valid) / 2, len(valid) - 3} {
		if n <= len(valid) {
			f.Add(valid[:n])
		}
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(Magic)+2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("XORWAL99"))
	f.Add(append([]byte(Magic), 0x04, 0x01, 0x00, 0xde, 0xad, 0xbe, 0xef))
	f.Add(docRemoveLog())

	f.Fuzz(func(t *testing.T, data []byte) {
		tail, err := ScanBytes(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error is not a *CorruptError: %v", err)
			}
			if ce.Offset < 0 || ce.Offset > int64(len(data)) {
				t.Fatalf("corrupt offset %d outside data of %d bytes", ce.Offset, len(data))
			}
			return
		}
		if tail.ValidEnd < 0 || tail.ValidEnd > int64(len(data)) {
			t.Fatalf("ValidEnd %d outside data of %d bytes", tail.ValidEnd, len(data))
		}
		var last uint64
		for _, b := range tail.Batches {
			if b.Seq <= last {
				t.Fatalf("batch sequences not increasing: %d after %d", b.Seq, last)
			}
			last = b.Seq
		}
		if last != tail.LastSeq {
			t.Fatalf("LastSeq %d does not match final batch %d", tail.LastSeq, last)
		}

		// Prefix stability: the accepted prefix must rescan to the same
		// committed state with nothing torn.
		again, err := ScanBytes(data[:tail.ValidEnd])
		if err != nil {
			t.Fatalf("accepted prefix fails rescan: %v", err)
		}
		if again.Torn {
			t.Fatal("accepted prefix rescans as torn")
		}
		if len(again.Batches) != len(tail.Batches) || again.LastSeq != tail.LastSeq {
			t.Fatalf("prefix rescan: %d batches last %d, want %d batches last %d",
				len(again.Batches), again.LastSeq, len(tail.Batches), tail.LastSeq)
		}
		if again.ValidEnd != tail.ValidEnd {
			t.Fatalf("prefix rescan ValidEnd %d, want %d", again.ValidEnd, tail.ValidEnd)
		}
	})
}

// docRemoveLog is a committed batch holding one CRC-valid frame of type
// 0x07, the logical document removal older logs carried: 0x07 is no
// longer a frame type, so such a log is corrupt, not torn.
func docRemoveLog() []byte {
	data := append([]byte(Magic), appendFrame(nil, 0x07, binary.AppendUvarint(nil, 1))...)
	return appendFrame(data, frameCommit, binary.AppendUvarint(nil, 1))
}

// TestScanRejectsDocRemoveFrame holds a log with a 0x07 frame to a
// *CorruptError: recovery replays row frames only.
func TestScanRejectsDocRemoveFrame(t *testing.T) {
	_, err := ScanBytes(docRemoveLog())
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("ScanBytes = %v, want a *CorruptError", err)
	}
	if ce.Offset != int64(len(Magic)) {
		t.Fatalf("corrupt at offset %d, want the 0x07 frame at %d", ce.Offset, len(Magic))
	}
}

// buildMutationLog writes a log exercising the full mutation frame
// vocabulary through the real Writer: committed batches carrying
// deletes and in-place and moving updates (including an overflow
// payload), and an abandoned mutation batch at the tail.
func buildMutationLog(tb testing.TB) []byte {
	tb.Helper()
	vfs := storage.NewMemVFS()
	w, err := Create(vfs, "wal", SyncOff)
	if err != nil {
		tb.Fatal(err)
	}
	b := w.Begin()
	b.SetFormat(1)
	if err := b.Insert("play", row(1, "Hamlet", nil)); err != nil {
		tb.Fatal(err)
	}
	if err := b.Insert("speech", row(1, "to be or not to be")); err != nil {
		tb.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		tb.Fatal(err)
	}
	b = w.Begin()
	if err := b.Update("play", storage.RID{Page: 0, Slot: 0}, row(1, "The Tragedy of Hamlet", nil)); err != nil {
		tb.Fatal(err)
	}
	if err := b.Update("speech", storage.RID{Page: 0, Slot: 0},
		row(1, strings.Repeat("words ", storage.MaxInlineRecord/5))); err != nil {
		tb.Fatal(err)
	}
	if err := b.Delete("speech", storage.RID{Page: 3, Slot: 9}); err != nil {
		tb.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		tb.Fatal(err)
	}
	b = w.Begin()
	if err := b.Delete("play", storage.RID{Page: 0, Slot: 0}); err != nil {
		tb.Fatal(err)
	}
	if err := b.Update("speech", storage.RID{Page: 0, Slot: 1}, row(1, "abandoned")); err != nil {
		tb.Fatal(err)
	}
	_ = b // abandoned: never committed
	f, err := vfs.Open(path.Join("wal", FileName))
	if err != nil {
		tb.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzMutationReplay pins the same recovery-scanner contract as
// FuzzWALReplay on logs built from the mutation frame vocabulary
// (delete, update): arbitrary corruption of such a log must
// never panic and never surface an uncommitted mutation suffix — the
// scanner returns a clean committed prefix or a typed *CorruptError,
// and the accepted prefix is rescan-stable.
func FuzzMutationReplay(f *testing.F) {
	valid := buildMutationLog(f)
	f.Add(valid)
	for _, n := range []int{0, len(Magic), len(Magic) + 5, len(valid) / 3, len(valid) / 2, len(valid) - 1} {
		if n <= len(valid) {
			f.Add(valid[:n])
		}
	}
	for _, off := range []int{len(Magic) + 1, len(valid) / 2, len(valid) - 2} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}
	// A lone delete frame with no commit, and a frame of the retired
	// 0x07 type with a huge declared length.
	f.Add(append([]byte(Magic), 0x05, 0x03, 'x', 'y', 'z'))
	f.Add(append([]byte(Magic), 0x07, 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(func(t *testing.T, data []byte) {
		tail, err := ScanBytes(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("error is not a *CorruptError: %v", err)
			}
			if ce.Offset < 0 || ce.Offset > int64(len(data)) {
				t.Fatalf("corrupt offset %d outside data of %d bytes", ce.Offset, len(data))
			}
			return
		}
		if tail.ValidEnd < 0 || tail.ValidEnd > int64(len(data)) {
			t.Fatalf("ValidEnd %d outside data of %d bytes", tail.ValidEnd, len(data))
		}
		var last uint64
		for _, b := range tail.Batches {
			if b.Seq <= last {
				t.Fatalf("batch sequences not increasing: %d after %d", b.Seq, last)
			}
			last = b.Seq
			for _, op := range b.Ops {
				switch op.Kind {
				case OpInsert, OpDelete, OpUpdate:
				default:
					t.Fatalf("committed batch %d carries unknown op kind %v", b.Seq, op.Kind)
				}
			}
		}
		if last != tail.LastSeq {
			t.Fatalf("LastSeq %d does not match final batch %d", tail.LastSeq, last)
		}
		again, err := ScanBytes(data[:tail.ValidEnd])
		if err != nil {
			t.Fatalf("accepted prefix fails rescan: %v", err)
		}
		if again.Torn {
			t.Fatal("accepted prefix rescans as torn")
		}
		if len(again.Batches) != len(tail.Batches) || again.LastSeq != tail.LastSeq {
			t.Fatalf("prefix rescan: %d batches last %d, want %d batches last %d",
				len(again.Batches), again.LastSeq, len(tail.Batches), tail.LastSeq)
		}
		if again.ValidEnd != tail.ValidEnd {
			t.Fatalf("prefix rescan ValidEnd %d, want %d", again.ValidEnd, tail.ValidEnd)
		}
	})
}
