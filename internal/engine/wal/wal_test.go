package wal

import (
	"errors"
	"io"
	"path"
	"strings"
	"testing"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

func row(vals ...any) []types.Value {
	out := make([]types.Value, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = types.NewInt(int64(x))
		case string:
			out[i] = types.NewString(x)
		case []byte:
			out[i] = types.NewXADT(x)
		case nil:
			out[i] = types.Null
		default:
			panic("unsupported test value")
		}
	}
	return out
}

func TestCommitRoundTrip(t *testing.T) {
	vfs := storage.NewMemVFS()
	w, err := Create(vfs, "wal", SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	b := w.Begin()
	b.SetFormat(1)
	if err := b.Insert("t1", row(1, "hello", nil)); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("t2", row(2, []byte("frag"))); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	b2 := w.Begin()
	if err := b2.Insert("t1", row(3, "world", nil)); err != nil {
		t.Fatal(err)
	}
	if err := b2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := w.LastCommitted(); got != 2 {
		t.Fatalf("LastCommitted = %d, want 2", got)
	}

	tail, err := Scan(vfs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Batches) != 2 || tail.Torn {
		t.Fatalf("batches=%d torn=%v, want 2 clean", len(tail.Batches), tail.Torn)
	}
	b0 := tail.Batches[0]
	if b0.Seq != 1 || b0.Format == nil || *b0.Format != 1 || len(b0.Ops) != 2 {
		t.Fatalf("batch 0 = %+v", b0)
	}
	if b0.Ops[0].Table != "t1" || b0.Ops[0].Row[1].Str() != "hello" {
		t.Fatalf("record 0 = %+v", b0.Ops[0])
	}
	if tail.Batches[1].Format != nil {
		t.Fatal("batch 1 should carry no format frame")
	}
	if tail.LastSeq != 2 {
		t.Fatalf("LastSeq = %d", tail.LastSeq)
	}
}

func TestOverflowBlobFraming(t *testing.T) {
	vfs := storage.NewMemVFS()
	w, err := Create(vfs, "wal", SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", storage.MaxInlineRecord+100)
	b := w.Begin()
	if err := b.Insert("t", row(1, big)); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert("t", row(2, "small")); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	tail, err := Scan(vfs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	recs := tail.Batches[0].Ops
	if !recs[0].Overflow || recs[1].Overflow {
		t.Fatalf("overflow flags = %v %v, want true false", recs[0].Overflow, recs[1].Overflow)
	}
	if recs[0].Row[1].Str() != big {
		t.Fatal("blob payload did not round-trip")
	}
}

func TestUncommittedBatchInvisible(t *testing.T) {
	vfs := storage.NewMemVFS()
	w, err := Create(vfs, "wal", SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	b := w.Begin()
	if err := b.Insert("t", row(1)); err != nil {
		t.Fatal(err)
	}
	// Abandoned batch: never committed, so nothing must reach the log.
	tail, err := Scan(vfs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Batches) != 0 {
		t.Fatalf("abandoned batch leaked %d batches", len(tail.Batches))
	}
}

func TestTornTailDroppedAndResumed(t *testing.T) {
	vfs := storage.NewMemVFS()
	w, err := Create(vfs, "wal", SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	b := w.Begin()
	if err := b.Insert("t", row(1, "committed")); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: append garbage that is not a whole frame.
	f, err := vfs.Open(path.Join("wal", FileName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{frameInsert, 0xff, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tail, err := Scan(vfs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Batches) != 1 || !tail.Torn {
		t.Fatalf("batches=%d torn=%v, want 1 torn", len(tail.Batches), tail.Torn)
	}

	// Resume truncates the tail and continues the numbering.
	w2, err := Resume(vfs, "wal", SyncAlways, tail.LastSeq, tail.ValidEnd)
	if err != nil {
		t.Fatal(err)
	}
	b2 := w2.Begin()
	if err := b2.Insert("t", row(2, "after")); err != nil {
		t.Fatal(err)
	}
	if err := b2.Commit(); err != nil {
		t.Fatal(err)
	}
	tail2, err := Scan(vfs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(tail2.Batches) != 2 || tail2.Torn || tail2.LastSeq != 2 {
		t.Fatalf("after resume: batches=%d torn=%v last=%d", len(tail2.Batches), tail2.Torn, tail2.LastSeq)
	}
}

func TestResetKeepsSequence(t *testing.T) {
	vfs := storage.NewMemVFS()
	w, err := Create(vfs, "wal", SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b := w.Begin()
		if err := b.Insert("t", row(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	tail, err := Scan(vfs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(tail.Batches) != 0 {
		t.Fatal("reset log should be empty")
	}
	b := w.Begin()
	if err := b.Insert("t", row(9)); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	tail, err = Scan(vfs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if tail.LastSeq != 4 {
		t.Fatalf("sequence after reset = %d, want 4", tail.LastSeq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestScanCorruptions(t *testing.T) {
	build := func() []byte {
		vfs := storage.NewMemVFS()
		w, err := Create(vfs, "wal", SyncOff)
		if err != nil {
			t.Fatal(err)
		}
		b := w.Begin()
		if err := b.Insert("t", row(1, "abc")); err != nil {
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
		return data
	}

	t.Run("bad magic is corrupt", func(t *testing.T) {
		data := build()
		data[0] ^= 0xff
		_, err := ScanBytes(data)
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want CorruptError", err)
		}
	})
	t.Run("flipped payload byte is a torn tail", func(t *testing.T) {
		data := build()
		data[len(Magic)+3] ^= 0x01 // inside the first frame: CRC now fails
		tail, err := ScanBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(tail.Batches) != 0 || !tail.Torn {
			t.Fatalf("batches=%d torn=%v", len(tail.Batches), tail.Torn)
		}
	})
	t.Run("every truncation keeps a committed prefix", func(t *testing.T) {
		data := build()
		for cut := 0; cut < len(data); cut++ {
			tail, err := ScanBytes(data[:cut])
			if err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("cut %d: %v", cut, err)
				}
				continue
			}
			if len(tail.Batches) > 1 {
				t.Fatalf("cut %d produced %d batches", cut, len(tail.Batches))
			}
		}
	})
	t.Run("magic-only log is clean and empty", func(t *testing.T) {
		tail, err := ScanBytes([]byte(Magic))
		if err != nil || len(tail.Batches) != 0 || tail.Torn {
			t.Fatalf("tail=%+v err=%v", tail, err)
		}
	})
}

func TestSyncPolicyString(t *testing.T) {
	for p, want := range map[SyncPolicy]string{SyncAlways: "always", SyncBatch: "batch", SyncOff: "off", SyncPolicy(9): "SyncPolicy(9)"} {
		if got := p.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
