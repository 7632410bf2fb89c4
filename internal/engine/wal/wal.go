// Package wal implements the engine's record-level write-ahead log: a
// single append-only file of length- and CRC32-framed entries, delimited
// into batches by commit frames. One batch is one committed transaction
// (a loaded document, a statement, a session), so recovery replays
// exactly the committed prefix.
// All file I/O goes through storage.VFS, which lets tests drive every
// crash point deterministically with a fault-injecting filesystem.
//
// On-disk layout (pinned by the golden-format test):
//
//	file  := magic frame*
//	magic := "XORWAL01"
//	frame := type(1) | payloadLen(uvarint) | payload | crc32(4, LE)
//
// The CRC is IEEE CRC-32 over the type byte, the length bytes, and the
// payload. Frame types:
//
//	0x01 insert : uvarint(len(table)) | table | record  (record ≤ storage.MaxInlineRecord)
//	0x02 blob   : same payload, record > storage.MaxInlineRecord (heap overflow blob)
//	0x03 format : 1 byte XADT storage format (logged when the loader fixes it)
//	0x04 commit : uvarint(batch sequence number, strictly increasing)
//	0x05 delete : uvarint(len(table)) | table | uvarint(page) | uvarint(slot)
//	0x06 update : uvarint(len(table)) | table | uvarint(page) | uvarint(slot) | record (any size)
//
// Delete and update frames address rows by RID, which is sound because
// snapshots persist raw page images and free lists verbatim and every
// heap placement decision is a pure function of the op sequence: replay
// onto the checkpoint state lands each op on exactly the row it was
// logged against.
//
// A batch is durable iff its commit frame is intact; replay applies only
// complete batches and treats a torn or CRC-corrupt tail as the crash
// point, truncating it on resume.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// Magic identifies a WAL file and pins its format version.
const Magic = "XORWAL01"

// Frame types.
const (
	frameInsert byte = 0x01
	frameBlob   byte = 0x02
	frameFormat byte = 0x03
	frameCommit byte = 0x04
	frameDelete byte = 0x05
	frameUpdate byte = 0x06
)

// FileName is the log file inside the WAL directory.
const FileName = "wal.log"

// SyncPolicy selects when the log is fsynced.
type SyncPolicy int

const (
	// SyncAlways syncs at every batch commit — every committed document
	// survives an OS crash. The zero value, because it is the safest.
	SyncAlways SyncPolicy = iota
	// SyncBatch group-commits: the log is synced every GroupSize commits
	// and on Close/Reset, trading a bounded window of committed batches
	// for load throughput.
	SyncBatch
	// SyncOff never syncs explicitly; durability degrades to whatever
	// the OS flushes, but process-crash recovery is unaffected.
	SyncOff
)

// String renders the policy as its config spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// DefaultGroupSize is the commits-per-sync interval of SyncBatch.
const DefaultGroupSize = 8

// Writer appends batches to the log. It is not safe for concurrent use;
// the engine's load path is single-threaded by design.
type Writer struct {
	vfs    storage.VFS
	f      storage.File
	policy SyncPolicy
	// GroupSize is the commits-per-sync interval under SyncBatch;
	// defaults to DefaultGroupSize.
	GroupSize int

	seq       uint64 // last committed batch sequence number
	sinceSync int
	broken    error // first write/sync failure; the writer refuses further work
}

// Create initializes a fresh log in dir (creating the directory),
// truncating any existing log file.
func Create(vfs storage.VFS, dir string, policy SyncPolicy) (*Writer, error) {
	if err := vfs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating dir: %w", err)
	}
	f, err := vfs.Create(path.Join(dir, FileName))
	if err != nil {
		return nil, fmt.Errorf("wal: creating log: %w", err)
	}
	w := &Writer{vfs: vfs, f: f, policy: policy, GroupSize: DefaultGroupSize}
	if _, err := f.Write([]byte(Magic)); err != nil {
		return nil, fmt.Errorf("wal: writing magic: %w", err)
	}
	if err := w.maybeSync(true); err != nil {
		return nil, err
	}
	return w, nil
}

// Resume reopens the log for appending after recovery: the file is
// truncated at validEnd (discarding any torn tail the scan stopped at)
// and the writer continues from sequence number lastSeq. If the log is
// missing or its magic itself was torn, a fresh log is created.
func Resume(vfs storage.VFS, dir string, policy SyncPolicy, lastSeq uint64, validEnd int64) (*Writer, error) {
	if validEnd < int64(len(Magic)) {
		w, err := Create(vfs, dir, policy)
		if err != nil {
			return nil, err
		}
		w.seq = lastSeq
		return w, nil
	}
	f, err := vfs.Open(path.Join(dir, FileName))
	if err != nil {
		return nil, fmt.Errorf("wal: reopening log: %w", err)
	}
	if err := f.Truncate(validEnd); err != nil {
		return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		return nil, err
	}
	w := &Writer{vfs: vfs, f: f, policy: policy, GroupSize: DefaultGroupSize, seq: lastSeq}
	if err := w.maybeSync(true); err != nil {
		return nil, err
	}
	return w, nil
}

// LastCommitted returns the sequence number of the last committed batch
// (equivalently: the number of batches ever committed, since numbering is
// dense from 1 and survives checkpoints).
func (w *Writer) LastCommitted() uint64 { return w.seq }

// Reset truncates the log to empty after a checkpoint. The sequence
// counter is retained: post-checkpoint batches continue the numbering, so
// a stale log left by a crash between checkpoint publication and Reset is
// skipped by the snapshot's last-batch watermark instead of replaying
// twice.
func (w *Writer) Reset() error {
	if w.broken != nil {
		return w.broken
	}
	if err := w.f.Truncate(0); err != nil {
		return w.fail(fmt.Errorf("wal: reset truncate: %w", err))
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return w.fail(err)
	}
	if _, err := w.f.Write([]byte(Magic)); err != nil {
		return w.fail(fmt.Errorf("wal: reset magic: %w", err))
	}
	w.sinceSync = 0
	return w.maybeSync(true)
}

// Close syncs pending commits and closes the log file.
func (w *Writer) Close() error {
	if w.broken != nil {
		w.f.Close()
		return w.broken
	}
	if err := w.maybeSync(true); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

func (w *Writer) fail(err error) error {
	if w.broken == nil {
		w.broken = err
	}
	return err
}

// maybeSync syncs according to the policy; force overrides the group
// interval (used at magic writes, resets, and Close).
func (w *Writer) maybeSync(force bool) error {
	if w.policy == SyncOff {
		return nil
	}
	if !force && w.policy == SyncBatch {
		w.sinceSync++
		gs := w.GroupSize
		if gs <= 0 {
			gs = DefaultGroupSize
		}
		if w.sinceSync < gs {
			return nil
		}
	}
	w.sinceSync = 0
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("wal: sync: %w", err))
	}
	return nil
}

// Batch accumulates the frames of one committed transaction (a loaded
// document, a statement, a session). Frames are buffered in memory and
// reach the file only at Commit, so an abandoned batch leaves no trace
// in the log.
type Batch struct {
	w      *Writer
	format []byte // the format frame, if set; written ahead of frames
	frames [][]byte
}

// Begin starts a new batch.
func (w *Writer) Begin() *Batch { return &Batch{w: w} }

// SetFormat logs the XADT storage-format decision as part of this batch,
// so recovery restores the same representation for resumed loads. It
// may be called at any point before Commit, which writes the format
// frame ahead of the batch's row frames.
func (b *Batch) SetFormat(format byte) {
	b.format = appendFrame(nil, frameFormat, []byte{format})
}

// Insert logs one row insert. Rows whose encoded record exceeds the
// inline page capacity are framed as overflow blobs, mirroring the heap
// file's inline/overflow split.
func (b *Batch) Insert(table string, row []types.Value) error {
	rec := storage.EncodeRecord(row)
	payload := make([]byte, 0, binary.MaxVarintLen64+len(table)+len(rec))
	payload = binary.AppendUvarint(payload, uint64(len(table)))
	payload = append(payload, table...)
	payload = append(payload, rec...)
	typ := frameInsert
	if len(rec) > storage.MaxInlineRecord {
		typ = frameBlob
	}
	b.frames = append(b.frames, appendFrame(nil, typ, payload))
	return nil
}

// Delete logs one row deletion, addressed by the row's RID at apply
// time.
func (b *Batch) Delete(table string, rid storage.RID) error {
	payload := make([]byte, 0, binary.MaxVarintLen64+len(table)+2*binary.MaxVarintLen32)
	payload = binary.AppendUvarint(payload, uint64(len(table)))
	payload = append(payload, table...)
	payload = binary.AppendUvarint(payload, uint64(uint32(rid.Page)))
	payload = binary.AppendUvarint(payload, uint64(uint32(rid.Slot)))
	b.frames = append(b.frames, appendFrame(nil, frameDelete, payload))
	return nil
}

// Update logs one row rewrite: the row's pre-update RID and its full new
// image. Replay re-executes the rewrite, reproducing any row movement.
func (b *Batch) Update(table string, rid storage.RID, row []types.Value) error {
	rec := storage.EncodeRecord(row)
	payload := make([]byte, 0, binary.MaxVarintLen64+len(table)+2*binary.MaxVarintLen32+len(rec))
	payload = binary.AppendUvarint(payload, uint64(len(table)))
	payload = append(payload, table...)
	payload = binary.AppendUvarint(payload, uint64(uint32(rid.Page)))
	payload = binary.AppendUvarint(payload, uint64(uint32(rid.Slot)))
	payload = append(payload, rec...)
	b.frames = append(b.frames, appendFrame(nil, frameUpdate, payload))
	return nil
}

// Commit writes the batch's frames followed by its commit frame and syncs
// per the writer's policy. After a successful Commit the batch's rows are
// replayed by recovery; before it, they are invisible.
func (b *Batch) Commit() error {
	w := b.w
	if w.broken != nil {
		return w.broken
	}
	seq := w.seq + 1
	frames := b.frames
	if b.format != nil {
		frames = append([][]byte{b.format}, frames...)
	}
	frames = append(frames, appendFrame(nil, frameCommit, binary.AppendUvarint(nil, seq)))
	for _, fr := range frames {
		if _, err := w.f.Write(fr); err != nil {
			return w.fail(fmt.Errorf("wal: commit write: %w", err))
		}
	}
	if err := w.maybeSync(false); err != nil {
		return err
	}
	w.seq = seq
	b.format, b.frames = nil, nil
	return nil
}

// appendFrame encodes one frame onto dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, typ)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}
