package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path"

	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/wal"
	"repro/internal/mapping"
	"repro/internal/shred"
	"repro/internal/xadt"
)

// storeHeader is the metadata a snapshot needs to rebuild a Store around
// the restored tables. Version 2 adds the durability fields; version 1
// snapshots (no WAL) still load, with FormatSet assumed true as it was
// then.
type storeHeader struct {
	Version   int    `json:"version"`
	Algorithm string `json:"algorithm"`
	Format    byte   `json:"format"`
	// FormatSet reports whether the XADT storage-format decision had
	// been made (the first documents loaded) when the snapshot was
	// taken.
	FormatSet bool `json:"format_set"`
	// LastBatch is the WAL batch sequence number this snapshot absorbs;
	// recovery replays only batches after it.
	LastBatch uint64 `json:"last_batch"`
	// IDs are the loader's per-relation ID counters at snapshot time.
	// They can exceed the highest stored ID when high rows were deleted,
	// and counters must never move backwards — reusing an ID would alias
	// two elements — so restore takes them as floors. Absent in snapshots
	// predating DML, where counters always equaled the stored maximum.
	IDs map[string]int64 `json:"ids,omitempty"`
	DTD string           `json:"dtd"`
}

// snapshotVersion is the header version Save writes.
const snapshotVersion = 2

// ErrNoCheckpoint reports that a WAL directory holds no checkpoint to
// recover from — either the store never finished creation or the
// directory is wrong.
var ErrNoCheckpoint = errors.New("core: WAL directory has no checkpoint")

// checkpointPath locates the checkpoint snapshot inside a WAL directory.
func checkpointPath(dir string) string { return path.Join(dir, "checkpoint.snap") }

// Save writes the store — its mapping metadata, DTD, and all table data —
// to w. Restore with OpenSnapshot. On a WAL-enabled store the header is
// stamped with the last committed batch, making the snapshot a valid
// checkpoint base.
func (st *Store) Save(w io.Writer) error {
	var ids map[string]int64
	if st.loader != nil {
		ids = st.loader.TupleCounts()
	}
	hdr, err := json.Marshal(storeHeader{
		Version:   snapshotVersion,
		Algorithm: string(st.cfg.Algorithm),
		Format:    byte(st.Format),
		FormatSet: st.loader != nil,
		LastBatch: st.CommittedBatches(),
		IDs:       ids,
		DTD:       st.DTD.String(),
	})
	if err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(hdr)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return st.DB.Save(w)
}

// SaveFile writes a snapshot to path.
func (st *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := st.Save(f); err != nil {
		return err
	}
	return f.Sync()
}

// Checkpoint makes the store's current committed state the recovery base
// and truncates the log: the snapshot is written to a temporary file,
// synced, atomically renamed over the previous checkpoint, and only then
// is the WAL reset. A crash at any point leaves either the old
// checkpoint with a full log or the new checkpoint with a log whose
// batches it already absorbs (skipped on replay by the LastBatch
// watermark) — never a state that loses committed documents.
func (st *Store) Checkpoint() error {
	if st.wal == nil {
		return errors.New("core: Checkpoint requires a WAL store (set Engine.WALDir)")
	}
	if st.DB.TxnMgr != nil {
		// Quiesce commits while the snapshot scan runs: all mutation
		// happens inside the commit path, so holding the commit mutex
		// gives Save a stable heap without blocking snapshot readers.
		return st.DB.TxnMgr.Quiesce(st.checkpointLocked)
	}
	return st.checkpointLocked()
}

func (st *Store) checkpointLocked() error {
	dir := st.cfg.Engine.WALDir
	tmp := checkpointPath(dir) + ".tmp"
	f, err := st.vfs.Create(tmp)
	if err != nil {
		return err
	}
	if err := st.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := st.vfs.Rename(tmp, checkpointPath(dir)); err != nil {
		return err
	}
	return st.wal.Reset()
}

// decodeSnapshot reads a snapshot stream into a store skeleton: header
// metadata, schema, and restored tables — but no loader and no WAL
// attachment, which the callers layer on.
func decodeSnapshot(r io.Reader, engineCfg engine.Config) (*Store, *storeHeader, error) {
	br := bufio.NewReader(r)
	hlen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading snapshot header length: %w", err)
	}
	if hlen > 1<<24 {
		return nil, nil, fmt.Errorf("core: implausible snapshot header size %d", hlen)
	}
	raw := make([]byte, hlen)
	if _, err := io.ReadFull(br, raw); err != nil {
		return nil, nil, err
	}
	var hdr storeHeader
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return nil, nil, fmt.Errorf("core: decoding snapshot header: %w", err)
	}
	switch hdr.Version {
	case 1:
		// Version 1 predates the durability fields; its loader was
		// always resumable, so the format counts as decided.
		hdr.FormatSet = true
	case snapshotVersion:
	default:
		return nil, nil, fmt.Errorf("core: unsupported snapshot version %d", hdr.Version)
	}

	d, err := dtd.Parse(hdr.DTD)
	if err != nil {
		return nil, nil, fmt.Errorf("core: snapshot DTD: %w", err)
	}
	simplified := dtd.Simplify(d)
	alg := Algorithm(hdr.Algorithm)
	var schema *mapping.Schema
	switch alg {
	case Hybrid:
		schema, err = mapping.Hybrid(simplified)
	case XORator:
		schema, err = mapping.XORator(simplified)
	default:
		return nil, nil, fmt.Errorf("core: snapshot algorithm %q", hdr.Algorithm)
	}
	if err != nil {
		return nil, nil, err
	}

	db, err := engine.OpenSnapshot(br, engineCfg)
	if err != nil {
		return nil, nil, err
	}
	return &Store{
		DB:         db,
		DTD:        d,
		Simplified: simplified,
		Schema:     schema,
		Format:     xadt.Format(hdr.Format),
		cfg: Config{
			Algorithm: alg,
			Engine:    engineCfg,
		},
	}, &hdr, nil
}

// OpenSnapshot restores a store written by Save. Further Load calls
// resume ID assignment where the snapshot left off.
func OpenSnapshot(r io.Reader, engineCfg engine.Config) (*Store, error) {
	st, hdr, err := decodeSnapshot(r, engineCfg)
	if err != nil {
		return nil, err
	}
	if hdr.FormatSet {
		if err := st.resumeLoader(hdr.IDs); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// resumeLoader attaches a loader continuing ID assignment from the
// highest stored IDs, raised to any floors the caller carries over (the
// snapshot's persisted counters, IDs seen in replayed inserts),
// preserving the store's storage representation.
func (st *Store) resumeLoader(floors ...map[string]int64) error {
	loader, err := shred.ResumeLoader(st.DB, st.Schema, st.Format)
	if err != nil {
		return err
	}
	for _, fl := range floors {
		for rel, id := range fl {
			loader.EnsureIDFloor(rel, id)
		}
	}
	st.loader = loader
	return nil
}

// OpenSnapshotFile restores a store from a file written by SaveFile.
func OpenSnapshotFile(path string, engineCfg engine.Config) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return OpenSnapshot(f, engineCfg)
}

// OpenRecovered restores the store in cfg.Engine.WALDir to its last
// consistent state after a crash: the checkpoint snapshot is loaded, the
// WAL tail is scanned and every complete batch after the checkpoint's
// watermark is replayed, the torn tail (if any) is truncated, and the
// log is reopened for appending — so loading can resume exactly where
// the committed prefix ends (CommittedBatches reports how far that is).
//
// Structural log damage beyond a torn tail surfaces as a
// *wal.CorruptError; a directory without a checkpoint yields
// ErrNoCheckpoint. The store's identity (mapping algorithm, XADT format)
// comes from the checkpoint, not from cfg, which supplies the engine
// configuration and ForceFormat — the latter matters only when the crash
// preceded the first committed batch, so the format decision has not
// been logged yet and resumed loading must re-make it.
func OpenRecovered(cfg Config) (*Store, error) {
	dir := cfg.Engine.WALDir
	if dir == "" {
		return nil, errors.New("core: OpenRecovered requires Engine.WALDir")
	}
	vfs := cfg.Engine.VFS
	if vfs == nil {
		vfs = storage.OSFS{}
	}
	f, err := vfs.Open(checkpointPath(dir))
	if err != nil {
		if storage.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, dir)
		}
		return nil, err
	}
	st, hdr, err := decodeSnapshot(f, cfg.Engine)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	st.cfg.ForceFormat = cfg.ForceFormat
	// The checkpoint may predate the first load (it is written at store
	// creation), so make sure every mapped relation exists before
	// replay.
	if err := shred.EnsureTables(st.DB, st.Schema); err != nil {
		return nil, err
	}

	tail, err := wal.Scan(vfs, dir)
	if err != nil {
		return nil, err
	}
	formatSet := hdr.FormatSet
	// Track the highest ID each replayed insert assigns per relation:
	// together with the checkpoint's persisted counters, these floor the
	// resumed loader's counters so post-recovery loads assign exactly the
	// IDs a never-crashed store would, even when the max-ID rows were
	// deleted again later in the log.
	maxSeen := map[string]int64{}
	var k xadt.Walker
	for _, b := range tail.Batches {
		if b.Seq <= hdr.LastBatch {
			// Already absorbed by the checkpoint; a crash between
			// checkpoint publication and log truncation leaves these
			// behind.
			continue
		}
		if b.Format != nil {
			st.Format = xadt.Format(*b.Format)
			formatSet = true
		}
		for _, op := range b.Ops {
			if err := st.replayOp(b.Seq, op, &k); err != nil {
				return nil, err
			}
			if op.Kind != wal.OpInsert {
				continue
			}
			if rel := st.Schema.Relation(op.Table); rel != nil {
				if ic := idColumn(rel); ic >= 0 && ic < len(op.Row) {
					if v := op.Row[ic]; v.Kind() == types.KindInt && v.Int() > maxSeen[op.Table] {
						maxSeen[op.Table] = v.Int()
					}
				}
			}
		}
	}
	if formatSet {
		if err := st.resumeLoader(hdr.IDs, maxSeen); err != nil {
			return nil, err
		}
	}

	lastSeq := tail.LastSeq
	if hdr.LastBatch > lastSeq {
		lastSeq = hdr.LastBatch
	}
	w, err := wal.Resume(vfs, dir, cfg.Engine.WALSync, lastSeq, tail.ValidEnd)
	if err != nil {
		return nil, err
	}
	st.wal = w
	st.vfs = vfs
	st.recovered = true
	// Statistics come from the checkpoint snapshot; replayOp advanced the
	// modification counters through the WAL tail, so the staleness clock
	// matches a store that never crashed. Callers that want fresh
	// statistics run RunStats explicitly, exactly as on a live store.
	return st, nil
}
