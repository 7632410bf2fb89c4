// Package xmlstore stores and queries XML documents in an embedded
// object-relational engine, reproducing "Storing and Querying XML Data in
// Object-Relational DBMSs" (Runapongsa & Patel, EDBT 2002).
//
// Given a DTD, the package derives a storage schema with one of two
// mapping algorithms — the Hybrid inlining baseline of Shanmugasundaram
// et al. (pure relational) or the paper's XORator algorithm, which maps
// entire subtrees of the DTD graph to attributes of an XML abstract data
// type (XADT) — shreds documents into tables, and answers SQL queries
// that may invoke the XADT methods getElm, findKeyInElm, getElmIndex and
// the unnest table function.
//
// Typical use:
//
//	st, err := xmlstore.NewStore(myDTD, xmlstore.Config{Algorithm: xmlstore.XORator})
//	...
//	err = st.LoadXML([]string{doc1, doc2})
//	err = st.CreateDefaultIndexes()
//	err = st.RunStats()
//	res, err := st.Query(`SELECT getElm(speech_line, 'LINE', 'LINE', 'friend') FROM speech`)
package xmlstore

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/engine/exec"
	"repro/internal/engine/wal"
	"repro/internal/mapping"
	"repro/internal/xadt"
)

// Algorithm selects the storage mapping.
type Algorithm = core.Algorithm

// The two mapping algorithms the paper compares.
const (
	// Hybrid is the relational inlining baseline.
	Hybrid = core.Hybrid
	// XORator is the paper's object-relational mapping.
	XORator = core.XORator
)

// Config tunes a Store; see core.Config for field semantics.
type Config = core.Config

// EngineConfig tunes the underlying database (buffer pool size, degree
// of parallelism, memory budget, WAL, MVCC); assign it to Config.Engine.
// Planner ablations go through Store.DB.SetPlannerOptions. Setting
// DOP > 1 — or leaving it 0 to default to runtime.GOMAXPROCS — makes
// scans, hash joins, and XADT UDF evaluation run across that many
// workers, with results identical to serial execution. Setting
// MemBudgetBytes caps each query's tracked operator memory: sorts,
// hash-join builds, and hash aggregates past the budget spill to
// temporary run files (under SpillDir) and still return exactly the
// unlimited-memory rows; Store.SpillStats reports the activity.
type EngineConfig = engine.Config

// SpillStats summarizes the spill activity of memory-bounded queries;
// returned by Store.SpillStats when EngineConfig.MemBudgetBytes is set.
type SpillStats = exec.SpillStats

// Store is a loaded XML store under one mapping.
type Store = core.Store

// Session is one transaction against a concurrent store. Open the store
// with EngineConfig.MVCC set, then Store.NewSession gives a snapshot-
// isolated context whose queries, DML, and document ops see a frozen
// state plus the session's own writes; Commit applies them atomically
// (one WAL batch) or fails with an error wrapping ErrConflict when a
// concurrent transaction committed a write-write conflict first.
type Session = core.Session

// ErrConflict is the sentinel error a conflicting Session.Commit wraps;
// test with errors.Is and retry the transaction.
var ErrConflict = core.ErrConflict

// Stats summarizes a store's storage footprint.
type Stats = core.Stats

// Format identifies an XADT storage representation.
type Format = xadt.Format

// XADT storage representations.
const (
	// Raw stores fragments as tagged text.
	Raw = xadt.Raw
	// Compressed stores fragments with dictionary-coded tag names.
	Compressed = xadt.Compressed
)

// NewStore parses a DTD and prepares an empty store.
func NewStore(dtdSource string, cfg Config) (*Store, error) {
	return core.NewStore(dtdSource, cfg)
}

// FragmentText renders an XADT query-result value as fragment text.
var FragmentText = core.FragmentText

// OpenSnapshotFile restores a store saved with Store.SaveFile, with
// default engine configuration.
func OpenSnapshotFile(path string) (*Store, error) {
	return core.OpenSnapshotFile(path, engine.Config{})
}

// OpenRecovered reopens a WAL-backed store (one created with
// Config.Engine.WALDir set) after a crash or clean shutdown: it loads
// the newest checkpoint and replays the committed write-ahead-log tail,
// dropping any torn final batch. The recovered store accepts further
// loads and checkpoints. Returns ErrNoCheckpoint when the directory
// holds no checkpoint yet.
func OpenRecovered(cfg Config) (*Store, error) {
	return core.OpenRecovered(cfg)
}

// ErrNoCheckpoint reports that a WAL directory holds no checkpoint to
// recover from.
var ErrNoCheckpoint = core.ErrNoCheckpoint

// SyncPolicy selects when the write-ahead log is fsynced; assign one to
// EngineConfig.WALSync.
type SyncPolicy = wal.SyncPolicy

// The WAL sync policies, strongest first.
const (
	// SyncAlways (the zero value) syncs at every batch commit.
	SyncAlways = wal.SyncAlways
	// SyncBatch group-commits: one sync per Load call.
	SyncBatch = wal.SyncBatch
	// SyncOff never syncs explicitly; the OS decides.
	SyncOff = wal.SyncOff
)

// Built-in DTDs from the paper, usable as NewStore inputs and with the
// bundled data generators.
const (
	// PlaysDTD is the running example of Figure 1.
	PlaysDTD = corpus.PlaysDTD
	// ShakespeareDTD is the full Shakespeare DTD of Figure 10.
	ShakespeareDTD = corpus.ShakespeareDTD
	// SigmodDTD is the SIGMOD Proceedings DTD of Figure 12.
	SigmodDTD = corpus.SigmodDTD
)

// SchemaText maps a DTD with the chosen algorithm and renders the
// resulting relational schema in the paper's notation (Figures 5 and 6).
func SchemaText(dtdSource string, alg Algorithm) (string, error) {
	d, err := dtd.Parse(dtdSource)
	if err != nil {
		return "", err
	}
	s := dtd.Simplify(d)
	var schema *mapping.Schema
	switch alg {
	case Hybrid:
		schema, err = mapping.Hybrid(s)
	case XORator, "":
		schema, err = mapping.XORator(s)
	default:
		return "", fmt.Errorf("xmlstore: unknown algorithm %q", alg)
	}
	if err != nil {
		return "", err
	}
	return schema.String(), nil
}

// MonetTableCount estimates the table count of the Monet path mapping for
// a DTD — the §2 comparison point (95-ish tables for Shakespeare against
// XORator's 7).
func MonetTableCount(dtdSource string) (int, error) {
	d, err := dtd.Parse(dtdSource)
	if err != nil {
		return 0, err
	}
	return mapping.MonetTableCount(dtd.Simplify(d))
}
