// Package core ties the reproduction together as a usable library: given
// a DTD and a mapping algorithm it derives the relational or
// object-relational schema, decides the XADT storage representation by
// sampling (§4.1), shreds documents, builds the workload's indexes, and
// answers SQL queries.
package core

import (
	"fmt"

	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/wal"
	"repro/internal/mapping"
	"repro/internal/shred"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

// Algorithm selects the storage mapping.
type Algorithm string

// The two mapping algorithms the paper compares.
const (
	// Hybrid is the relational baseline of Shanmugasundaram et al.
	Hybrid Algorithm = "hybrid"
	// XORator is the paper's object-relational mapping with XADT
	// attributes.
	XORator Algorithm = "xorator"
)

// Config tunes a Store.
type Config struct {
	// Algorithm picks the mapping; default XORator.
	Algorithm Algorithm
	// ForceFormat, when non-nil, overrides the sampling decision.
	ForceFormat *xadt.Format
	// Engine configures the underlying database.
	Engine engine.Config
}

// The XADT format decision of §4.1: the first loaded batch's leading
// sampleDocs documents are sampled, and the compressed representation is
// chosen only when it saves at least minCompressionSaving of their size.
const (
	sampleDocs           = 5
	minCompressionSaving = 0.20
)

// Store is a loaded XML store under one mapping.
type Store struct {
	// DB is the underlying database; queries run against it.
	DB *engine.Database
	// DTD is the parsed document type definition.
	DTD *dtd.DTD
	// Simplified is the simplification the mapping consumed.
	Simplified *dtd.SimplifiedDTD
	// Schema is the mapped relational schema.
	Schema *mapping.Schema
	// Format is the XADT storage representation in use.
	Format xadt.Format

	cfg    Config
	loader *shred.Loader

	// Durability state, present only when cfg.Engine.WALDir is set: the
	// write-ahead log writer, the filesystem it goes through, and
	// whether the XADT format decision still needs to be logged with
	// the next committed batch.
	wal           *wal.Writer
	vfs           storage.VFS
	pendingFormat bool
	// recovered marks a store rebuilt by OpenRecovered whose mapped
	// tables already exist (possibly empty, with no format decided yet),
	// so the first Load must resume the loader rather than create one.
	recovered bool
}

// Stats summarizes a store's storage footprint.
type Stats struct {
	Algorithm  Algorithm
	Tables     int
	Rows       int64
	DataBytes  int64
	IndexBytes int64
	Format     xadt.Format
}

// String renders the stats like the paper's Tables 1 and 2.
func (s Stats) String() string {
	return fmt.Sprintf("%-8s tables=%d rows=%d database=%.1fMB indexes=%.1fMB format=%s",
		s.Algorithm, s.Tables, s.Rows,
		float64(s.DataBytes)/(1<<20), float64(s.IndexBytes)/(1<<20), s.Format)
}

// NewStore parses dtdSource, derives the schema for the configured
// algorithm, and prepares an empty database. The XADT storage format is
// decided when the first documents are loaded (or by ForceFormat).
func NewStore(dtdSource string, cfg Config) (*Store, error) {
	if cfg.Algorithm == "" {
		cfg.Algorithm = XORator
	}
	d, err := dtd.Parse(dtdSource)
	if err != nil {
		return nil, err
	}
	s := dtd.Simplify(d)
	var schema *mapping.Schema
	switch cfg.Algorithm {
	case Hybrid:
		schema, err = mapping.Hybrid(s)
	case XORator:
		schema, err = mapping.XORator(s)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", cfg.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	st := &Store{
		DB:         engine.Open(cfg.Engine),
		DTD:        d,
		Simplified: s,
		Schema:     schema,
		cfg:        cfg,
	}
	if cfg.Engine.WALDir != "" {
		if err := st.openWAL(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// openWAL initializes durability for a fresh store: it refuses a WAL
// directory that already holds a store (recover it with OpenRecovered or
// remove it explicitly — silently clobbering a recoverable store would
// defeat the log), creates the log, and writes the initial checkpoint so
// recovery always has a base state.
func (st *Store) openWAL() error {
	st.vfs = st.cfg.Engine.VFS
	if st.vfs == nil {
		st.vfs = storage.OSFS{}
	}
	dir := st.cfg.Engine.WALDir
	if _, err := st.vfs.Stat(checkpointPath(dir)); err == nil {
		return fmt.Errorf("core: WAL dir %s already holds a store; use OpenRecovered or remove it", dir)
	} else if !storage.IsNotExist(err) {
		return err
	}
	w, err := wal.Create(st.vfs, dir, st.cfg.Engine.WALSync)
	if err != nil {
		return err
	}
	st.wal = w
	return st.Checkpoint()
}

// mvccDirect runs a mutation outside a session. On a single-user store
// it runs fn as-is; on an MVCC store it wraps fn in its own committed
// transaction — the exclusive-latch direct path, where the catalog
// hooks stamp versions and journal conflict keys so concurrent snapshot
// sessions stay isolated from (and conflict-checked against) it.
func (st *Store) mvccDirect(fn func() error) error {
	if st.DB.TxnMgr == nil {
		return fn()
	}
	return st.DB.TxnMgr.RunDirect(func(uint64) error { return fn() })
}

// Load shreds documents into the store, each document one WAL batch:
// its tuples are logged as they are shredded and become durable
// together, so recovery never sees half a document. The first call
// fixes the XADT storage representation by sampling the batch.
func (st *Store) Load(docs []*xmltree.Document) error {
	return st.mvccDirect(func() error {
		if err := st.ensureLoader(docs); err != nil {
			return err
		}
		for _, doc := range docs {
			if err := st.commit(func(b *wal.Batch) error { return st.loadDocument(nil, 0, doc, b) }); err != nil {
				return err
			}
		}
		return nil
	})
}

// ensureLoader creates the loader on first use, fixing the XADT storage
// representation by sampling docs (the paper parses "a few sample
// documents" and compresses only if it saves at least the threshold).
func (st *Store) ensureLoader(docs []*xmltree.Document) error {
	if st.loader != nil {
		return nil
	}
	format := xadt.Raw
	if st.cfg.ForceFormat != nil {
		format = *st.cfg.ForceFormat
	} else if st.cfg.Algorithm == XORator {
		format = shred.ChooseFormat(st.Schema, docs[:min(sampleDocs, len(docs))], minCompressionSaving)
	}
	var loader *shred.Loader
	var err error
	if st.recovered {
		// Recovery already created the (empty) mapped tables; attach
		// to them instead of refusing to re-create them.
		loader, err = shred.ResumeLoader(st.DB, st.Schema, format)
	} else {
		loader, err = shred.NewLoader(st.DB, st.Schema, format)
	}
	if err != nil {
		return err
	}
	st.loader = loader
	st.Format = format
	if st.wal != nil {
		// The format decision must survive a crash: log it with the
		// next committed batch so a recovered store resumes loading
		// under the same representation.
		st.pendingFormat = true
	}
	return nil
}

// LoadXML parses and loads document texts.
func (st *Store) LoadXML(texts []string) error {
	docs := make([]*xmltree.Document, len(texts))
	for i, text := range texts {
		doc, err := xmltree.Parse(text)
		if err != nil {
			return err
		}
		docs[i] = doc
	}
	return st.Load(docs)
}

// CreateDefaultIndexes builds the indexes the workloads use — the
// stand-in for running the DB2 Index Wizard: B+trees on every ID,
// parentID, parentCODE and childOrder column, plus every string-valued
// column (value, inlined and attribute columns), which the selection
// queries filter on. Fragment columns get the secondary XADT index
// (structural paths + inverted keywords) instead of a B+tree on the
// bytes. A table's new indexes are filled in one pass over its heap.
func (st *Store) CreateDefaultIndexes() error {
	if st.DB.TxnMgr != nil {
		// Index builds scan heaps and splice shared structures; take the
		// store exclusively so no session commits mid-build.
		return st.DB.TxnMgr.Exclusive(st.createDefaultIndexesLocked)
	}
	return st.createDefaultIndexesLocked()
}

func (st *Store) createDefaultIndexesLocked() error {
	for _, rel := range st.Schema.Relations {
		t := st.DB.Catalog.Table(rel.Name)
		var cols []string
		for _, col := range rel.Columns {
			// Skip indexes that already exist so the call is idempotent —
			// a store recovered from a checkpoint carries that
			// checkpoint's index definitions.
			if t != nil && (t.IndexOn(col.Name) != nil || t.FragIndexOn(col.Name) != nil) {
				continue
			}
			cols = append(cols, col.Name)
		}
		if len(cols) == 0 {
			continue
		}
		if err := st.DB.CreateIndexes(rel.Name, cols); err != nil {
			return err
		}
	}
	return nil
}

// RunStats refreshes optimizer statistics (the paper always runs
// runstats before measuring).
func (st *Store) RunStats() error {
	if st.DB.TxnMgr != nil {
		return st.DB.TxnMgr.Exclusive(st.DB.RunStats)
	}
	return st.DB.RunStats()
}

// Query runs a SQL query against the store. On an MVCC store it runs
// under an implicit read-only session, so it sees a consistent snapshot
// even while writers commit concurrently.
func (st *Store) Query(query string) (*engine.Result, error) {
	if st.DB.TxnMgr != nil {
		s, err := st.NewSession()
		if err != nil {
			return nil, err
		}
		defer s.Rollback()
		return s.Query(query)
	}
	return st.DB.Query(query)
}

// JoinCount reports how many joins a query plans to.
func (st *Store) JoinCount(query string) (int, error) {
	return st.DB.JoinCount(query)
}

// SpillStats reports accumulated spill activity of memory-bounded
// queries (EngineConfig.MemBudgetBytes > 0): run files written, bytes
// spilled, intermediate merge passes, and the peak tracked operator
// memory of any query so far.
func (st *Store) SpillStats() exec.SpillStats { return st.DB.SpillStats() }

// Stats reports the storage footprint.
func (st *Store) Stats() Stats {
	var rows int64
	for _, name := range st.DB.Catalog.TableNames() {
		rows += int64(st.DB.Catalog.Table(name).Rows())
	}
	return Stats{
		Algorithm:  st.cfg.Algorithm,
		Tables:     len(st.Schema.Relations),
		Rows:       rows,
		DataBytes:  st.DB.Catalog.TotalDataBytes(),
		IndexBytes: st.DB.Catalog.TotalIndexBytes(),
		Format:     st.Format,
	}
}

// CommittedBatches reports how many WAL batches (= documents) have ever
// been committed, counting batches absorbed into checkpoints; 0 for a
// store without a WAL.
func (st *Store) CommittedBatches() uint64 {
	if st.wal == nil {
		return 0
	}
	return st.wal.LastCommitted()
}

// Close syncs any pending group-committed WAL batches and releases the
// log file. It is a no-op for stores without a WAL.
func (st *Store) Close() error {
	if st.wal == nil {
		return nil
	}
	if st.DB.TxnMgr != nil {
		// The WAL writer is not concurrent-safe; serialize the final sync
		// against in-flight commits.
		return st.DB.TxnMgr.Quiesce(st.wal.Close)
	}
	return st.wal.Close()
}

// Table returns the named table for direct inspection, or nil.
func (st *Store) Table(name string) *catalog.Table {
	return st.DB.Catalog.Table(name)
}

// FragmentText renders a query result value as text, decoding XADT
// fragments into their serialized form and formatting other values with
// their natural rendering.
func FragmentText(v types.Value) (string, error) {
	switch v.Kind() {
	case types.KindNull:
		return "", nil
	case types.KindString:
		return v.Str(), nil
	case types.KindXADT:
		return xadt.FromBytes(v.XADT()).Text()
	default:
		return v.String(), nil
	}
}
