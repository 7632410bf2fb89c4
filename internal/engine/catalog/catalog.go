// Package catalog manages the engine's tables: schemas, heap files,
// secondary indexes, and optimizer statistics (the engine's equivalent of
// DB2's runstats, which the paper runs before every measurement).
package catalog

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/engine/index"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/xindex"
)

// Column is one column of a table schema.
type Column struct {
	Name string
	Type types.Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Table   string
	Columns []Column
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Index is a secondary B+tree index over one column.
type Index struct {
	Name   string
	Column string
	ColIdx int
	Tree   *index.BTree
}

// Stats are per-table optimizer statistics computed by RunStats.
type Stats struct {
	// Rows is the table cardinality at the last RunStats.
	Rows int
	// Pages is the heap data-page count at the last RunStats.
	Pages int
	// Distinct maps column names to their number of distinct values
	// (kept alongside Cols for callers that only need cardinalities).
	Distinct map[string]int
	// Cols holds the full per-column statistics: distinct counts, null
	// fractions, histograms, and XADT element-path frequencies.
	Cols map[string]ColStats
	// Valid reports whether RunStats has run since the last load.
	Valid bool
	// ModsSince counts DML operations applied to the table after this
	// Stats was computed. StatsSnapshot fills it from the table's
	// modification counter; StaleRatio interprets it.
	ModsSince int64
	// modsAt is the table's modification counter value when RunStats
	// ran; the delta to the live counter yields ModsSince.
	modsAt int64
}

// DistinctOr returns the distinct count for a column, or def when stats
// are missing.
func (s *Stats) DistinctOr(col string, def int) int {
	if s == nil || !s.Valid {
		return def
	}
	if d, ok := s.Distinct[col]; ok {
		return d
	}
	return def
}

// Table is a stored table: schema, heap file, indexes, statistics.
// The mutex guards Indexes and Stats against concurrent readers (parallel
// query workers consult both); direct field access remains safe for
// single-threaded code such as loaders and tests.
type Table struct {
	Schema  *Schema
	Heap    *storage.HeapFile
	Indexes []*Index
	// FragIndexes are the secondary XADT indexes (path + keyword
	// postings) over this table's fragment columns; Insert keeps them
	// current so they are never stale while they remain valid.
	FragIndexes []*xindex.FragmentIndex
	Stats       Stats
	// V is the MVCC version sidecar, attached when the database enables
	// snapshot isolation; nil tables are unversioned and behave exactly
	// as before.
	V *mvcc.TableVersions

	mu sync.RWMutex
	// mods counts DML operations (insert/delete/update) since the table
	// was created or loaded. Statistics record the counter at RunStats
	// time; the delta measures staleness instead of a blunt
	// invalidate-on-any-write bit. Guarded by mu.
	mods int64
}

// ValidateRow checks a row's arity and column types against the schema —
// the same check Insert and UpdateRID apply — so deferred-write paths
// (MVCC sessions) can surface type errors at statement time instead of
// at commit.
func (t *Table) ValidateRow(row []types.Value) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("catalog: table %s expects %d columns, got %d",
			t.Schema.Table, len(t.Schema.Columns), len(row))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		if v.Kind() != t.Schema.Columns[i].Type {
			return fmt.Errorf("catalog: table %s column %s expects %v, got %v",
				t.Schema.Table, t.Schema.Columns[i].Name, t.Schema.Columns[i].Type, v.Kind())
		}
	}
	return nil
}

// Insert validates and stores a row, maintaining all indexes.
func (t *Table) Insert(row []types.Value) error {
	_, err := t.InsertRID(row)
	return err
}

// InsertRID is Insert returning the RID the heap assigned, which the
// MVCC commit path needs to resolve a transaction's pseudo-RIDs.
func (t *Table) InsertRID(row []types.Value) (storage.RID, error) {
	if err := t.ValidateRow(row); err != nil {
		return storage.RID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rid := t.Heap.Insert(row)
	indexRow(t.Indexes, t.FragIndexes, rid, row)
	if t.V != nil {
		t.V.NoteInsert(rid)
	}
	t.mods++
	return rid, nil
}

// fragRebuildBacklog is the tombstone+overlay count at which a fragment
// index is rebuilt from the heap instead of patched at lookup time. The
// rebuild changes only lookup cost, never results, so replaying the same
// history on another store need not rebuild at the same points.
const fragRebuildBacklog = 128

// DeleteRID removes the row at rid, maintaining all indexes. It returns
// the deleted row so callers (mutation operators, WAL redo) can log or
// cross-check it.
func (t *Table) DeleteRID(rid storage.RID) ([]types.Value, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, err := t.Heap.Get(rid)
	if err != nil {
		return nil, fmt.Errorf("catalog: delete from %s at %v: %w", t.Schema.Table, rid, err)
	}
	if err := t.Heap.Delete(rid); err != nil {
		return nil, err
	}
	for _, idx := range t.Indexes {
		idx.Tree.Delete(row[idx.ColIdx], rid)
	}
	for _, fi := range t.FragIndexes {
		fi.DeleteRow(rid)
	}
	if t.V != nil {
		t.V.NoteDelete(rid, row)
	}
	t.maybeRebuildFragLocked()
	t.mods++
	return row, nil
}

// UpdateRID replaces the row at rid, maintaining all indexes, and
// returns the row's RID afterwards (a new one if the record had to
// move).
func (t *Table) UpdateRID(rid storage.RID, row []types.Value) (storage.RID, error) {
	if err := t.ValidateRow(row); err != nil {
		return storage.RID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old, err := t.Heap.Get(rid)
	if err != nil {
		return storage.RID{}, fmt.Errorf("catalog: update %s at %v: %w", t.Schema.Table, rid, err)
	}
	newRID, err := t.Heap.Update(rid, row)
	if err != nil {
		return storage.RID{}, err
	}
	for _, idx := range t.Indexes {
		idx.Tree.Delete(old[idx.ColIdx], rid)
		idx.Tree.Insert(row[idx.ColIdx], newRID)
	}
	for _, fi := range t.FragIndexes {
		fi.DeleteRow(rid)
		fi.AddRow(newRID, row[fi.ColumnIndex()])
	}
	if t.V != nil {
		t.V.NoteUpdate(rid, old, newRID)
	}
	t.maybeRebuildFragLocked()
	t.mods++
	return newRID, nil
}

// maybeRebuildFragLocked rebuilds every fragment index whose mutation
// backlog has grown past the threshold, all in one backfill pass. Called
// with t.mu held; the heap has its own lock, so the scan is safe here.
func (t *Table) maybeRebuildFragLocked() {
	var stale []int
	var fresh []*xindex.FragmentIndex
	for i, fi := range t.FragIndexes {
		if fi.Backlog() >= fragRebuildBacklog {
			stale = append(stale, i)
			fresh = append(fresh, xindex.NewFragmentIndex(fi.Table(), fi.Column(), fi.ColumnIndex()))
		}
	}
	if len(fresh) == 0 {
		return
	}
	if err := t.backfill(nil, fresh); err != nil {
		for _, fi := range fresh {
			fi.Invalidate()
		}
	}
	for j, i := range stale {
		t.FragIndexes[i] = fresh[j]
	}
}

// indexRow adds the heap row at rid to the given indexes.
func indexRow(idxs []*Index, fis []*xindex.FragmentIndex, rid storage.RID, row []types.Value) {
	for _, idx := range idxs {
		idx.Tree.Insert(row[idx.ColIdx], rid)
	}
	for _, fi := range fis {
		fi.AddRow(rid, row[fi.ColumnIndex()])
	}
}

// backfill fills new indexes with the rows already in the heap, in one
// scan however many indexes there are. Fragment indexes absorb each row
// as the scan reaches it. Each B+tree collects its entries, sorts them
// unless they came out of the heap in key order (an ID column does), and
// is built bottom-up from them.
func (t *Table) backfill(idxs []*Index, fis []*xindex.FragmentIndex) error {
	entries := make([][]index.Entry, len(idxs))
	rows := t.Heap.Rows()
	for i := range entries {
		entries[i] = make([]index.Entry, 0, rows)
	}
	err := t.Heap.Scan(func(rid storage.RID, row []types.Value) error {
		for i, idx := range idxs {
			entries[i] = append(entries[i], index.Entry{Key: row[idx.ColIdx], RID: rid})
		}
		for _, fi := range fis {
			fi.AddRow(rid, row[fi.ColumnIndex()])
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, idx := range idxs {
		es := entries[i]
		if !slices.IsSortedFunc(es, index.CompareEntries) {
			slices.SortFunc(es, index.CompareEntries)
		}
		keys := make([]types.Value, len(es))
		rids := make([]storage.RID, len(es))
		for j, e := range es {
			keys[j], rids[j] = e.Key, e.RID
		}
		entries[i] = nil
		if idx.Tree, err = index.Build(keys, rids); err != nil {
			return fmt.Errorf("catalog: build %s: %w", idx.Name, err)
		}
	}
	return nil
}

// IndexOn returns the index over the named column, or nil.
func (t *Table) IndexOn(column string) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, idx := range t.Indexes {
		if idx.Column == column {
			return idx
		}
	}
	return nil
}

// FragIndexOn returns the XADT fragment index over the named column, or
// nil.
func (t *Table) FragIndexOn(column string) *xindex.FragmentIndex {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, fi := range t.FragIndexes {
		if fi.Column() == column {
			return fi
		}
	}
	return nil
}

// StatsSnapshot returns a copy of the table's optimizer statistics that
// is safe to read while other goroutines insert rows or run RunStats.
// The Distinct/Cols maps are shared with the live Stats but both treat
// them as immutable once published (RunStats installs fresh maps). The
// copy's ModsSince is filled from the live modification counter, so
// StaleRatio on the snapshot reflects DML since the last RunStats.
func (t *Table) StatsSnapshot() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.Stats
	s.ModsSince = t.mods - s.modsAt
	return s
}

// AdvanceMods bumps the table's modification counter without changing
// any data — a staleness hook for tests and the differential harness,
// which need "stats aged by n DML operations" without churning rows.
func (t *Table) AdvanceMods(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mods += n
}

// Rows returns the current cardinality.
func (t *Table) Rows() int { return t.Heap.Rows() }

// DataBytes returns the heap footprint in bytes.
func (t *Table) DataBytes() int64 { return t.Heap.DataBytes() }

// IndexBytes returns the total footprint of the table's indexes.
func (t *Table) IndexBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n int64
	for _, idx := range t.Indexes {
		n += idx.Tree.SizeBytes()
	}
	for _, fi := range t.FragIndexes {
		n += fi.SizeBytes()
	}
	return n
}

// Catalog is the set of tables in a database. The mutex guards the
// table registry so concurrent queries can resolve tables while DDL
// (CreateTable/CreateIndex) proceeds on another goroutine.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	order  []string
	pool   *storage.BufferPool
	mgr    *mvcc.TxnManager
}

// SetMVCC attaches a transaction manager: every existing table gets a
// version sidecar (all current rows count as born at time 0) and tables
// created from now on are versioned at birth.
func (c *Catalog) SetMVCC(mgr *mvcc.TxnManager) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mgr = mgr
	for _, name := range c.order {
		t := c.tables[name]
		if t.V == nil {
			t.V = mgr.Register(name)
		}
	}
}

// New returns an empty catalog. The buffer pool may be nil.
func New(pool *storage.BufferPool) *Catalog {
	return &Catalog{tables: map[string]*Table{}, pool: pool}
}

// CreateTable registers a new table.
func (c *Catalog) CreateTable(name string, cols []Column) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("catalog: table %s already exists", name)
	}
	seen := map[string]bool{}
	for _, col := range cols {
		if seen[col.Name] {
			return nil, fmt.Errorf("catalog: table %s has duplicate column %s", name, col.Name)
		}
		seen[col.Name] = true
	}
	t := &Table{
		Schema: &Schema{Table: name, Columns: append([]Column(nil), cols...)},
		Heap:   storage.NewHeapFile(c.pool),
	}
	if c.mgr != nil {
		t.V = c.mgr.Register(name)
	}
	c.tables[name] = t
	c.order = append(c.order, name)
	return t, nil
}

// Table returns the named table, or nil.
func (c *Catalog) Table(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tables[name]
}

// TableNames returns table names in creation order.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.order...)
}

// CreateIndexes builds the index each listed column's type calls for —
// the path + keyword fragment index over an XADT column, a B+tree over
// any other — and fills them all from the table's existing rows in one
// heap scan. Inserts maintain them from then on; a row a fragment index
// cannot read invalidates that index (the planner then falls back to
// scans) rather than failing the build.
func (c *Catalog) CreateIndexes(table string, columns []string) error {
	t := c.Table(table)
	if t == nil {
		return fmt.Errorf("catalog: no table %s", table)
	}
	var idxs []*Index
	var fis []*xindex.FragmentIndex
	for i, column := range columns {
		ci := t.Schema.ColIndex(column)
		if ci < 0 {
			return fmt.Errorf("catalog: table %s has no column %s", table, column)
		}
		if t.IndexOn(column) != nil || t.FragIndexOn(column) != nil || slices.Contains(columns[:i], column) {
			return fmt.Errorf("catalog: index on %s.%s already exists", table, column)
		}
		if t.Schema.Columns[ci].Type == types.KindXADT {
			fis = append(fis, xindex.NewFragmentIndex(table, column, ci))
			continue
		}
		idxs = append(idxs, &Index{
			Name:   fmt.Sprintf("idx_%s_%s", table, column),
			Column: column,
			ColIdx: ci,
		})
	}
	if err := t.backfill(idxs, fis); err != nil {
		return err
	}
	t.mu.Lock()
	t.Indexes = append(t.Indexes, idxs...)
	t.FragIndexes = append(t.FragIndexes, fis...)
	t.mu.Unlock()
	return nil
}

// CreateIndex builds a B+tree index over one non-XADT column of a
// table, backfilling existing rows.
func (c *Catalog) CreateIndex(table, column string) (*Index, error) {
	if k, ok := c.columnType(table, column); ok && k == types.KindXADT {
		return nil, fmt.Errorf("catalog: column %s.%s is an XADT column; it takes a fragment index", table, column)
	}
	if err := c.CreateIndexes(table, []string{column}); err != nil {
		return nil, err
	}
	return c.Table(table).IndexOn(column), nil
}

// CreateXADTIndex builds the path + keyword fragment index over one XADT
// column, backfilling existing rows.
func (c *Catalog) CreateXADTIndex(table, column string) (*xindex.FragmentIndex, error) {
	if k, ok := c.columnType(table, column); ok && k != types.KindXADT {
		return nil, fmt.Errorf("catalog: column %s.%s is not an XADT column", table, column)
	}
	if err := c.CreateIndexes(table, []string{column}); err != nil {
		return nil, err
	}
	return c.Table(table).FragIndexOn(column), nil
}

// columnType returns the type of table.column; ok is false when either
// is missing.
func (c *Catalog) columnType(table, column string) (k types.Kind, ok bool) {
	t := c.Table(table)
	if t == nil {
		return k, false
	}
	ci := t.Schema.ColIndex(column)
	if ci < 0 {
		return k, false
	}
	return t.Schema.Columns[ci].Type, true
}

// RunStats recomputes optimizer statistics for one table — the analogue
// of DB2's runstats command. One heap scan collects, per column: a
// distinct count (exact below statsExactDistinct, HLL sketch above), the
// null fraction, an equi-depth histogram over a stride-sampled subset of
// int/string values, and — for XADT columns — element-name frequencies
// from the sampled fragments. The stride is fixed from the pre-scan row
// count, so identical heaps always produce identical statistics.
func (c *Catalog) RunStats(table string) error {
	t := c.Table(table)
	if t == nil {
		return fmt.Errorf("catalog: no table %s", table)
	}
	ncols := len(t.Schema.Columns)
	counters := make([]*distinctCounter, ncols)
	nulls := make([]int, ncols)
	samples := make([][]types.Value, ncols)
	pathFreqs := make([]map[string]int, ncols)
	for i := range counters {
		counters[i] = newDistinctCounter()
		if t.Schema.Columns[i].Type == types.KindXADT {
			pathFreqs[i] = map[string]int{}
		}
	}
	stride := t.Heap.Rows() / statsMaxSample
	if stride < 1 {
		stride = 1
	}
	rows := 0
	var names elementCounter
	err := t.Heap.Scan(func(_ storage.RID, row []types.Value) error {
		sampled := rows%stride == 0
		rows++
		for i, v := range row {
			if v.IsNull() {
				nulls[i]++
				continue
			}
			counters[i].add(types.Hash(v))
			if !sampled {
				continue
			}
			switch v.Kind() {
			case types.KindInt, types.KindString:
				samples[i] = append(samples[i], v)
			case types.KindXADT:
				names.count(v, pathFreqs[i])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	stats := Stats{
		Rows: rows, Pages: t.Heap.DataPages(),
		Distinct: map[string]int{}, Cols: map[string]ColStats{}, Valid: true,
	}
	for i, col := range t.Schema.Columns {
		cs := ColStats{Distinct: counters[i].estimate(), Sketch: counters[i].regs}
		if rows > 0 {
			cs.NullFrac = float64(nulls[i]) / float64(rows)
		}
		cs.Hist = buildHistogram(col.Type, samples[i], rows-nulls[i])
		if len(pathFreqs[i]) > 0 {
			// Scale sampled occurrence counts back to the full table.
			scaled := make(map[string]int, len(pathFreqs[i]))
			for name, n := range pathFreqs[i] {
				scaled[name] = n * stride
			}
			cs.PathFreq = capPathFreq(scaled)
		}
		stats.Distinct[col.Name] = cs.Distinct
		stats.Cols[col.Name] = cs
	}
	t.mu.Lock()
	stats.modsAt = t.mods
	t.Stats = stats
	t.mu.Unlock()
	return nil
}

// InvalidateStats marks every table's statistics invalid, as if the
// store had been freshly loaded without a RunStats. The differential
// harness uses it for its stats-off cells; RunStats restores them.
func (c *Catalog) InvalidateStats() {
	for _, name := range c.TableNames() {
		t := c.Table(name)
		t.mu.Lock()
		t.Stats.Valid = false
		t.mu.Unlock()
	}
}

// MaybeRefreshStats reruns RunStats when the table's statistics are
// valid but stale past DefaultStaleRatio. It is a no-op on MVCC
// catalogs (a rescan there must be wrapped in an exclusive transaction
// by the caller) and on tables never analyzed (opting into statistics
// stays explicit via RunStats).
func (c *Catalog) MaybeRefreshStats(table string) error {
	c.mu.RLock()
	mgr := c.mgr
	c.mu.RUnlock()
	if mgr != nil {
		return nil
	}
	t := c.Table(table)
	if t == nil {
		return fmt.Errorf("catalog: no table %s", table)
	}
	s := t.StatsSnapshot()
	if !s.Valid || s.StaleRatio() <= DefaultStaleRatio {
		return nil
	}
	return c.RunStats(table)
}

// RunStatsAll runs statistics over every table.
func (c *Catalog) RunStatsAll() error {
	for _, name := range c.TableNames() {
		if err := c.RunStats(name); err != nil {
			return err
		}
	}
	return nil
}

// TotalDataBytes sums table heap footprints.
func (c *Catalog) TotalDataBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, t := range c.tables {
		n += t.DataBytes()
	}
	return n
}

// TotalIndexBytes sums index footprints.
func (c *Catalog) TotalIndexBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, t := range c.tables {
		n += t.IndexBytes()
	}
	return n
}
