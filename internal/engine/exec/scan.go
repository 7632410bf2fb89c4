package exec

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/vec"
)

// TableSchema builds the row schema of a table bound under an alias,
// holding the stored columns cols in order (nil: every column). The
// planner binds against it and access operators emit rows of its shape.
func TableSchema(t *catalog.Table, alias string, cols []int) *expr.RowSchema {
	if cols == nil {
		cols = make([]int, len(t.Schema.Columns))
		for j := range cols {
			cols[j] = j
		}
	}
	out := make([]expr.ColInfo, len(cols))
	for k, j := range cols {
		c := t.Schema.Columns[j]
		out[k] = expr.ColInfo{Qualifier: alias, Name: c.Name, Type: c.Type}
	}
	return expr.NewRowSchema(out...)
}

// projectRow narrows a full table row to the stored columns cols, into
// dst when it is non-nil (nil cols: the row itself) — the shape access
// operators emit over a RowSource, whose rows come whole.
func projectRow(dst, row []types.Value, cols []int) []types.Value {
	if cols == nil {
		return row
	}
	if dst == nil {
		dst = make([]types.Value, len(cols))
	}
	for k, j := range cols {
		dst[k] = row[j]
	}
	return dst
}

// sourceRows holds the rows an access operator reading a RowSource (a
// session snapshot) emits. They are gathered at Open, so the source's
// latch is held only while they are collected, never across execution.
type sourceRows struct {
	rows [][]types.Value
	pos  int
}

// gather collects the rows src yields for t (narrowed to the idx
// equality on key when idx is set), projected to cols and filtered by
// pred when it is set.
func (r *sourceRows) gather(src RowSource, t *catalog.Table, idx *catalog.Index, key types.Value, cols []int, pred expr.Expr) error {
	r.rows, r.pos = r.rows[:0], 0
	var spare []types.Value // a projection pred rejected, reused
	return src.Scan(t, idx, key, func(_ storage.RID, row []types.Value) error {
		row = projectRow(spare, row, cols)
		spare = nil
		if ok, err := matches(pred, row); err != nil || !ok {
			if cols != nil {
				spare = row
			}
			return err
		}
		r.rows = append(r.rows, row)
		return nil
	})
}

func (r *sourceRows) next() []types.Value {
	if r.pos >= len(r.rows) {
		return nil
	}
	r.pos++
	return r.rows[r.pos-1]
}

// SeqScan reads a table front to back. A fused predicate, when set,
// drops rows at the cursor before anything above the scan sees them —
// the destination of the planner's predicate pushdown.
//
// A heap scan decodes whole page runs column-major into a pooled batch
// and runs the predicate as a columnar kernel; Next works through the
// batch→row shim. Only the stored columns Cols are decoded; the others
// are stepped over in the record.
//
// As the leaf of a parallel pipeline the scan reads one morsel at a
// time: the owning Gather re-targets it with SetRange for every page
// range its worker claims.
type SeqScan struct {
	Table *catalog.Table
	Alias string
	// Cols are the stored columns the scan emits, ascending; nil means
	// every column. The schema holds exactly these.
	Cols []int
	Pred expr.Expr // optional, resolved against the scan schema
	// Source, when set, is an MVCC snapshot: the scan emits the rows it
	// yields, one at a time, instead of decoding the live heap.
	Source RowSource
	// Est is the planner's estimated output cardinality (rows surviving
	// the fused predicate); zero when no estimate was made. Advisory
	// only — execution never reads it.
	Est    float64
	schema *expr.RowSchema
	cursor *storage.Cursor
	src    sourceRows
	// morsel is set by SetRange: Open then reads pages [lo, hi) instead
	// of the whole heap.
	morsel bool
	lo, hi int

	batch   *vec.Batch
	scratch expr.VecScratch
	shim    rowShim
}

// NewSeqScan returns a sequential scan of the stored columns cols (nil:
// all) of the table under the alias.
func NewSeqScan(t *catalog.Table, alias string, cols []int) *SeqScan {
	return &SeqScan{Table: t, Alias: alias, Cols: cols, schema: TableSchema(t, alias, cols)}
}

// SetRange targets the scan at pages [lo, hi) for the next Open and
// every later one.
func (s *SeqScan) SetRange(lo, hi int) { s.morsel, s.lo, s.hi = true, lo, hi }

// Schema implements Operator.
func (s *SeqScan) Schema() *expr.RowSchema { return s.schema }

// Open implements Operator.
func (s *SeqScan) Open() error {
	if s.Source != nil {
		return s.src.gather(s.Source, s.Table, nil, types.Null, s.Cols, s.Pred)
	}
	lo, hi := s.lo, s.hi
	if !s.morsel {
		lo, hi = 0, s.Table.Heap.DataPages()
	}
	s.cursor = s.Table.Heap.NewRangeCursor(lo, hi, s.Cols)
	s.shim.reset()
	if s.batch == nil {
		s.batch = vec.Get(len(s.schema.Cols))
	}
	return nil
}

// NextBatch implements BatchOperator: it decodes up to one batch of rows
// straight into column arrays and narrows the selection with the fused
// predicate's columnar kernel.
func (s *SeqScan) NextBatch() (*vec.Batch, error) {
	b := s.batch
	n, err := s.cursor.NextBatch(b.Cols, b.Cap())
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	b.NRows, b.Sel = n, nil
	if s.Pred != nil {
		if err := expr.FilterBatch(s.Pred, b, &s.scratch); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Next implements Operator.
func (s *SeqScan) Next() ([]types.Value, error) {
	if s.Source != nil {
		return s.src.next(), nil
	}
	return s.shim.next(s.NextBatch)
}

// Close implements Operator.
func (s *SeqScan) Close() error {
	s.cursor = nil
	s.src = sourceRows{}
	vec.Release(s.batch)
	s.batch = nil
	s.shim.reset()
	return nil
}

// String describes the scan for plan explanations; a morsel leaf is
// labelled MorselScan.
func (s *SeqScan) String() string {
	name, suffix := "SeqScan", ""
	if s.morsel {
		name = "MorselScan"
	}
	if Batched(s) {
		suffix = " [vec]"
	}
	if s.Pred != nil {
		return fmt.Sprintf("%s(%s as %s, filter: %s)%s", name, s.Table.Schema.Table, s.Alias, s.Pred, suffix)
	}
	return fmt.Sprintf("%s(%s as %s)%s", name, s.Table.Schema.Table, s.Alias, suffix)
}

// IndexScan fetches the rows whose indexed column equals a key, decoding
// only the stored columns Cols (nil: all) of each.
type IndexScan struct {
	Table *catalog.Table
	Alias string
	Cols  []int
	Index *catalog.Index
	Key   types.Value
	// Source, when set, is an MVCC snapshot: the equality access asks
	// it for the key's rows, so only snapshot-visible rows surface.
	Source RowSource
	// Est is the planner's estimated output cardinality; advisory only.
	Est    float64
	schema *expr.RowSchema
	rids   []storage.RID
	pos    int
	src    sourceRows
}

// NewIndexScan returns an equality index scan emitting the stored
// columns cols (nil: all).
func NewIndexScan(t *catalog.Table, alias string, cols []int, idx *catalog.Index, key types.Value) *IndexScan {
	return &IndexScan{Table: t, Alias: alias, Cols: cols, Index: idx, Key: key, schema: TableSchema(t, alias, cols)}
}

// Schema implements Operator.
func (s *IndexScan) Schema() *expr.RowSchema { return s.schema }

// Open implements Operator.
func (s *IndexScan) Open() error {
	s.pos = 0
	if s.Source != nil {
		return s.src.gather(s.Source, s.Table, s.Index, s.Key, s.Cols, nil)
	}
	s.rids = s.Index.Tree.Lookup(s.Key, s.rids[:0]...)
	return nil
}

// Next implements Operator.
func (s *IndexScan) Next() ([]types.Value, error) {
	if s.Source != nil {
		return s.src.next(), nil
	}
	if s.pos >= len(s.rids) {
		return nil, nil
	}
	row := make([]types.Value, len(s.schema.Cols))
	if err := s.Table.Heap.GetInto(s.rids[s.pos], s.Cols, row); err != nil {
		return nil, err
	}
	s.pos++
	return row, nil
}

// Close implements Operator.
func (s *IndexScan) Close() error {
	s.rids = s.rids[:0]
	s.src = sourceRows{}
	return nil
}

// String describes the scan.
func (s *IndexScan) String() string {
	return fmt.Sprintf("IndexScan(%s as %s on %s = %s)",
		s.Table.Schema.Table, s.Alias, s.Index.Column, s.Key)
}

// ValuesScan produces a fixed in-memory row set, scattered into
// column-major batches; tests use it as a stub source and a controllable
// batch producer.
type ValuesScan struct {
	Rows   [][]types.Value
	schema *expr.RowSchema
	pos    int

	batch *vec.Batch
	shim  rowShim
}

// NewValuesScan wraps rows under the given schema.
func NewValuesScan(schema *expr.RowSchema, rows [][]types.Value) *ValuesScan {
	return &ValuesScan{Rows: rows, schema: schema}
}

// Schema implements Operator.
func (s *ValuesScan) Schema() *expr.RowSchema { return s.schema }

// Open implements Operator.
func (s *ValuesScan) Open() error {
	s.pos = 0
	s.shim.reset()
	if s.batch == nil {
		s.batch = vec.Get(len(s.schema.Cols))
	}
	return nil
}

// NextBatch implements BatchOperator.
func (s *ValuesScan) NextBatch() (*vec.Batch, error) {
	if s.pos >= len(s.Rows) {
		return nil, nil
	}
	b := s.batch
	ncols := len(b.Cols)
	n := 0
	for n < b.Cap() && s.pos < len(s.Rows) {
		row := s.Rows[s.pos]
		if len(row) != ncols {
			return nil, fmt.Errorf("exec: values row has %d columns, schema has %d", len(row), ncols)
		}
		for j := range b.Cols {
			b.Cols[j][n] = row[j]
		}
		s.pos++
		n++
	}
	b.NRows, b.Sel = n, nil
	return b, nil
}

// Next implements Operator.
func (s *ValuesScan) Next() ([]types.Value, error) {
	return s.shim.next(s.NextBatch)
}

// Close implements Operator.
func (s *ValuesScan) Close() error {
	vec.Release(s.batch)
	s.batch = nil
	s.shim.reset()
	return nil
}
