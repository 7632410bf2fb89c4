package exec

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/mvcc"
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
// operators emit under a session view, whose rows are materialized whole.
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

// SeqScan reads a table front to back. A fused predicate, when set,
// drops rows at the cursor before anything above the scan sees them —
// the destination of the planner's predicate pushdown.
//
// A heap scan decodes whole page runs column-major into a pooled batch
// and runs the predicate as a columnar kernel; Next works through the
// batch→row shim. Only the stored columns Cols are decoded; the others
// are stepped over in the record.
type SeqScan struct {
	Table *catalog.Table
	Alias string
	// Cols are the stored columns the scan emits, ascending; nil means
	// every column. The schema holds exactly these.
	Cols []int
	Pred expr.Expr // optional, resolved against the scan schema
	// View, when set, is a materialized MVCC snapshot: the scan iterates
	// its rows, one at a time, instead of the live heap.
	View *mvcc.View
	// Est is the planner's estimated output cardinality (rows surviving
	// the fused predicate); zero when no estimate was made. Advisory
	// only — execution never reads it.
	Est    float64
	schema *expr.RowSchema
	cursor *storage.Cursor
	vpos   int
	vrow   []types.Value // a projected view row the predicate rejected, reused

	batch   *vec.Batch
	scratch expr.VecScratch
	shim    rowShim
}

// NewSeqScan returns a sequential scan of the stored columns cols (nil:
// all) of the table under the alias.
func NewSeqScan(t *catalog.Table, alias string, cols []int) *SeqScan {
	return &SeqScan{Table: t, Alias: alias, Cols: cols, schema: TableSchema(t, alias, cols)}
}

// Schema implements Operator.
func (s *SeqScan) Schema() *expr.RowSchema { return s.schema }

// Open implements Operator.
func (s *SeqScan) Open() error {
	if s.View != nil {
		s.vpos = 0
		return nil
	}
	s.cursor = s.Table.Heap.NewRangeCursor(0, s.Table.Heap.DataPages(), s.Cols)
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
	if s.View != nil {
		for s.vpos < len(s.View.Rows) {
			row := projectRow(s.vrow, s.View.Rows[s.vpos].Row, s.Cols)
			s.vpos++
			if s.Pred != nil {
				v, err := s.Pred.Eval(row)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					if s.Cols != nil {
						s.vrow = row // reuse the rejected projection
					}
					continue
				}
			}
			s.vrow = nil
			return row, nil
		}
		return nil, nil
	}
	return s.shim.next(s.NextBatch)
}

// Close implements Operator.
func (s *SeqScan) Close() error {
	s.cursor = nil
	vec.Release(s.batch)
	s.batch = nil
	s.shim.reset()
	return nil
}

// String describes the scan for plan explanations.
func (s *SeqScan) String() string {
	suffix := ""
	if Batched(s) {
		suffix = " [vec]"
	}
	if s.Pred != nil {
		return fmt.Sprintf("SeqScan(%s as %s, filter: %s)%s", s.Table.Schema.Table, s.Alias, s.Pred, suffix)
	}
	return fmt.Sprintf("SeqScan(%s as %s)%s", s.Table.Schema.Table, s.Alias, suffix)
}

// IndexScan fetches the rows whose indexed column equals a key, decoding
// only the stored columns Cols (nil: all) of each.
type IndexScan struct {
	Table *catalog.Table
	Alias string
	Cols  []int
	Index *catalog.Index
	Key   types.Value
	// View, when set, is a materialized MVCC snapshot: the equality
	// access filters the view on the indexed column instead of probing
	// the shared B+tree, so only snapshot-visible rows surface.
	View *mvcc.View
	// Est is the planner's estimated output cardinality; advisory only.
	Est    float64
	schema *expr.RowSchema
	rids   []storage.RID
	rows   [][]types.Value
	pos    int
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
	if s.View != nil {
		s.rows = s.rows[:0]
		ci := s.Index.ColIdx
		for _, vr := range s.View.Rows {
			if types.Equal(vr.Row[ci], s.Key) {
				s.rows = append(s.rows, projectRow(nil, vr.Row, s.Cols))
			}
		}
		return nil
	}
	s.rids = s.Index.Tree.Lookup(s.Key, s.rids[:0]...)
	return nil
}

// Next implements Operator.
func (s *IndexScan) Next() ([]types.Value, error) {
	if s.View != nil {
		if s.pos >= len(s.rows) {
			return nil, nil
		}
		row := s.rows[s.pos]
		s.pos++
		return row, nil
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
	s.rows = nil
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
