package exec

import (
	"fmt"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// IndexLoopJoin joins by probing a B+tree index on the inner table with a
// key computed from each outer row — the index-nested-loop access path a
// selective outer side makes profitable.
type IndexLoopJoin struct {
	Left Operator
	// Right is the inner table, probed through Index.
	Right *catalog.Table
	// Alias binds the inner table's columns in the output schema.
	Alias string
	// Cols are the inner table's stored columns appended to each outer
	// row, ascending; nil means every column. They are decoded straight
	// into the output row.
	Cols []int
	// Index is the inner index; its column is the join key's inner side.
	Index *catalog.Index
	// LeftKey computes the probe key; it is resolved against the left
	// schema (equivalently, the joined schema: left columns keep their
	// positions).
	LeftKey expr.Expr
	// Est is the planner's estimated output cardinality; advisory only.
	Est float64

	schema  *expr.RowSchema
	leftRow []types.Value
	rids    []storage.RID
	pos     int
}

// NewIndexLoopJoin builds the operator; cols (nil: all) are the inner
// columns it emits.
func NewIndexLoopJoin(left Operator, right *catalog.Table, alias string, cols []int, idx *catalog.Index, leftKey expr.Expr) *IndexLoopJoin {
	return &IndexLoopJoin{
		Left: left, Right: right, Alias: alias, Cols: cols, Index: idx, LeftKey: leftKey,
		schema: expr.Concat(left.Schema(), TableSchema(right, alias, cols)),
	}
}

// Schema implements Operator.
func (j *IndexLoopJoin) Schema() *expr.RowSchema { return j.schema }

// Open implements Operator.
func (j *IndexLoopJoin) Open() error {
	j.leftRow = nil
	j.rids = j.rids[:0]
	j.pos = 0
	return j.Left.Open()
}

// Next implements Operator.
func (j *IndexLoopJoin) Next() ([]types.Value, error) {
	for {
		for j.pos < len(j.rids) {
			out := make([]types.Value, len(j.schema.Cols))
			lw := copy(out, j.leftRow)
			if err := j.Right.Heap.GetInto(j.rids[j.pos], j.Cols, out[lw:]); err != nil {
				return nil, err
			}
			j.pos++
			return out, nil
		}
		row, err := j.Left.Next()
		if err != nil || row == nil {
			return nil, err
		}
		key, err := j.LeftKey.Eval(row)
		if err != nil {
			return nil, err
		}
		j.leftRow = row
		j.rids = j.rids[:0]
		if !key.IsNull() {
			j.rids = j.Index.Tree.Lookup(key, j.rids...)
		}
		j.pos = 0
	}
}

// Close implements Operator.
func (j *IndexLoopJoin) Close() error {
	j.rids = j.rids[:0]
	return j.Left.Close()
}

// String describes the join for plan explanations.
func (j *IndexLoopJoin) String() string {
	return fmt.Sprintf("IndexLoopJoin(%s probes %s.%s)", j.LeftKey, j.Alias, j.Index.Column)
}
