// Package exec implements the physical operators of the engine as Volcano
// iterators: sequential and index scans, filter, project, nested-loop /
// hash / sort-merge joins, sort, hash aggregation (which also serves
// DISTINCT), and the lateral table-function apply that powers the unnest
// UDF. A parallel plan runs clones of the same operators under a Gather.
package exec

import (
	"repro/internal/engine/expr"
	"repro/internal/engine/types"
)

// Operator is a pull-based physical operator.
type Operator interface {
	// Schema describes the rows the operator produces.
	Schema() *expr.RowSchema
	// Open prepares the operator; it must be called before Next.
	Open() error
	// Next returns the next row, or nil at end of stream.
	Next() ([]types.Value, error)
	// Close releases resources. An operator may be re-opened after Close.
	Close() error
}

// Drain runs an operator to completion and collects its rows.
func Drain(op Operator) ([][]types.Value, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out [][]types.Value
	for {
		row, err := op.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}

// concatRows builds a joined output row.
func concatRows(l, r []types.Value) []types.Value {
	out := make([]types.Value, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}
