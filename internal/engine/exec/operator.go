// Package exec implements the physical operators of the engine as Volcano
// iterators: sequential and index scans, filter, project, hash,
// index nested-loop and nested-loop joins, sort, hash aggregation (which also serves
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

// Drain runs an operator to completion and collects its rows: a
// statement's result. The rows leave the statement, so each XADT
// reference in them is materialised (types.Plain). A result of no rows
// is nil.
func Drain(op Operator) ([][]types.Value, error) {
	return collect(op, true)
}

// drainChunkMax caps the rows in one of collect's chunks: 96 KiB of row
// headers, a whole number of pages, so the allocator rounds nothing up.
const drainChunkMax = 4096

// collect runs op to completion and returns its rows, materialising
// references when plain is set; operators that buffer their input
// within a statement collect without it. Rows gather in chunks that
// double from 8 rows up to drainChunkMax and are copied once into a
// result of exact size, so a large result costs about twice its final
// slice where append's 1.25× growth cost about five times.
func collect(op Operator, plain bool) ([][]types.Value, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var full [][][]types.Value
	var cur [][]types.Value
	n := 0
	for {
		row, err := op.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		if plain {
			types.Plain(row)
		}
		if len(cur) == cap(cur) {
			if cur != nil {
				full = append(full, cur)
			}
			cur = make([][]types.Value, 0, min(max(2*cap(cur), 8), drainChunkMax))
		}
		cur = append(cur, row)
		n++
	}
	if n == 0 {
		return nil, nil
	}
	out := make([][]types.Value, 0, n)
	for _, c := range full {
		out = append(out, c...)
	}
	return append(out, cur...), nil
}

// concatRows builds a joined output row.
func concatRows(l, r []types.Value) []types.Value {
	out := make([]types.Value, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}
