package exec

import (
	"repro/internal/engine/expr"
	"repro/internal/engine/types"
)

// NestedLoopJoin joins by evaluating a predicate over every pair. The
// right input is materialized once. A nil predicate yields the cross
// product — which the lateral table-function apply and disconnected FROM
// lists need.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        expr.Expr // may be nil (cross product)
	// Est is the planner's estimated output cardinality; advisory only.
	Est       float64
	schema    *expr.RowSchema
	rightRows [][]types.Value
	leftRow   []types.Value
	rpos      int
}

// NewNestedLoopJoin joins left and right on pred.
func NewNestedLoopJoin(left, right Operator, pred expr.Expr) *NestedLoopJoin {
	return &NestedLoopJoin{
		Left: left, Right: right, Pred: pred,
		schema: expr.Concat(left.Schema(), right.Schema()),
	}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *expr.RowSchema { return j.schema }

// Open materializes the right side.
func (j *NestedLoopJoin) Open() error {
	rows, err := collect(j.Right, false)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.leftRow = nil
	j.rpos = 0
	return j.Left.Open()
}

// Next implements Operator.
func (j *NestedLoopJoin) Next() ([]types.Value, error) {
	for {
		if j.leftRow == nil {
			row, err := j.Left.Next()
			if err != nil || row == nil {
				return nil, err
			}
			j.leftRow = row
			j.rpos = 0
		}
		for j.rpos < len(j.rightRows) {
			right := j.rightRows[j.rpos]
			j.rpos++
			out := concatRows(j.leftRow, right)
			if j.Pred == nil {
				return out, nil
			}
			v, err := j.Pred.Eval(out)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				return out, nil
			}
		}
		j.leftRow = nil
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.rightRows = nil
	return j.Left.Close()
}

// HashJoin is an equi-join: it builds a hash table on the left input's
// key and probes with the right input. With a QueryCtx whose budget the
// build side exceeds, it switches to a Grace-style partitioned join
// (see graceJoin in spilljoin.go) with byte-identical output order.
//
// Both key expressions must be resolved against the concatenated
// (left ++ right) schema; a left key therefore has column indices within
// the left width and can be evaluated on a bare left row.
type HashJoin struct {
	Left, Right       Operator
	LeftKey, RightKey expr.Expr
	// Ctx enables Grace spilling under its memory budget; nil keeps the
	// unbounded in-memory build.
	Ctx *QueryCtx
	// Shared, when set, is a build shared by the workers of a Gather:
	// Open takes its table instead of draining Left, which must be the
	// build's Input. A shared build never spills, so Ctx stays nil.
	Shared *HashBuild
	// Est is the planner's estimated output cardinality; advisory only.
	Est float64

	schema    *expr.RowSchema
	table     map[uint64][][]types.Value
	probeRow  []types.Value
	padded    []types.Value // probe-key scratch, see padRow
	matches   [][]types.Value
	mpos      int
	tracked   int64
	rightOpen bool
	grace     *graceJoin
}

// NewHashJoin joins left and right where leftKey = rightKey.
func NewHashJoin(left, right Operator, leftKey, rightKey expr.Expr) *HashJoin {
	return &HashJoin{
		Left: left, Right: right, LeftKey: leftKey, RightKey: rightKey,
		schema: expr.Concat(left.Schema(), right.Schema()),
	}
}

// Schema implements Operator.
func (j *HashJoin) Schema() *expr.RowSchema { return j.schema }

// Open builds the hash table from the left input, or runs the whole
// partitioned join when the build side overflows the budget.
func (j *HashJoin) Open() error {
	j.discard()
	if j.Shared != nil {
		table, err := j.Shared.Table()
		if err != nil {
			return err
		}
		j.table = table
		return j.openRight()
	}
	if err := j.Left.Open(); err != nil {
		return err
	}
	var rows [][]types.Value
	var tracked int64
	for {
		row, err := j.Left.Next()
		if err != nil {
			j.Left.Close()
			j.Ctx.release(tracked)
			return err
		}
		if row == nil {
			break
		}
		sz := rowBytes(row)
		rows = append(rows, row)
		tracked += sz
		if !j.Ctx.grow(sz) {
			// Build side over budget: hand everything to the Grace join,
			// which drains the still-open left input into partitions
			// (releasing the buffered rows' memory as it flushes them)
			// and consumes the right side entirely during Open.
			err := j.spill(rows)
			j.Left.Close()
			return err
		}
	}
	j.Left.Close()
	j.tracked = tracked
	table, err := hashTable(j.LeftKey, rows, 1)
	if err != nil {
		j.discard()
		return err
	}
	j.table = table
	return j.openRight()
}

// openRight opens the probe input over a ready table.
func (j *HashJoin) openRight() error {
	if err := j.Right.Open(); err != nil {
		j.discard()
		return err
	}
	j.rightOpen = true
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() ([]types.Value, error) {
	if j.grace != nil {
		return j.grace.next()
	}
	for {
		for j.mpos < len(j.matches) {
			left := j.matches[j.mpos]
			j.mpos++
			out := concatRows(left, j.probeRow)
			// Re-check key equality to guard against hash collisions.
			lk, err := j.LeftKey.Eval(out)
			if err != nil {
				return nil, err
			}
			rk, err := j.RightKey.Eval(out)
			if err != nil {
				return nil, err
			}
			if types.Equal(lk, rk) {
				return out, nil
			}
		}
		row, err := j.Right.Next()
		if err != nil || row == nil {
			return nil, err
		}
		j.probeRow = row
		k, err := j.RightKey.Eval(padRow(&j.padded, leftWidth(j), row))
		if err != nil {
			return nil, err
		}
		if k.IsNull() {
			j.matches = nil
			j.mpos = 0
			continue
		}
		j.matches = j.table[types.Hash(k)]
		j.mpos = 0
	}
}

func leftWidth(j *HashJoin) int { return len(j.Left.Schema().Cols) }

// padRow places row after width NULL columns in the reused buffer *buf:
// a probe key is resolved against the joined schema, so it evaluates on
// a row of that shape. The result is valid until the next call.
func padRow(buf *[]types.Value, width int, row []types.Value) []types.Value {
	n := width + len(row)
	if cap(*buf) < n {
		*buf = make([]types.Value, n)
	}
	p := (*buf)[:n]
	copy(p[width:], row)
	return p
}

// discard drops the hash table / grace state and their tracked memory.
func (j *HashJoin) discard() {
	j.table = nil
	j.matches = nil
	j.probeRow = nil
	j.mpos = 0
	j.Ctx.release(j.tracked)
	j.tracked = 0
	if j.grace != nil {
		j.grace.discard()
		j.grace = nil
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.discard()
	j.Ctx.notePeak()
	if j.rightOpen {
		j.rightOpen = false
		return j.Right.Close()
	}
	return nil
}
