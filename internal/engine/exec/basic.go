package exec

import (
	"repro/internal/engine/expr"
	"repro/internal/engine/types"
	"repro/internal/engine/vec"
)

// Filter passes through rows for which the predicate is true. Over a
// batch-producing child it narrows each child batch's selection vector
// with the columnar predicate kernels instead of evaluating row by row.
type Filter struct {
	Child Operator
	Pred  expr.Expr

	bchild  BatchOperator
	scratch expr.VecScratch
	shim    rowShim
}

// NewFilter wraps child with a predicate.
func NewFilter(child Operator, pred expr.Expr) *Filter {
	return &Filter{Child: child, Pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *expr.RowSchema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open() error {
	f.shim.reset()
	f.bchild = batchChild(f.Child)
	return f.Child.Open()
}

// NextBatch implements BatchOperator: the child's batch comes back with
// its selection narrowed in place (possibly to no active rows).
func (f *Filter) NextBatch() (*vec.Batch, error) {
	b, err := f.bchild.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if err := expr.FilterBatch(f.Pred, b, &f.scratch); err != nil {
		return nil, err
	}
	return b, nil
}

// Next implements Operator.
func (f *Filter) Next() ([]types.Value, error) {
	if f.bchild != nil {
		return f.shim.next(f.NextBatch)
	}
	for {
		row, err := f.Child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		v, err := f.Pred.Eval(row)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error {
	f.shim.reset()
	return f.Child.Close()
}

// Project evaluates output expressions over each input row. Over a
// batch-producing child it works batch-at-a-time: bare column
// references alias the child batch's column slices (zero copy, the
// common SELECT-list shape), and computed expressions evaluate
// column-wise into the operator's own storage; the child's selection
// carries through unchanged.
type Project struct {
	Child  Operator
	Exprs  []expr.Expr
	schema *expr.RowSchema

	bchild  BatchOperator
	out     *vec.Batch      // shell batch; Cols repointed per call
	own     [][]types.Value // private storage for computed outputs
	scratch expr.VecScratch
	shim    rowShim
}

// NewProject wraps child, producing one output column per expression,
// named by names.
func NewProject(child Operator, exprs []expr.Expr, names []string) *Project {
	cols := make([]expr.ColInfo, len(exprs))
	for i := range exprs {
		cols[i] = expr.ColInfo{Name: names[i]}
	}
	return &Project{Child: child, Exprs: exprs, schema: expr.NewRowSchema(cols...)}
}

// Schema implements Operator.
func (p *Project) Schema() *expr.RowSchema { return p.schema }

// Open implements Operator.
func (p *Project) Open() error {
	p.shim.reset()
	p.bchild = batchChild(p.Child)
	if p.bchild != nil {
		if p.out == nil {
			p.out = &vec.Batch{Cols: make([][]types.Value, len(p.Exprs))}
			p.own = make([][]types.Value, len(p.Exprs))
		}
	}
	return p.Child.Open()
}

// NextBatch implements BatchOperator. The output batch aliases the
// child's selection vector and, for bare column references, the child's
// column slices; both stay valid until the child's next NextBatch —
// i.e. until our own next call, as the contract requires. The shell
// batch is deliberately not pooled: its Cols point into child (or own)
// storage, never into pool-owned arrays.
func (p *Project) NextBatch() (*vec.Batch, error) {
	cb, err := p.bchild.NextBatch()
	if err != nil || cb == nil {
		return nil, err
	}
	out := p.out
	out.NRows, out.Sel = cb.NRows, cb.Sel
	for i, e := range p.Exprs {
		if c, ok := e.(*expr.Col); ok && c.Idx >= 0 && c.Idx < len(cb.Cols) {
			out.Cols[i] = cb.Cols[c.Idx]
			continue
		}
		if p.own[i] == nil {
			p.own[i] = make([]types.Value, vec.DefaultBatchRows)
		}
		if err := expr.EvalBatch(e, cb, p.own[i][:cb.NRows], &p.scratch); err != nil {
			return nil, err
		}
		out.Cols[i] = p.own[i]
	}
	return out, nil
}

// Next implements Operator.
func (p *Project) Next() ([]types.Value, error) {
	if p.bchild != nil {
		return p.shim.next(p.NextBatch)
	}
	row, err := p.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make([]types.Value, len(p.Exprs))
	for i, e := range p.Exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error {
	p.out = nil
	p.own = nil
	p.shim.reset()
	return p.Child.Close()
}

// Limit passes through at most N rows. Over a batch-producing child it
// truncates the selection vector of the batch that crosses the bound
// instead of counting rows one at a time.
type Limit struct {
	Child Operator
	N     int64
	seen  int64

	bchild BatchOperator
	shim   rowShim
}

// NewLimit wraps child with a row bound.
func NewLimit(child Operator, n int64) *Limit {
	return &Limit{Child: child, N: n}
}

// Schema implements Operator.
func (l *Limit) Schema() *expr.RowSchema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open() error {
	l.seen = 0
	l.shim.reset()
	l.bchild = batchChild(l.Child)
	return l.Child.Open()
}

// NextBatch implements BatchOperator.
func (l *Limit) NextBatch() (*vec.Batch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	b, err := l.bchild.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	act := int64(b.Active())
	if l.seen+act <= l.N {
		l.seen += act
		return b, nil
	}
	// The bound falls inside this batch: keep only the first N-seen
	// active rows by truncating (or materializing) the selection.
	take := int(l.N - l.seen)
	if b.Sel == nil {
		sel := b.SelBuf()[:take]
		for i := range sel {
			sel[i] = i
		}
		b.Sel = sel
	} else {
		b.Sel = b.Sel[:take]
	}
	l.seen = l.N
	return b, nil
}

// Next implements Operator.
func (l *Limit) Next() ([]types.Value, error) {
	if l.bchild != nil {
		return l.shim.next(l.NextBatch)
	}
	if l.seen >= l.N {
		return nil, nil
	}
	row, err := l.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	l.seen++
	return row, nil
}

// Close implements Operator.
func (l *Limit) Close() error {
	l.shim.reset()
	return l.Child.Close()
}

// Distinct drops duplicate rows (hash-based).
type Distinct struct {
	Child Operator
	seen  map[uint64][][]types.Value
}

// NewDistinct wraps child with duplicate elimination.
func NewDistinct(child Operator) *Distinct {
	return &Distinct{Child: child}
}

// Schema implements Operator.
func (d *Distinct) Schema() *expr.RowSchema { return d.Child.Schema() }

// Open implements Operator.
func (d *Distinct) Open() error {
	d.seen = map[uint64][][]types.Value{}
	return d.Child.Open()
}

// Next implements Operator.
func (d *Distinct) Next() ([]types.Value, error) {
	for {
		row, err := d.Child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		h := hashRow(row)
		dup := false
		for _, prev := range d.seen[h] {
			if rowsEqual(prev, row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		d.seen[h] = append(d.seen[h], row)
		return row, nil
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen = nil
	return d.Child.Close()
}

func hashRow(row []types.Value) uint64 {
	var h uint64 = 1469598103934665603
	for _, v := range row {
		h ^= types.Hash(v)
		h *= 1099511628211
	}
	return h
}

func rowsEqual(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
