package exec

import (
	"repro/internal/engine/expr"
	"repro/internal/engine/types"
)

// Filter passes through rows for which the predicate is true.
type Filter struct {
	Child Operator
	Pred  expr.Expr
}

// NewFilter wraps child with a predicate.
func NewFilter(child Operator, pred expr.Expr) *Filter {
	return &Filter{Child: child, Pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *expr.RowSchema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open() error { return f.Child.Open() }

// Next implements Operator.
func (f *Filter) Next() ([]types.Value, error) {
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
func (f *Filter) Close() error { return f.Child.Close() }

// Project evaluates output expressions over each input row.
type Project struct {
	Child  Operator
	Exprs  []expr.Expr
	schema *expr.RowSchema
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
func (p *Project) Open() error { return p.Child.Open() }

// Next implements Operator.
func (p *Project) Next() ([]types.Value, error) {
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
func (p *Project) Close() error { return p.Child.Close() }

// Limit passes through at most N rows.
type Limit struct {
	Child Operator
	N     int64
	seen  int64
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
	return l.Child.Open()
}

// Next implements Operator.
func (l *Limit) Next() ([]types.Value, error) {
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
func (l *Limit) Close() error { return l.Child.Close() }

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
