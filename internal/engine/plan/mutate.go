package plan

import (
	"fmt"

	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/sql"
	"repro/internal/engine/types"
)

// PlanMutation binds an INSERT, UPDATE or DELETE to an exec.Mutation,
// whose Ops computes the statement's row ops for the store and for
// sessions alike.
func (p *Planner) PlanMutation(stmt sql.Statement) (*exec.Mutation, error) {
	switch s := stmt.(type) {
	case *sql.InsertStmt:
		return p.planInsert(s)
	case *sql.UpdateStmt:
		return p.planUpdate(s)
	case *sql.DeleteStmt:
		return p.planDelete(s)
	default:
		return nil, fmt.Errorf("plan: %T is not a mutation", stmt)
	}
}

// planInsert folds the VALUES expressions to constants and maps explicit
// column lists onto schema order (missing columns become NULL).
func (p *Planner) planInsert(stmt *sql.InsertStmt) (*exec.Mutation, error) {
	tbl := p.Cat.Table(stmt.Table)
	if tbl == nil {
		return nil, fmt.Errorf("plan: unknown table %s", stmt.Table)
	}
	cols := make([]int, 0, len(stmt.Columns))
	if len(stmt.Columns) == 0 {
		for i := range tbl.Schema.Columns {
			cols = append(cols, i)
		}
	} else {
		seen := map[int]bool{}
		for _, name := range stmt.Columns {
			ci := tbl.Schema.ColIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("plan: table %s has no column %s", stmt.Table, name)
			}
			if seen[ci] {
				return nil, fmt.Errorf("plan: duplicate column %s in INSERT", name)
			}
			seen[ci] = true
			cols = append(cols, ci)
		}
	}
	m := &exec.Mutation{Kind: mvcc.OpRowInsert, Table: tbl}
	for _, tuple := range stmt.Rows {
		if len(tuple) != len(cols) {
			return nil, fmt.Errorf("plan: VALUES tuple has %d expressions for %d columns", len(tuple), len(cols))
		}
		row := make([]types.Value, len(tbl.Schema.Columns))
		for j := range row {
			row[j] = types.Null
		}
		for j, e := range tuple {
			v, err := p.foldValue(e)
			if err != nil {
				return nil, err
			}
			row[cols[j]] = v
		}
		m.Rows = append(m.Rows, row)
	}
	return m, nil
}

// planUpdate binds the WHERE predicate and SET assignments against the
// table schema.
func (p *Planner) planUpdate(stmt *sql.UpdateStmt) (*exec.Mutation, error) {
	m, err := p.mutationWhere(mvcc.OpRowUpdate, stmt.Table, stmt.Where)
	if err != nil {
		return nil, err
	}
	tbl := m.Table
	seen := map[int]bool{}
	for _, sc := range stmt.Set {
		ci := tbl.Schema.ColIndex(sc.Column)
		if ci < 0 {
			return nil, fmt.Errorf("plan: table %s has no column %s", stmt.Table, sc.Column)
		}
		if seen[ci] {
			return nil, fmt.Errorf("plan: duplicate SET column %s", sc.Column)
		}
		seen[ci] = true
		v, err := p.foldValue(sc.Value)
		if err != nil {
			return nil, err
		}
		m.Set = append(m.Set, exec.SetCol{Idx: ci, Val: v})
	}
	return m, nil
}

// planDelete binds the WHERE predicate against the table schema.
func (p *Planner) planDelete(stmt *sql.DeleteStmt) (*exec.Mutation, error) {
	return p.mutationWhere(mvcc.OpRowDelete, stmt.Table, stmt.Where)
}

// mutationWhere resolves an UPDATE or DELETE target table and binds its
// WHERE clause against the table's row schema (the table name doubles
// as the qualifier, matching SELECT's default alias). It reuses the
// query planner's access-path selection in miniature: when an
// indexed-equality conjunct exists (and index scans are enabled), the
// B+tree supplies the candidate RIDs while the complete predicate is
// still re-verified per row — exactly the superset-plus-reverify
// contract of SELECT's index paths.
func (p *Planner) mutationWhere(kind mvcc.OpKind, name string, where sql.Expr) (*exec.Mutation, error) {
	tbl := p.Cat.Table(name)
	if tbl == nil {
		return nil, fmt.Errorf("plan: unknown table %s", name)
	}
	m := &exec.Mutation{Kind: kind, Table: tbl}
	if where == nil {
		return m, nil
	}
	cols := make([]expr.ColInfo, len(tbl.Schema.Columns))
	for i, c := range tbl.Schema.Columns {
		cols[i] = expr.ColInfo{Qualifier: name, Name: c.Name, Type: c.Type}
	}
	var err error
	if m.Pred, err = p.bind(where, expr.NewRowSchema(cols...)); err != nil {
		return nil, err
	}
	if p.Opts.DisableIndexScan {
		return m, nil
	}
	for _, conj := range splitConjuncts(where) {
		ref, val, ok := constEquality(conj)
		if !ok || (ref.Qualifier != "" && ref.Qualifier != tbl.Schema.Table) {
			continue
		}
		if idx := tbl.IndexOn(ref.Name); idx != nil {
			m.Index, m.Key = idx, val
			return m, nil
		}
	}
	return m, nil
}

// foldValue evaluates a DML value expression to a constant. Column
// references have nothing to bind against in a value position, so any
// expression that needs a row fails here.
func (p *Planner) foldValue(e sql.Expr) (types.Value, error) {
	bound, err := p.bind(e, expr.NewRowSchema())
	if err != nil {
		return types.Null, fmt.Errorf("plan: value expression %s: %w", e, err)
	}
	v, err := bound.Eval(nil)
	if err != nil {
		return types.Null, fmt.Errorf("plan: evaluating %s: %w", e, err)
	}
	return v, nil
}
