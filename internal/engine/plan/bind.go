// Package plan turns parsed SELECT statements into executable operator
// trees: it binds column references and function calls, pushes filters
// down to scans, chooses index scans for indexed equality predicates,
// orders joins by estimated cardinality, and picks hash joins (the
// paper's DB2 configuration) or index nested loops by estimated cost.
package plan

import (
	"fmt"

	"repro/internal/engine/expr"
	"repro/internal/engine/sql"
	"repro/internal/engine/types"
)

// bind converts an unbound sql.Expr into an executable expr.Expr resolved
// against schema.
func (p *Planner) bind(e sql.Expr, schema *expr.RowSchema) (expr.Expr, error) {
	switch n := e.(type) {
	case *sql.ColRef:
		idx, err := schema.Resolve(n.Qualifier, n.Name)
		if err != nil {
			return nil, err
		}
		return &expr.Col{Idx: idx, Name: n.String()}, nil
	case *sql.IntLit:
		return &expr.Const{Val: types.NewInt(n.Val)}, nil
	case *sql.NullLit:
		return &expr.Const{Val: types.Null}, nil
	case *sql.StrLit:
		return &expr.Const{Val: types.NewString(n.Val)}, nil
	case *sql.BinOp:
		l, err := p.bind(n.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := p.bind(n.R, schema)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "AND":
			return &expr.And{L: l, R: r}, nil
		case "OR":
			return &expr.Or{L: l, R: r}, nil
		case "=":
			return &expr.Cmp{Op: expr.EQ, L: l, R: r}, nil
		case "<>":
			return &expr.Cmp{Op: expr.NE, L: l, R: r}, nil
		case "<":
			return &expr.Cmp{Op: expr.LT, L: l, R: r}, nil
		case "<=":
			return &expr.Cmp{Op: expr.LE, L: l, R: r}, nil
		case ">":
			return &expr.Cmp{Op: expr.GT, L: l, R: r}, nil
		case ">=":
			return &expr.Cmp{Op: expr.GE, L: l, R: r}, nil
		default:
			return nil, fmt.Errorf("plan: unknown operator %q", n.Op)
		}
	case *sql.NotExpr:
		inner, err := p.bind(n.E, schema)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: inner}, nil
	case *sql.LikeExpr:
		inner, err := p.bind(n.E, schema)
		if err != nil {
			return nil, err
		}
		like := expr.NewLike(inner, n.Pattern)
		if n.Negated {
			return &expr.Not{E: like}, nil
		}
		return like, nil
	case *sql.FuncExpr:
		fn := p.Reg.Scalar(n.Name)
		if fn == nil {
			return nil, fmt.Errorf("plan: unknown function %s", n.Name)
		}
		args := make([]expr.Expr, len(n.Args))
		for i, a := range n.Args {
			bound, err := p.bind(a, schema)
			if err != nil {
				return nil, err
			}
			args[i] = bound
		}
		return expr.NewCall(p.Reg, fn, args)
	default:
		return nil, fmt.Errorf("plan: cannot bind %T", e)
	}
}

// refAliases collects the FROM aliases an unbound expression references,
// resolving unqualified names through the alias schemas.
func refAliases(e sql.Expr, schemas map[string]*expr.RowSchema) (map[string]bool, error) {
	out := map[string]bool{}
	var visit func(sql.Expr) error
	visit = func(e sql.Expr) error {
		switch n := e.(type) {
		case *sql.ColRef:
			if n.Qualifier != "" {
				if _, ok := schemas[n.Qualifier]; !ok {
					return fmt.Errorf("plan: unknown table alias %q", n.Qualifier)
				}
				out[n.Qualifier] = true
				return nil
			}
			owner := ""
			for alias, s := range schemas {
				if _, err := s.Resolve(alias, n.Name); err == nil {
					if owner != "" {
						return fmt.Errorf("plan: ambiguous column %q (in %s and %s)", n.Name, owner, alias)
					}
					owner = alias
				}
			}
			if owner == "" {
				return fmt.Errorf("plan: unknown column %q", n.Name)
			}
			out[owner] = true
		case *sql.BinOp:
			if err := visit(n.L); err != nil {
				return err
			}
			return visit(n.R)
		case *sql.NotExpr:
			return visit(n.E)
		case *sql.LikeExpr:
			return visit(n.E)
		case *sql.FuncExpr:
			for _, a := range n.Args {
				if err := visit(a); err != nil {
					return err
				}
			}
		case *sql.IntLit, *sql.StrLit:
		default:
			return fmt.Errorf("plan: cannot analyze %T", e)
		}
		return nil
	}
	if err := visit(e); err != nil {
		return nil, err
	}
	return out, nil
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinOp); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

// equiJoinSides recognizes "colA = colB" conjuncts spanning two aliases
// and returns the two references.
func equiJoinSides(e sql.Expr) (*sql.ColRef, *sql.ColRef, bool) {
	b, ok := e.(*sql.BinOp)
	if !ok || b.Op != "=" {
		return nil, nil, false
	}
	l, lok := b.L.(*sql.ColRef)
	r, rok := b.R.(*sql.ColRef)
	if !lok || !rok {
		return nil, nil, false
	}
	return l, r, true
}

// constEquality recognizes "col = literal" (either order) and returns the
// column and the literal value.
func constEquality(e sql.Expr) (*sql.ColRef, types.Value, bool) {
	b, ok := e.(*sql.BinOp)
	if !ok || b.Op != "=" {
		return nil, types.Null, false
	}
	if c, ok := b.L.(*sql.ColRef); ok {
		if v, ok := literalValue(b.R); ok {
			return c, v, true
		}
	}
	if c, ok := b.R.(*sql.ColRef); ok {
		if v, ok := literalValue(b.L); ok {
			return c, v, true
		}
	}
	return nil, types.Null, false
}

func literalValue(e sql.Expr) (types.Value, bool) {
	switch n := e.(type) {
	case *sql.IntLit:
		return types.NewInt(n.Val), true
	case *sql.StrLit:
		return types.NewString(n.Val), true
	default:
		return types.Null, false
	}
}
