package expr

import (
	"fmt"
	"sync"

	"repro/internal/engine/types"
)

// ScalarFunc is a function callable from SQL expressions.
type ScalarFunc struct {
	Name string
	// Builtin functions are evaluated inline by the executor; UDFs go
	// through the external call convention (argument boxing, indirect
	// dispatch, optional fencing), which is measurably more expensive —
	// the effect the paper quantifies in Figure 14.
	Builtin bool
	// MinArgs and MaxArgs bound the argument count.
	MinArgs, MaxArgs int
	// ReadOnly declares that Fn never mutates its argument payloads, so
	// the external call convention may skip the per-call defensive copy
	// (DB2's NO SQL + deterministic UDFs get the same marshaling
	// shortcut). Leave false for UDFs used to measure the full Figure-14
	// invocation overhead.
	ReadOnly bool
	// Fn is the implementation.
	Fn func(args []types.Value) (types.Value, error)
}

// TableFunc is a table-valued function usable in FROM via TABLE(f(...)),
// like the paper's unnest UDF (§3.5).
type TableFunc struct {
	Name string
	// Cols are the output column names (the paper's unnest returns a
	// single column named "out").
	Cols []string
	// Types are the output column types, parallel to Cols.
	Types []types.Kind
	// MinArgs and MaxArgs bound the argument count.
	MinArgs, MaxArgs int
	// Fn produces the output rows for one invocation.
	Fn func(args []types.Value) ([][]types.Value, error)
}

// Registry holds the functions known to a database.
type Registry struct {
	scalars map[string]*ScalarFunc
	tables  map[string]*TableFunc
	// Fenced routes UDF calls through a separate goroutine, modeling
	// DB2's FENCED mode where UDFs run in their own address space. The
	// paper runs NOT FENCED because fencing "causes a significant
	// performance penalty"; the flag exists to reproduce that penalty.
	Fenced    bool
	fenceOnce sync.Once
	fenceCh   chan fenceCall
}

type fenceCall struct {
	fn    func(args []types.Value) (types.Value, error)
	args  []types.Value
	reply chan fenceReply
}

type fenceReply struct {
	val types.Value
	err error
}

// NewRegistry returns an empty function registry.
func NewRegistry() *Registry {
	return &Registry{
		scalars: map[string]*ScalarFunc{},
		tables:  map[string]*TableFunc{},
	}
}

// RegisterScalar adds a scalar function; redefinition is an error.
func (r *Registry) RegisterScalar(f *ScalarFunc) error {
	if _, dup := r.scalars[f.Name]; dup {
		return fmt.Errorf("expr: scalar function %s already registered", f.Name)
	}
	r.scalars[f.Name] = f
	return nil
}

// RegisterTable adds a table function; redefinition is an error.
func (r *Registry) RegisterTable(f *TableFunc) error {
	if _, dup := r.tables[f.Name]; dup {
		return fmt.Errorf("expr: table function %s already registered", f.Name)
	}
	r.tables[f.Name] = f
	return nil
}

// Scalar returns the named scalar function, or nil.
func (r *Registry) Scalar(name string) *ScalarFunc { return r.scalars[name] }

// Table returns the named table function, or nil.
func (r *Registry) Table(name string) *TableFunc { return r.tables[name] }

// callFenced routes a call through the fence goroutine, starting it on
// first use.
func (r *Registry) callFenced(fn func([]types.Value) (types.Value, error), args []types.Value) (types.Value, error) {
	r.fenceOnce.Do(func() {
		r.fenceCh = make(chan fenceCall)
		go func() {
			for c := range r.fenceCh {
				v, err := c.fn(c.args)
				c.reply <- fenceReply{val: v, err: err}
			}
		}()
	})
	reply := make(chan fenceReply, 1)
	r.fenceCh <- fenceCall{fn: fn, args: args, reply: reply}
	rep := <-reply
	return rep.val, rep.err
}

// Call is a bound scalar function invocation.
type Call struct {
	Func *ScalarFunc
	Args []Expr
	reg  *Registry
	// buf is the reusable argument buffer for the built-in fast path.
	buf []types.Value
}

// NewCall binds a function invocation.
func NewCall(reg *Registry, fn *ScalarFunc, args []Expr) (*Call, error) {
	if len(args) < fn.MinArgs || len(args) > fn.MaxArgs {
		return nil, fmt.Errorf("expr: %s expects %d..%d arguments, got %d",
			fn.Name, fn.MinArgs, fn.MaxArgs, len(args))
	}
	return &Call{Func: fn, Args: args, reg: reg, buf: make([]types.Value, len(args))}, nil
}

// Eval evaluates the arguments and dispatches. Built-ins reuse the
// argument buffer and call directly; UDFs box arguments into a fresh
// slice, validate them, and dispatch indirectly (through the fence when
// enabled) — the per-call overhead the paper attributes to the UDF
// mechanism.
func (c *Call) Eval(row []types.Value) (types.Value, error) {
	if c.Func.Builtin {
		for i, a := range c.Args {
			v, err := a.Eval(row)
			if err != nil {
				return types.Null, err
			}
			c.buf[i] = v
		}
		return c.Func.Fn(c.buf)
	}
	args := make([]types.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(row)
		if err != nil {
			return types.Null, err
		}
		// The external call convention copies argument payloads into the
		// UDF's own memory (DB2 marshals SQL values into the UDF's
		// buffers on every call) — the per-call cost Figure 14
		// quantifies. ReadOnly UDFs skip the copy; it also keeps the
		// bytes' identity stable, which the XADT cache's table slot keys on.
		if c.Func.ReadOnly {
			args[i] = v
		} else {
			args[i] = copyValue(v)
		}
	}
	// The handle is re-resolved and arguments re-validated per
	// invocation.
	fn := c.reg.Scalar(c.Func.Name)
	if fn == nil {
		return types.Null, fmt.Errorf("expr: function %s disappeared", c.Func.Name)
	}
	for _, v := range args {
		_ = v.Kind()
	}
	if c.reg.Fenced {
		return c.reg.callFenced(fn.Fn, args)
	}
	return fn.Fn(args)
}

// copyValue duplicates a value's payload into fresh memory.
func copyValue(v types.Value) types.Value {
	switch v.Kind() {
	case types.KindString:
		b := make([]byte, len(v.Str()))
		copy(b, v.Str())
		return types.NewString(string(b))
	case types.KindXADT:
		b := make([]byte, len(v.XADT()))
		copy(b, v.XADT())
		return types.NewXADT(b)
	default:
		return v
	}
}

// String renders the call.
func (c *Call) String() string {
	s := c.Func.Name + "("
	for i, a := range c.Args {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}
