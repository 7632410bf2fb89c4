// Package engine is the database facade of the reproduction: an embedded
// relational engine with table storage, B+tree indexes, a SQL-subset
// planner/executor, and the XADT methods of the paper registered as UDFs
// (getElm, findKeyInElm, getElmIndex, and the unnest table function),
// alongside built-in and UDF variants of string functions for the
// Figure 14 overhead experiment.
package engine

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/plan"
	"repro/internal/engine/sql"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/engine/wal"
	"repro/internal/xadt"
)

// Config tunes a database instance.
type Config struct {
	// BufferPoolPages bounds the tracked page residency; 0 means no
	// buffer pool (Database.Pool is nil) and no page accounting.
	BufferPoolPages int
	// DOP is the degree of intra-query parallelism. 0 defaults to
	// runtime.GOMAXPROCS(0); 1 forces serial execution.
	DOP int
	// WALDir, when non-empty, enables the record-level write-ahead log:
	// every document load becomes one committed batch under this
	// directory, checkpoints truncate the log, and core.OpenRecovered
	// restores the committed prefix after a crash. Consumed by the
	// store lifecycle layer (core), which owns load batching and
	// checkpointing.
	WALDir string
	// WALSync is the log sync policy (wal.SyncAlways, the zero value,
	// wal.SyncBatch, or wal.SyncOff).
	WALSync wal.SyncPolicy
	// VFS is the filesystem the WAL and checkpoint files go through;
	// nil means the operating system (storage.OSFS). Tests inject
	// storage.MemVFS/storage.FaultVFS here to drive crash points
	// deterministically.
	VFS storage.VFS
	// MemBudgetBytes caps the tracked memory of each query's blocking
	// operators (sort, hash-join build, aggregate groups); when a query
	// exceeds it, those operators spill to run files and merge back with
	// byte-identical output. 0 means unlimited (the in-memory paths).
	MemBudgetBytes int64
	// SpillDir is the base directory for per-query spill files; empty
	// uses a subdirectory of os.TempDir(). Spill I/O goes through VFS
	// when set (falling back to the OS).
	SpillDir string
	// MVCC attaches a transaction manager and per-table version sidecars
	// at open, enabling Begin/Commit/Rollback sessions with snapshot
	// isolation. Off, the database behaves exactly as the single-user
	// engine of PRs 1–8.
	MVCC bool
}

// Database is an embedded database instance.
type Database struct {
	Catalog  *catalog.Catalog
	Registry *expr.Registry
	// Pool accounts page reads against Config.BufferPoolPages; it is nil
	// when that is 0.
	Pool *storage.BufferPool
	// TxnMgr is the MVCC transaction manager, nil unless Config.MVCC was
	// set (or EnableMVCC called). When present, Begin opens snapshot
	// sessions and every direct mutation must run inside a transaction
	// envelope (see core's direct-op wrappers).
	TxnMgr  *mvcc.TxnManager
	planner *plan.Planner
	caches  *xadt.CachePool // XADT caches the UDFs borrow
	spill   *exec.SpillSink
}

// EnableMVCC attaches a transaction manager and registers a version
// sidecar on every existing (and future) table. Idempotent; must be
// called before concurrent use begins.
func (db *Database) EnableMVCC() {
	if db.TxnMgr != nil {
		return
	}
	db.TxnMgr = mvcc.NewTxnManager()
	db.Catalog.SetMVCC(db.TxnMgr)
}

// SpillStats returns the spill counters accumulated across all queries
// since Open or the last ResetSpillStats: runs written, bytes spilled,
// extra merge passes, and the highest tracked-memory peak of any query.
func (db *Database) SpillStats() exec.SpillStats { return db.spill.Stats() }

// ResetSpillStats zeroes the spill counters, so benchmarks can attribute
// spill activity to one measured query.
func (db *Database) ResetSpillStats() { db.spill.Reset() }

// XADTCacheStats returns the XADT caches' totals so far: element tables
// decoded (misses) and reads a cache's table slot served (hits), the
// XADT counterpart of Pool.Stats.
func (db *Database) XADTCacheStats() xadt.CacheStats { return db.caches.Stats() }

// Result is a fully materialized query result.
type Result struct {
	Cols []string
	Rows [][]types.Value
}

// Open creates an empty database with the standard function library
// registered.
func Open(cfg Config) *Database {
	pool := newPool(cfg)
	return newDatabase(catalog.New(pool), pool, cfg)
}

// newPool returns the buffer pool cfg asks for, or nil for none: heap
// files skip the accounting of a nil pool, so reads write no shared
// counter.
func newPool(cfg Config) *storage.BufferPool {
	if cfg.BufferPoolPages <= 0 {
		return nil
	}
	return storage.NewBufferPool(cfg.BufferPoolPages)
}

// newDatabase wires a catalog into a Database: the standard function
// library, the planner, and (with Config.MVCC) the transaction manager.
func newDatabase(cat *catalog.Catalog, pool *storage.BufferPool, cfg Config) *Database {
	reg := expr.NewRegistry()
	spill := &exec.SpillSink{}
	db := &Database{
		Catalog:  cat,
		Registry: reg,
		Pool:     pool,
		planner:  &plan.Planner{Cat: cat, Reg: reg, Opts: plannerOptions(cfg), Spill: spill},
		spill:    spill,
		caches:   xadt.NewCachePool(0),
	}
	registerStandardFunctions(reg, db.caches)
	if cfg.MVCC {
		db.EnableMVCC()
	}
	return db
}

// plannerOptions maps the Config knobs onto the planner options. DOP 0
// becomes the machine's GOMAXPROCS (a bare plan.Planner constructed
// without engine.Open keeps DOP 0 and plans serially), and spill I/O
// goes through the database's VFS so tests exercising spills stay in
// memory.
func plannerOptions(cfg Config) plan.Options {
	dop := cfg.DOP
	if dop == 0 {
		dop = runtime.GOMAXPROCS(0)
	}
	return plan.Options{
		DOP:            dop,
		MemBudgetBytes: cfg.MemBudgetBytes,
		SpillVFS:       cfg.VFS,
		SpillDir:       cfg.SpillDir,
	}
}

// SetPlannerOptions replaces the optimizer options; ablations and the
// test oracles switch parallelism and index use here.
func (db *Database) SetPlannerOptions(opts plan.Options) {
	db.planner.Opts = opts
}

// CreateTable registers a table.
func (db *Database) CreateTable(name string, cols []catalog.Column) (*catalog.Table, error) {
	return db.Catalog.CreateTable(name, cols)
}

// CreateIndexes builds an index over each listed column of a table — the
// path + keyword fragment index over an XADT column, a B+tree over any
// other — filling them all in one pass over the table.
func (db *Database) CreateIndexes(table string, columns []string) error {
	return db.Catalog.CreateIndexes(table, columns)
}

// RunStats refreshes optimizer statistics on every table.
func (db *Database) RunStats() error { return db.Catalog.RunStatsAll() }

// Plan compiles a query without executing it.
func (db *Database) Plan(query string) (exec.Operator, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return db.planner.Plan(stmt)
}

// Query compiles and runs a query, materializing the result.
func (db *Database) Query(query string) (*Result, error) {
	op, err := db.Plan(query)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Drain(op)
	if err != nil {
		return nil, fmt.Errorf("engine: executing %q: %w", query, err)
	}
	return &Result{Cols: op.Schema().Names(), Rows: rows}, nil
}

// Exec parses and runs any statement — SELECT or DML — returning the
// result-row count for queries and the affected-row count for mutations.
// Redo records of mutations go to log (often a *wal.Batch); a nil log
// runs them without durability.
func (db *Database) Exec(query string, log exec.MutationLog) (int64, error) {
	stmt, err := sql.ParseStatement(query)
	if err != nil {
		return 0, err
	}
	return db.ExecStatement(stmt, log)
}

// ExecStatement runs an already-parsed statement; see Exec. A mutation
// computes its row ops against the live heap, then applies them all; a
// statement that fails validation changes nothing.
func (db *Database) ExecStatement(stmt sql.Statement, log exec.MutationLog) (int64, error) {
	if sel, ok := stmt.(*sql.SelectStmt); ok {
		op, err := db.planner.Plan(sel)
		if err != nil {
			return 0, err
		}
		rows, err := exec.Drain(op)
		if err != nil {
			return 0, fmt.Errorf("engine: executing statement: %w", err)
		}
		return int64(len(rows)), nil
	}
	m, err := db.planner.PlanMutation(stmt)
	if err != nil {
		return 0, err
	}
	ops, err := m.Ops(exec.Live)
	if err != nil {
		return 0, err
	}
	if err := db.ApplyOps(ops, log); err != nil {
		return 0, err
	}
	return int64(len(ops)), nil
}

// Explain returns the physical plan of a query as text.
func (db *Database) Explain(query string) (string, error) {
	op, err := db.Plan(query)
	if err != nil {
		return "", err
	}
	return plan.Explain(op), nil
}

// JoinCount returns the number of join operators a query plans to — the
// paper's central cost driver.
func (db *Database) JoinCount(query string) (int, error) {
	op, err := db.Plan(query)
	if err != nil {
		return 0, err
	}
	return plan.CountJoins(op), nil
}

// Save writes a snapshot of the database's tables, data, and index
// definitions to w.
func (db *Database) Save(w io.Writer) error {
	return db.Catalog.Save(w)
}

// OpenSnapshot reconstructs a database from a snapshot written by Save,
// rebuilding indexes and statistics. The function registry is the
// standard library plus whatever the caller registers afterwards.
func OpenSnapshot(r io.Reader, cfg Config) (*Database, error) {
	pool := newPool(cfg)
	cat, err := catalog.Load(r, pool)
	if err != nil {
		return nil, err
	}
	return newDatabase(cat, pool, cfg), nil
}

// registerStandardFunctions installs the XADT methods (§3.4.2), the
// unnest table function (§3.5), and the built-in/UDF string function
// pairs of the Figure 14 experiment. Each XADT UDF invocation borrows a
// cache from caches (sync.Pool keeps it effectively worker-private, so
// the hot path takes no locks). They are ReadOnly — they never mutate the fragment
// bytes — so the call convention skips the defensive argument copy.
func registerStandardFunctions(reg *expr.Registry, caches *xadt.CachePool) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}

	// getElm(inXML, rootElm, searchElm, searchKey [, level]) → XADT
	must(reg.RegisterScalar(&expr.ScalarFunc{
		Name: "getElm", MinArgs: 4, MaxArgs: 5, ReadOnly: true,
		Fn: func(args []types.Value) (types.Value, error) {
			if args[0].IsNull() {
				return types.Null, nil
			}
			in, err := xadtArg(args[0])
			if err != nil {
				return types.Null, err
			}
			rootElm, searchElm, searchKey, err := stringArgs(args[1:4])
			if err != nil {
				return types.Null, err
			}
			level := 0
			if len(args) == 5 && !args[4].IsNull() {
				if level, err = intArg("getElm", args[4]); err != nil {
					return types.Null, err
				}
			}
			eval := xadt.Evaluator{Cache: caches.Get()}
			defer caches.Put(eval.Cache)
			out, err := eval.GetElm(in, rootElm, searchElm, searchKey, level)
			if err != nil {
				return types.Null, err
			}
			return types.NewXADT(out.Bytes()), nil
		},
	}))

	// findKeyInElm(inXML, searchElm, searchKey) → INTEGER 0/1
	must(reg.RegisterScalar(&expr.ScalarFunc{
		Name: "findKeyInElm", MinArgs: 3, MaxArgs: 3, ReadOnly: true,
		Fn: func(args []types.Value) (types.Value, error) {
			if args[0].IsNull() {
				return types.NewInt(0), nil
			}
			in, err := xadtArg(args[0])
			if err != nil {
				return types.Null, err
			}
			searchElm, searchKey, _, err := stringArgs([]types.Value{args[1], args[2], types.NewString("")})
			if err != nil {
				return types.Null, err
			}
			eval := xadt.Evaluator{Cache: caches.Get()}
			defer caches.Put(eval.Cache)
			found, err := eval.FindKeyInElm(in, searchElm, searchKey)
			if err != nil {
				return types.Null, err
			}
			if found {
				return types.NewInt(1), nil
			}
			return types.NewInt(0), nil
		},
	}))

	// getElmIndex(inXML, parentElm, childElm, startPos, endPos) → XADT
	must(reg.RegisterScalar(&expr.ScalarFunc{
		Name: "getElmIndex", MinArgs: 5, MaxArgs: 5, ReadOnly: true,
		Fn: func(args []types.Value) (types.Value, error) {
			if args[0].IsNull() {
				return types.Null, nil
			}
			in, err := xadtArg(args[0])
			if err != nil {
				return types.Null, err
			}
			parentElm, childElm, _, err := stringArgs([]types.Value{args[1], args[2], types.NewString("")})
			if err != nil {
				return types.Null, err
			}
			if args[3].IsNull() || args[4].IsNull() {
				return types.Null, nil
			}
			start, err := intArg("getElmIndex", args[3])
			if err != nil {
				return types.Null, err
			}
			end, err := intArg("getElmIndex", args[4])
			if err != nil {
				return types.Null, err
			}
			eval := xadt.Evaluator{Cache: caches.Get()}
			defer caches.Put(eval.Cache)
			out, err := eval.GetElmIndex(in, parentElm, childElm, start, end)
			if err != nil {
				return types.Null, err
			}
			return types.NewXADT(out.Bytes()), nil
		},
	}))

	// xadtText(inXML) → VARCHAR: serialized fragment text, used to
	// render query answers and compare results across mappings.
	must(reg.RegisterScalar(&expr.ScalarFunc{
		Name: "xadtText", MinArgs: 1, MaxArgs: 1, ReadOnly: true,
		Fn: func(args []types.Value) (types.Value, error) {
			if args[0].IsNull() {
				return types.Null, nil
			}
			in, err := xadtArg(args[0])
			if err != nil {
				return types.Null, err
			}
			s, err := in.Text()
			if err != nil {
				return types.Null, err
			}
			return types.NewString(s), nil
		},
	}))

	// xadtInnerText(inXML) → VARCHAR: concatenated character data of the
	// fragment, without tags or attributes. Grouping queries use it to
	// compare fragment contents across mappings (QG4/QG5).
	must(reg.RegisterScalar(&expr.ScalarFunc{
		Name: "xadtInnerText", MinArgs: 1, MaxArgs: 1, ReadOnly: true,
		Fn: func(args []types.Value) (types.Value, error) {
			if args[0].IsNull() {
				return types.Null, nil
			}
			in, err := xadtArg(args[0])
			if err != nil {
				return types.Null, err
			}
			eval := xadt.Evaluator{Cache: caches.Get()}
			defer caches.Put(eval.Cache)
			s, err := eval.InnerText(in)
			if err != nil {
				return types.Null, err
			}
			return types.NewString(s), nil
		},
	}))

	// unnest(inXML, tag) table function → rows of single XADT column
	// "out" (Figure 9).
	must(reg.RegisterTable(&expr.TableFunc{
		Name: "unnest", Cols: []string{"out"}, Types: []types.Kind{types.KindXADT},
		MinArgs: 2, MaxArgs: 2,
		Fn: func(args []types.Value) ([][]types.Value, error) {
			if args[0].IsNull() {
				return nil, nil
			}
			in, err := xadtArg(args[0])
			if err != nil {
				return nil, err
			}
			if args[1].IsNull() || args[1].Kind() != types.KindString {
				return nil, fmt.Errorf("engine: unnest tag must be a string")
			}
			eval := xadt.Evaluator{Cache: caches.Get()}
			defer caches.Put(eval.Cache)
			vals, err := eval.Unnest(in, args[1].Str())
			if err != nil {
				return nil, err
			}
			// The outputs stay references into the argument's bytes;
			// one array holds every one-column row.
			cells := make([]types.Value, len(vals))
			out := make([][]types.Value, len(vals))
			for i, v := range vals {
				cells[i] = types.FromXADT(v)
				out[i] = cells[i : i+1 : i+1]
			}
			return out, nil
		},
	}))

	// Figure 14 pairs: built-in length/substr vs equivalent UDFs.
	lengthImpl := func(args []types.Value) (types.Value, error) {
		if args[0].IsNull() {
			return types.Null, nil
		}
		if args[0].Kind() != types.KindString {
			return types.Null, fmt.Errorf("engine: length expects a string")
		}
		return types.NewInt(int64(len(args[0].Str()))), nil
	}
	substrImpl := func(args []types.Value) (types.Value, error) {
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		if args[0].Kind() != types.KindString {
			return types.Null, fmt.Errorf("engine: substr expects a string")
		}
		s := args[0].Str()
		start, err := intArg("substr", args[1]) // 1-based
		if err != nil {
			return types.Null, err
		}
		if start < 1 {
			start = 1
		}
		if start > len(s) {
			return types.NewString(""), nil
		}
		out := s[start-1:]
		if len(args) == 3 && !args[2].IsNull() {
			n, err := intArg("substr", args[2])
			if err != nil {
				return types.Null, err
			}
			if n < 0 {
				n = 0
			}
			if n < len(out) {
				out = out[:n]
			}
		}
		return types.NewString(out), nil
	}
	must(reg.RegisterScalar(&expr.ScalarFunc{
		Name: "length", Builtin: true, MinArgs: 1, MaxArgs: 1, Fn: lengthImpl,
	}))
	must(reg.RegisterScalar(&expr.ScalarFunc{
		Name: "udf_length", MinArgs: 1, MaxArgs: 1, Fn: lengthImpl,
	}))
	must(reg.RegisterScalar(&expr.ScalarFunc{
		Name: "substr", Builtin: true, MinArgs: 2, MaxArgs: 3, Fn: substrImpl,
	}))
	must(reg.RegisterScalar(&expr.ScalarFunc{
		Name: "udf_substr", MinArgs: 2, MaxArgs: 3, Fn: substrImpl,
	}))
}

// xadtArg converts an argument to an XADT value, keeping a reference
// one; VARCHAR arguments are treated as raw fragments, mirroring the
// paper's implementation of the XADT on top of VARCHAR.
func xadtArg(v types.Value) (xadt.Value, error) {
	switch v.Kind() {
	case types.KindXADT:
		return v.Fragment(), nil
	case types.KindString:
		return xadt.Parse(v.Str(), xadt.Raw)
	default:
		return xadt.Value{}, fmt.Errorf("engine: expected XADT argument, got %v", v.Kind())
	}
}

// intArg reads an integer argument of fn, returning an error for any
// other kind where Value.Int would panic.
func intArg(fn string, v types.Value) (int, error) {
	if v.Kind() != types.KindInt {
		return 0, fmt.Errorf("engine: %s expects an integer argument, got %v", fn, v.Kind())
	}
	return int(v.Int()), nil
}

// stringArgs extracts up to three string arguments, treating NULL as "".
func stringArgs(args []types.Value) (a, b, c string, err error) {
	get := func(v types.Value) (string, error) {
		if v.IsNull() {
			return "", nil
		}
		if v.Kind() != types.KindString {
			return "", fmt.Errorf("engine: expected string argument, got %v", v.Kind())
		}
		return v.Str(), nil
	}
	if len(args) > 0 {
		if a, err = get(args[0]); err != nil {
			return
		}
	}
	if len(args) > 1 {
		if b, err = get(args[1]); err != nil {
			return
		}
	}
	if len(args) > 2 {
		if c, err = get(args[2]); err != nil {
			return
		}
	}
	return
}
