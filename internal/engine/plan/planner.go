package plan

import (
	"fmt"
	"strings"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/mvcc"
	"repro/internal/engine/sql"
	"repro/internal/engine/storage"
)

// JoinAlgorithm selects the physical equi-join operator.
type JoinAlgorithm string

// Join algorithms. The paper's DB2 setup had hash joins enabled; merge
// and nested-loop exist for the §4.4 cost-shape ablation.
const (
	JoinHash   JoinAlgorithm = "hash"
	JoinMerge  JoinAlgorithm = "merge"
	JoinNested JoinAlgorithm = "nested"
)

// Options tune the optimizer.
type Options struct {
	// Join picks the equi-join algorithm; empty means hash.
	Join JoinAlgorithm
	// DisableIndexScan forces sequential scans.
	DisableIndexScan bool
	// DOP is the degree of intra-query parallelism: scan-rooted plan
	// fragments are cloned across up to DOP workers behind a Gather
	// exchange. 0 or 1 plans exactly the serial operator tree
	// (engine.Open defaults DOP to runtime.GOMAXPROCS). Because the
	// exchange reassembles worker output in morsel order, a parallel
	// plan returns rows in exactly the serial order at any DOP.
	DOP int
	// MorselPages is the page count of one parallel-scan morsel; 0 uses
	// storage.DefaultMorselPages. Tables at most one morsel long stay
	// serial.
	MorselPages int
	// CPUs is the processor count the adaptive parallelism gate assumes
	// can run worker pipelines simultaneously; 0 reads
	// runtime.GOMAXPROCS(0). Only the gate's speedup model consults it —
	// when a scan does fragment, DOP still fixes the worker count, and
	// because Gather preserves morsel order the setting affects speed,
	// never results. On a machine with fewer processors than DOP the
	// gate caps the modeled speedup accordingly, so requesting DOP N on
	// a single-CPU host plans serially instead of paying exchange
	// overhead for no gain. Tests pin this to stay machine-independent.
	CPUs int
	// MemBudgetBytes caps the tracked memory of one query's blocking
	// operators (sort buffers, hash-join builds, aggregate group state).
	// Each compiled plan gets its own exec.QueryCtx sharing one
	// MemTracker across all its operators and workers; operators that
	// would exceed the budget spill to run files. 0 means unlimited and
	// plans the exact in-memory operator paths.
	MemBudgetBytes int64
	// SpillVFS is the filesystem spill runs go through; nil means the
	// operating system (storage.OSFS). Tests inject storage.MemVFS or
	// storage.FaultVFS.
	SpillVFS storage.VFS
	// SpillDir is the base directory for per-query spill directories;
	// empty uses a subdirectory of os.TempDir().
	SpillDir string
	// ForceParallel bypasses the parallelism cost gate: every scan that
	// spans more than one morsel fans out, however small (tests and the
	// differential harness force parallel plans on tiny tables).
	ForceParallel bool
	// DisableXADTIndexes turns the XADT fragment-index rewrite off: even
	// when a valid fragment index covers a findKeyInElm conjunct, the
	// planner keeps the sequential scan. Used by the differential harness
	// (index-on vs index-off cells) and the paper-query oracle.
	DisableXADTIndexes bool
	// DisableAutoStats stops the planner from refreshing statistics
	// that drifted past catalog.DefaultStaleRatio before planning; the
	// estimator then falls back to defaults until an explicit RunStats.
	DisableAutoStats bool
}

// Planner compiles SELECT statements against a catalog and function
// registry.
type Planner struct {
	Cat  *catalog.Catalog
	Reg  *expr.Registry
	Opts Options
	// Spill accumulates spill statistics across every query this planner
	// compiles; engine.Open points it at the database's sink. May be nil.
	Spill *exec.SpillSink
	// Txn, when set, is the MVCC transaction whose snapshot the plans'
	// access operators read; it changes no plan.
	Txn *mvcc.Txn
}

// New returns a planner with default options.
func New(cat *catalog.Catalog, reg *expr.Registry) *Planner {
	return &Planner{Cat: cat, Reg: reg}
}

// baseItem is one base-table FROM entry.
type baseItem struct {
	alias string
	table *catalog.Table
	// cols are the stored columns the statement names, ascending; schema
	// holds exactly these, and the table's access operator decodes only
	// them (see narrowColumns).
	cols   []int
	schema *expr.RowSchema
	push   []sql.Expr // single-alias conjuncts pushed to this table
	est    float64    // estimated output cardinality after pushdown
	// probes memoizes fragment-index answers per pushed conjunct for
	// this statement; see probe.
	probes map[sql.Expr]fragProbe
}

// funcItem is one TABLE(f(...)) FROM entry.
type funcItem struct {
	alias  string
	fn     *expr.TableFunc
	call   *sql.TableFuncCall
	schema *expr.RowSchema
}

// Plan compiles a statement into an executable operator tree.
func (p *Planner) Plan(stmt *sql.SelectStmt) (exec.Operator, error) {
	op, _, err := p.PlanSummary(stmt)
	return op, err
}

// PlanSummary compiles a statement and additionally reports the
// optimizer's cost decisions. The summary is a fresh value per call —
// the planner holds no mutable state, so engine sessions can share
// planner copies without races.
func (p *Planner) PlanSummary(stmt *sql.SelectStmt) (exec.Operator, *CostSummary, error) {
	if len(stmt.From) == 0 {
		return nil, nil, fmt.Errorf("plan: FROM list is empty")
	}
	bases, funcs, schemas, err := p.analyzeFrom(stmt)
	if err != nil {
		return nil, nil, err
	}
	sum := &CostSummary{}

	// Auto-refresh: statistics that drifted past the staleness ratio are
	// recomputed before estimation, so sustained DML cannot starve the
	// cost model indefinitely. MaybeRefreshStats skips MVCC catalogs
	// (RunStats needs the exclusive path there) and tables whose stats
	// were never collected — analyzing is an explicit choice.
	if !p.Opts.DisableAutoStats {
		for _, b := range bases {
			if err := p.Cat.MaybeRefreshStats(b.table.Schema.Table); err != nil {
				return nil, nil, err
			}
		}
	}

	// One QueryCtx per compiled plan: all blocking operators of this
	// query share one MemTracker and one spill directory, so the budget
	// is per query, not per operator, and worker-safe under DOP > 1.
	var qctx *exec.QueryCtx
	if p.Opts.MemBudgetBytes > 0 {
		qctx = exec.NewQueryCtx(p.Opts.MemBudgetBytes, p.Opts.SpillVFS, p.Opts.SpillDir, p.Spill)
	}

	// Classify WHERE conjuncts.
	var joinPreds []joinPred // two-alias equi predicates between base tables
	var residual []sql.Expr  // everything else evaluated above the joins
	if stmt.Where != nil {
		for _, conj := range splitConjuncts(stmt.Where) {
			aliases, err := refAliases(conj, schemas)
			if err != nil {
				return nil, nil, err
			}
			switch {
			case len(aliases) == 1 && isBaseAlias(bases, aliases):
				alias := firstKey(aliases)
				b := findBase(bases, alias)
				b.push = append(b.push, conj)
			case len(aliases) == 2 && isBaseAlias(bases, aliases) && isEquiJoin(conj):
				l, r, _ := equiJoinSides(conj)
				la, err := resolveOwner(l, schemas)
				if err != nil {
					return nil, nil, err
				}
				ra, err := resolveOwner(r, schemas)
				if err != nil {
					return nil, nil, err
				}
				joinPreds = append(joinPreds, joinPred{l: l, r: r, la: la, ra: ra})
			default:
				residual = append(residual, conj)
			}
		}
	}
	ests := p.estimate(bases)
	order, strategy := p.chooseJoinOrder(bases, joinPreds, ests)
	sum.Strategy = strategy
	for _, b := range bases {
		if !ests[b.alias].fresh {
			sum.StaleStats = append(sum.StaleStats, b.alias)
		}
	}

	root, err := p.buildJoinTree(bases, joinPreds, order, ests, qctx, sum)
	if err != nil {
		return nil, nil, err
	}

	// Residual pushdown: attach each residual conjunct at the earliest
	// pipeline position where every alias it references is bound. Filters
	// commute with lateral applies (an apply only appends columns), so a
	// conjunct over base tables runs below the first apply, and a conjunct
	// over a table function's output fuses into that apply's Filter —
	// rejected rows are dropped before the joined row is materialized and
	// before any later apply multiplies them. Column indexes are stable
	// under the move because each apply extends the schema as a suffix.
	boundAliases := map[string]bool{}
	for _, b := range bases {
		boundAliases[b.alias] = true
	}
	ready, rest, err := partitionReady(residual, boundAliases, schemas)
	if err != nil {
		return nil, nil, err
	}
	if len(ready) > 0 {
		pred, err := p.bindConjuncts(ready, root.Schema())
		if err != nil {
			return nil, nil, err
		}
		root = exec.NewFilter(root, pred)
	}
	residual = rest

	// Lateral table functions, in declaration order.
	for _, f := range funcs {
		args := make([]expr.Expr, len(f.call.Args))
		for i, a := range f.call.Args {
			bound, err := p.bind(a, root.Schema())
			if err != nil {
				return nil, nil, err
			}
			args[i] = bound
		}
		apply := exec.NewTableFuncApply(root, f.fn, args, f.alias)
		boundAliases[f.alias] = true
		ready, rest, err := partitionReady(residual, boundAliases, schemas)
		if err != nil {
			return nil, nil, err
		}
		if len(ready) > 0 {
			pred, err := p.bindConjuncts(ready, apply.Schema())
			if err != nil {
				return nil, nil, err
			}
			apply.Filter = pred
		}
		residual = rest
		root = apply
	}

	// Residual predicates not attachable earlier.
	if len(residual) > 0 {
		pred, err := p.bindConjuncts(residual, root.Schema())
		if err != nil {
			return nil, nil, err
		}
		root = exec.NewFilter(root, pred)
	}

	// Aggregation and projection.
	root, err = p.buildOutput(stmt, root, qctx)
	if err != nil {
		return nil, nil, err
	}

	// HAVING filters the projected (post-aggregate) rows, so aliases and
	// grouped expressions resolve by output column name.
	if stmt.Having != nil {
		if !stmt.HasAggregates() && len(stmt.GroupBy) == 0 {
			return nil, nil, fmt.Errorf("plan: HAVING requires GROUP BY or aggregates")
		}
		pred, err := p.bind(stmt.Having, root.Schema())
		if err != nil {
			return nil, nil, err
		}
		root = exec.NewFilter(root, pred)
	}

	if stmt.Distinct {
		// DISTINCT is a grouping on every output column with no
		// aggregates: groups come out in first-appearance order, and
		// under a memory budget they spill.
		names := root.Schema().Names()
		keys := make([]expr.Expr, len(names))
		for i, name := range names {
			keys[i] = &expr.Col{Idx: i, Name: name}
		}
		agg := exec.NewHashAggregate(root, keys, names, nil)
		agg.Ctx = qctx
		root = agg
	}

	limitDone := false
	if len(stmt.OrderBy) > 0 {
		keys := make([]expr.Expr, len(stmt.OrderBy))
		desc := make([]bool, len(stmt.OrderBy))
		for i, o := range stmt.OrderBy {
			bound, err := p.bind(o.Expr, root.Schema())
			if err != nil {
				return nil, nil, err
			}
			keys[i] = bound
			desc[i] = o.Desc
		}
		if stmt.Limit >= 0 && !p.topNOverBudget(stmt.Limit, root) {
			// ORDER BY + LIMIT k fuses into a bounded heap: O(k) memory
			// instead of materializing and sorting the whole input. The
			// parallel rewrite additionally pushes a partial TopN below
			// the Gather exchange so each worker retains only k rows.
			root = exec.NewTopN(root, keys, desc, stmt.Limit)
			limitDone = true
		} else {
			// Full sort: either no LIMIT, or the cost
			// model judged the bounded heap itself too large for the
			// memory budget — the Sort can spill, the heap cannot. TopN
			// is a stable sort plus a cutoff, so the switch is
			// row-identical.
			s := exec.NewSort(root, keys, desc)
			s.Ctx = qctx
			root = s
		}
	}
	if stmt.Limit >= 0 && !limitDone {
		root = exec.NewLimit(root, stmt.Limit)
	}

	// Intra-query parallelism: clone scan-rooted fragments across DOP
	// workers behind a Gather exchange. Order-sensitive operators (Sort,
	// Limit, the aggregate's group ordering) sit above the exchange and
	// consume its order-preserving stream, so no plan shape needs a
	// serial fallback for correctness; DOP <= 1 skips the rewrite and
	// yields the exact serial tree.
	if p.Opts.DOP > 1 {
		root = p.parallelize(root, sum)
	}
	return root, sum, nil
}

// topNOverBudget reports whether a bounded TopN heap of k rows would
// itself blow the memory budget: the heap cannot spill, while the Sort
// it replaces can. Estimated from the plan's output schema width; with
// no budget TopN always wins.
func (p *Planner) topNOverBudget(k int64, root exec.Operator) bool {
	if p.Opts.MemBudgetBytes <= 0 {
		return false
	}
	rowBytes := 64 + 32*len(root.Schema().Cols)
	return k*int64(rowBytes) > p.Opts.MemBudgetBytes/2
}

// analyzeFrom resolves FROM items against the catalog and registry.
func (p *Planner) analyzeFrom(stmt *sql.SelectStmt) ([]*baseItem, []*funcItem, map[string]*expr.RowSchema, error) {
	var bases []*baseItem
	var funcs []*funcItem
	schemas := map[string]*expr.RowSchema{}
	for _, f := range stmt.From {
		if _, dup := schemas[f.Alias]; dup {
			return nil, nil, nil, fmt.Errorf("plan: duplicate alias %q in FROM", f.Alias)
		}
		if f.Func != nil {
			fn := p.Reg.Table(f.Func.Name)
			if fn == nil {
				return nil, nil, nil, fmt.Errorf("plan: unknown table function %s", f.Func.Name)
			}
			if len(f.Func.Args) < fn.MinArgs || len(f.Func.Args) > fn.MaxArgs {
				return nil, nil, nil, fmt.Errorf("plan: %s expects %d..%d arguments, got %d",
					fn.Name, fn.MinArgs, fn.MaxArgs, len(f.Func.Args))
			}
			cols := make([]expr.ColInfo, len(fn.Cols))
			for i, name := range fn.Cols {
				cols[i] = expr.ColInfo{Qualifier: f.Alias, Name: name, Type: fn.Types[i]}
			}
			funcs = append(funcs, &funcItem{
				alias: f.Alias, fn: fn, call: f.Func,
				schema: expr.NewRowSchema(cols...),
			})
			schemas[f.Alias] = funcs[len(funcs)-1].schema
			continue
		}
		tbl := p.Cat.Table(f.Table)
		if tbl == nil {
			return nil, nil, nil, fmt.Errorf("plan: unknown table %s", f.Table)
		}
		bases = append(bases, &baseItem{alias: f.Alias, table: tbl})
		schemas[f.Alias] = exec.TableSchema(tbl, f.Alias, nil)
	}
	if len(bases) == 0 {
		return nil, nil, nil, fmt.Errorf("plan: FROM needs at least one base table")
	}
	narrowColumns(stmt, bases, schemas)
	return bases, funcs, schemas, nil
}

// narrowColumns gives every base table the stored columns the statement
// names anywhere — select list, WHERE, GROUP BY, HAVING, ORDER BY and
// table-function arguments — and replaces its entry in schemas with the
// narrowed schema. A name counts for every table in whose full schema it
// resolves, so a name that is ambiguous, or is an output alias that also
// names a stored column, keeps its columns: binding against the narrowed
// schemas then succeeds or fails exactly as against full rows. A table
// with no named column keeps its first, so its rows still flow and count.
func narrowColumns(stmt *sql.SelectStmt, bases []*baseItem, schemas map[string]*expr.RowSchema) {
	named := make([][]bool, len(bases))
	for i, b := range bases {
		named[i] = make([]bool, len(b.table.Schema.Columns))
	}
	var visit func(sql.Expr)
	visit = func(e sql.Expr) {
		switch n := e.(type) {
		case *sql.ColRef:
			for i, b := range bases {
				if n.Qualifier != "" && n.Qualifier != b.alias {
					continue
				}
				if j := b.table.Schema.ColIndex(n.Name); j >= 0 {
					named[i][j] = true
				}
			}
		case *sql.BinOp:
			visit(n.L)
			visit(n.R)
		case *sql.NotExpr:
			visit(n.E)
		case *sql.LikeExpr:
			visit(n.E)
		case *sql.FuncExpr:
			for _, a := range n.Args {
				visit(a)
			}
		}
	}
	for _, item := range stmt.Items {
		if item.Expr != nil {
			visit(item.Expr)
		}
	}
	if stmt.Where != nil {
		visit(stmt.Where)
	}
	for _, g := range stmt.GroupBy {
		visit(g)
	}
	if stmt.Having != nil {
		visit(stmt.Having)
	}
	for _, o := range stmt.OrderBy {
		visit(o.Expr)
	}
	for _, f := range stmt.From {
		if f.Func != nil {
			for _, a := range f.Func.Args {
				visit(a)
			}
		}
	}
	for i, b := range bases {
		for j, ok := range named[i] {
			if ok {
				b.cols = append(b.cols, j)
			}
		}
		if len(b.cols) == 0 {
			b.cols = []int{0}
		}
		b.schema = exec.TableSchema(b.table, b.alias, b.cols)
		schemas[b.alias] = b.schema
	}
}

// access builds the access path for one base table: an index scan when an
// indexed equality predicate exists, a sequential scan otherwise, with
// remaining pushed predicates applied as a filter.
func (p *Planner) access(b *baseItem) (exec.Operator, error) {
	var op exec.Operator
	remaining := b.push
	// A covering fragment index on a findKeyInElm conjunct wins over a
	// B+tree equality: the workload's equality columns (parentCODE and the
	// like) select large fractions of the table, while a keyword/path probe
	// is sharp — and the fragment scan re-verifies every pushed conjunct,
	// equalities included, so precedence never affects results.
	if !p.Opts.DisableXADTIndexes {
		frag, err := p.xadtIndexAccess(b)
		if err != nil {
			return nil, err
		}
		if frag != nil {
			frag.Est = b.est
			return frag, nil
		}
	}
	if !p.Opts.DisableIndexScan {
		for i, conj := range b.push {
			ref, val, ok := constEquality(conj)
			if !ok {
				continue
			}
			idx := b.table.IndexOn(ref.Name)
			if idx == nil {
				continue
			}
			iscan := exec.NewIndexScan(b.table, b.alias, b.cols, idx, val)
			iscan.Txn = p.Txn
			iscan.Est = b.est
			op = iscan
			remaining = append(append([]sql.Expr(nil), b.push[:i]...), b.push[i+1:]...)
			break
		}
	}
	if op == nil {
		scan := exec.NewSeqScan(b.table, b.alias, b.cols)
		scan.Txn = p.Txn
		scan.Est = b.est
		if len(remaining) > 0 {
			// Fuse pushed predicates into the scan itself: rows are
			// rejected at the cursor, and the parallel rewrite carries the
			// predicate into every worker's morsel scan.
			pred, err := p.bindConjuncts(remaining, scan.Schema())
			if err != nil {
				return nil, err
			}
			scan.Pred = pred
			remaining = nil
		}
		op = scan
	}
	if len(remaining) > 0 {
		pred, err := p.bindConjuncts(remaining, op.Schema())
		if err != nil {
			return nil, err
		}
		op = exec.NewFilter(op, pred)
	}
	return op, nil
}

// partitionReady splits conjuncts into those whose referenced aliases
// are all in bound (attachable now) and the rest (attachable later).
func partitionReady(conjs []sql.Expr, bound map[string]bool, schemas map[string]*expr.RowSchema) (ready, rest []sql.Expr, err error) {
	for _, conj := range conjs {
		aliases, err := refAliases(conj, schemas)
		if err != nil {
			return nil, nil, err
		}
		ok := true
		for a := range aliases {
			if !bound[a] {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, conj)
		} else {
			rest = append(rest, conj)
		}
	}
	return ready, rest, nil
}

// joinPred is a classified two-alias equi-join conjunct with its sides'
// owning aliases resolved.
type joinPred struct {
	l, r   *sql.ColRef
	la, ra string
}

func (jp joinPred) expr() sql.Expr {
	return &sql.BinOp{Op: "=", L: jp.l, R: jp.r}
}

// buildJoinTree assembles a left-deep join tree following the chosen
// join order, consuming every equi predicate at the first step where
// both its sides are bound. Per join it picks the physical algorithm:
// an explicit Join option forces one (the §4.4 ablation), otherwise
// the cost model compares hash, merge, and index nested loops — a
// comparison that reads only statistics, the query, and durable store
// state, so every differential-harness cell picks the same algorithm
// and row order stays cell-invariant.
func (p *Planner) buildJoinTree(bases []*baseItem, joinPreds []joinPred, order []int, ests map[string]*tableEst, qctx *exec.QueryCtx, sum *CostSummary) (exec.Operator, error) {
	used := make([]bool, len(joinPreds))
	joined := map[string]bool{}

	first := bases[order[0]]
	cur, err := p.access(first)
	if err != nil {
		return nil, err
	}
	joined[first.alias] = true
	curEst := first.est
	curCost := 0.0
	if te := ests[first.alias]; te != nil {
		curCost = te.access
	}
	sum.JoinOrder = append(sum.JoinOrder, first.alias)

	for _, oi := range order[1:] {
		b := bases[oi]
		sum.JoinOrder = append(sum.JoinOrder, b.alias)

		// Collect the applicable predicates: one side owned by b, the
		// other already joined.
		combined := expr.Concat(cur.Schema(), b.schema)
		var keyL, keyR expr.Expr
		var innerCol string // b-side column of the first key
		var extra []expr.Expr
		predSel := 1.0
		for i, jp := range joinPreds {
			if used[i] {
				continue
			}
			var oldRef, newRef *sql.ColRef
			switch {
			case joined[jp.la] && jp.ra == b.alias:
				oldRef, newRef = jp.l, jp.r
			case jp.la == b.alias && joined[jp.ra]:
				oldRef, newRef = jp.r, jp.l
			default:
				continue
			}
			used[i] = true
			predSel *= joinSel(jp, ests)
			boundOld, err := p.bind(oldRef, combined)
			if err != nil {
				return nil, err
			}
			boundNew, err := p.bind(newRef, combined)
			if err != nil {
				return nil, err
			}
			if keyL == nil {
				keyL, keyR = boundOld, boundNew
				innerCol = newRef.Name
			} else {
				extra = append(extra, &expr.Cmp{Op: expr.EQ, L: boundOld, R: boundNew})
			}
		}

		outCard := curEst * b.est
		if keyL != nil {
			outCard *= predSel
		}
		if outCard < 1 {
			outCard = 1
		}

		// Index nested loops: structurally eligible when the inner table
		// has an index on the join column and no pushed predicate wants
		// its own access path. An explicit Join option overrides the
		// cost model's pick.
		alg := p.Opts.Join
		inlOK := alg == "" && keyL != nil && len(b.push) == 0 &&
			b.table.IndexOn(innerCol) != nil
		step, phys := p.joinStepCost(ests[b.alias], curEst, b.est, outCard, inlOK)
		curCost += step
		useINL := phys == physINL
		if alg == "" && phys == physMerge {
			alg = JoinMerge
		}

		if useINL {
			idx := b.table.IndexOn(innerCol)
			ilj := exec.NewIndexLoopJoin(cur, b.table, b.alias, b.cols, idx, keyL)
			ilj.Txn = p.Txn
			ilj.Est = outCard
			cur = ilj
			for _, e := range extra {
				cur = exec.NewFilter(cur, e)
			}
			joined[b.alias] = true
			curEst = outCard
			continue
		}

		right, err := p.access(b)
		if err != nil {
			return nil, err
		}
		switch {
		case keyL == nil:
			nlj := exec.NewNestedLoopJoin(cur, right, nil)
			nlj.Est = outCard
			cur = nlj
		case alg == JoinMerge:
			mj := exec.NewMergeJoin(cur, right, keyL, keyR)
			mj.Est = outCard
			cur = mj
		case alg == JoinNested:
			nlj := exec.NewNestedLoopJoin(cur, right, &expr.Cmp{Op: expr.EQ, L: keyL, R: keyR})
			nlj.Est = outCard
			cur = nlj
		default:
			hj := exec.NewHashJoin(cur, right, keyL, keyR)
			hj.Ctx = qctx
			hj.Est = outCard
			cur = hj
		}
		for _, e := range extra {
			cur = exec.NewFilter(cur, e)
		}
		joined[b.alias] = true
		curEst = outCard
	}

	// Any join predicate never consumed becomes a filter, so none is
	// dropped.
	for i, jp := range joinPreds {
		if used[i] {
			continue
		}
		bound, err := p.bind(jp.expr(), cur.Schema())
		if err != nil {
			return nil, err
		}
		cur = exec.NewFilter(cur, bound)
	}
	sum.EstRows = curEst
	sum.Cost = curCost
	return cur, nil
}

// buildOutput adds aggregation and projection.
func (p *Planner) buildOutput(stmt *sql.SelectStmt, input exec.Operator, qctx *exec.QueryCtx) (exec.Operator, error) {
	if !stmt.HasAggregates() && len(stmt.GroupBy) == 0 {
		exprs := make([]expr.Expr, len(stmt.Items))
		names := make([]string, len(stmt.Items))
		for i, item := range stmt.Items {
			bound, err := p.bind(item.Expr, input.Schema())
			if err != nil {
				return nil, err
			}
			exprs[i] = bound
			names[i] = outputName(item, i)
		}
		return exec.NewProject(input, exprs, names), nil
	}

	// Aggregation: group expressions first.
	groupExprs := make([]expr.Expr, len(stmt.GroupBy))
	groupNames := make([]string, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		bound, err := p.bind(g, input.Schema())
		if err != nil {
			return nil, err
		}
		groupExprs[i] = bound
		if ref, ok := g.(*sql.ColRef); ok {
			groupNames[i] = ref.Name
		} else {
			groupNames[i] = g.String()
		}
	}
	var aggs []exec.AggSpec
	aggPos := map[int]int{} // select item index → agg index
	for i, item := range stmt.Items {
		if item.Agg == sql.AggNone {
			continue
		}
		spec := exec.AggSpec{Distinct: item.AggDistinct, Name: outputName(item, i)}
		switch item.Agg {
		case sql.AggCount:
			spec.Kind = exec.AggCount
		case sql.AggSum:
			spec.Kind = exec.AggSum
		case sql.AggMin:
			spec.Kind = exec.AggMin
		case sql.AggMax:
			spec.Kind = exec.AggMax
		}
		if !item.Star {
			bound, err := p.bind(item.Expr, input.Schema())
			if err != nil {
				return nil, err
			}
			spec.Arg = bound
		}
		aggPos[i] = len(aggs)
		aggs = append(aggs, spec)
	}
	agg := exec.NewHashAggregate(input, groupExprs, groupNames, aggs)
	agg.Ctx = qctx

	// Map select items onto the aggregate's output columns.
	exprs := make([]expr.Expr, len(stmt.Items))
	names := make([]string, len(stmt.Items))
	for i, item := range stmt.Items {
		names[i] = outputName(item, i)
		if ai, ok := aggPos[i]; ok {
			exprs[i] = &expr.Col{Idx: len(groupExprs) + ai, Name: names[i]}
			continue
		}
		// A non-aggregate select item must match a GROUP BY expression:
		// syntactically, or by column name for references.
		gi := -1
		for j, g := range stmt.GroupBy {
			if g.String() == item.Expr.String() {
				gi = j
				break
			}
			ref, rok := item.Expr.(*sql.ColRef)
			gref, gok := g.(*sql.ColRef)
			if rok && gok && gref.Name == ref.Name &&
				(ref.Qualifier == "" || gref.Qualifier == "" || ref.Qualifier == gref.Qualifier) {
				gi = j
				break
			}
		}
		if gi < 0 {
			return nil, fmt.Errorf("plan: select item %q is not in GROUP BY", item.Expr)
		}
		exprs[i] = &expr.Col{Idx: gi, Name: names[i]}
	}
	return exec.NewProject(agg, exprs, names), nil
}

// bindConjuncts binds a conjunct list and ANDs it together.
func (p *Planner) bindConjuncts(conjs []sql.Expr, schema *expr.RowSchema) (expr.Expr, error) {
	var out expr.Expr
	for _, c := range conjs {
		bound, err := p.bind(c, schema)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = bound
		} else {
			out = &expr.And{L: out, R: bound}
		}
	}
	return out, nil
}

// outputName derives the output column name of a select item.
func outputName(item sql.SelectItem, pos int) string {
	if item.Alias != "" {
		return item.Alias
	}
	if item.Agg != sql.AggNone {
		name := strings.ToLower(item.Agg.String())
		if item.Star {
			return name
		}
		if ref, ok := item.Expr.(*sql.ColRef); ok {
			return name + "_" + ref.Name
		}
		return fmt.Sprintf("%s_%d", name, pos+1)
	}
	if ref, ok := item.Expr.(*sql.ColRef); ok {
		return ref.Name
	}
	return fmt.Sprintf("col_%d", pos+1)
}

// resolveOwner resolves which FROM alias a column reference belongs to.
func resolveOwner(ref *sql.ColRef, schemas map[string]*expr.RowSchema) (string, error) {
	if ref.Qualifier != "" {
		if _, ok := schemas[ref.Qualifier]; !ok {
			return "", fmt.Errorf("plan: unknown table alias %q", ref.Qualifier)
		}
		return ref.Qualifier, nil
	}
	owner := ""
	for alias, s := range schemas {
		if _, err := s.Resolve(alias, ref.Name); err == nil {
			if owner != "" {
				return "", fmt.Errorf("plan: ambiguous column %q", ref.Name)
			}
			owner = alias
		}
	}
	if owner == "" {
		return "", fmt.Errorf("plan: unknown column %q", ref.Name)
	}
	return owner, nil
}

func isEquiJoin(e sql.Expr) bool {
	_, _, ok := equiJoinSides(e)
	return ok
}

func isBaseAlias(bases []*baseItem, aliases map[string]bool) bool {
	for a := range aliases {
		if findBase(bases, a) == nil {
			return false
		}
	}
	return true
}

func findBase(bases []*baseItem, alias string) *baseItem {
	for _, b := range bases {
		if b.alias == alias {
			return b
		}
	}
	return nil
}

func firstKey(m map[string]bool) string {
	for k := range m {
		return k
	}
	return ""
}

// connected reports whether alias has an unused equi edge into the joined
// set.
func connected(alias string, joined map[string]bool, preds []joinPred, used []bool) bool {
	for i, jp := range preds {
		if used[i] {
			continue
		}
		if (jp.la == alias && joined[jp.ra]) || (jp.ra == alias && joined[jp.la]) {
			return true
		}
	}
	return false
}

// estSuffix renders an operator's estimated cardinality. Appended after
// the operator's own rendering so substring assertions on the operator
// text keep matching; zero (no estimate) renders nothing.
func estSuffix(est float64) string {
	if est <= 0 {
		return ""
	}
	return fmt.Sprintf(" est=%.0f", est)
}

// Explain renders a physical plan tree for diagnostics and tests.
func Explain(op exec.Operator) string {
	var sb strings.Builder
	explain(&sb, op, 0)
	return sb.String()
}

func explain(sb *strings.Builder, op exec.Operator, depth int) {
	indent := strings.Repeat("  ", depth)
	switch n := op.(type) {
	case *exec.SeqScan:
		fmt.Fprintf(sb, "%s%s%s\n", indent, n, estSuffix(n.Est))
	case *exec.IndexScan:
		fmt.Fprintf(sb, "%s%s%s\n", indent, n, estSuffix(n.Est))
	case *exec.IndexedFragScan:
		fmt.Fprintf(sb, "%s%s%s\n", indent, n, estSuffix(n.Est))
	case *exec.ValuesScan:
		fmt.Fprintf(sb, "%sValuesScan(%d rows)\n", indent, len(n.Rows))
	case *exec.Filter:
		fmt.Fprintf(sb, "%sFilter(%s)\n", indent, n.Pred)
		explain(sb, n.Child, depth+1)
	case *exec.Project:
		fmt.Fprintf(sb, "%sProject(%s)\n", indent, strings.Join(n.Schema().Names(), ", "))
		explain(sb, n.Child, depth+1)
	case *exec.HashJoin:
		if n.Shared != nil {
			// One worker's probe; the build it shares runs once.
			fmt.Fprintf(sb, "%sHashProbe(%s = %s)\n", indent, n.LeftKey, n.RightKey)
			fmt.Fprintf(sb, "%s  HashBuild\n", indent)
			explain(sb, n.Left, depth+2)
		} else {
			fmt.Fprintf(sb, "%sHashJoin(%s = %s)%s\n", indent, n.LeftKey, n.RightKey, estSuffix(n.Est))
			explain(sb, n.Left, depth+1)
		}
		explain(sb, n.Right, depth+1)
	case *exec.MergeJoin:
		fmt.Fprintf(sb, "%sMergeJoin(%s = %s)%s\n", indent, n.LeftKey, n.RightKey, estSuffix(n.Est))
		explain(sb, n.Left, depth+1)
		explain(sb, n.Right, depth+1)
	case *exec.NestedLoopJoin:
		if n.Pred == nil {
			fmt.Fprintf(sb, "%sCrossProduct%s\n", indent, estSuffix(n.Est))
		} else {
			fmt.Fprintf(sb, "%sNestedLoopJoin(%s)%s\n", indent, n.Pred, estSuffix(n.Est))
		}
		explain(sb, n.Left, depth+1)
		explain(sb, n.Right, depth+1)
	case *exec.IndexLoopJoin:
		fmt.Fprintf(sb, "%s%s%s\n", indent, n, estSuffix(n.Est))
		explain(sb, n.Left, depth+1)
	case *exec.TableFuncApply:
		if n.Filter != nil {
			fmt.Fprintf(sb, "%sTableFuncApply(%s as %s, filter: %s)\n", indent, n.Func.Name, n.Alias, n.Filter)
		} else {
			fmt.Fprintf(sb, "%sTableFuncApply(%s as %s)\n", indent, n.Func.Name, n.Alias)
		}
		explain(sb, n.Child, depth+1)
	case *exec.HashAggregate:
		fmt.Fprintf(sb, "%s%s\n", indent, n)
		explain(sb, n.Child, depth+1)
	case *exec.Sort:
		fmt.Fprintf(sb, "%sSort\n", indent)
		explain(sb, n.Child, depth+1)
	case *exec.TopN:
		fmt.Fprintf(sb, "%s%s\n", indent, n)
		explain(sb, n.Child, depth+1)
	case *exec.Limit:
		fmt.Fprintf(sb, "%sLimit(%d)\n", indent, n.N)
		explain(sb, n.Child, depth+1)
	case *exec.Gather:
		// All pipelines are clones; show the first as representative.
		fmt.Fprintf(sb, "%s%s\n", indent, n)
		explain(sb, n.Pipes[0].Root, depth+1)
	default:
		fmt.Fprintf(sb, "%s%T\n", indent, op)
	}
}

// CountJoins returns the number of join operators in a plan — the metric
// the paper's analysis centers on ("queries usually have fewer joins").
func CountJoins(op exec.Operator) int {
	switch n := op.(type) {
	case *exec.Filter:
		return CountJoins(n.Child)
	case *exec.Project:
		return CountJoins(n.Child)
	case *exec.HashJoin:
		return 1 + CountJoins(n.Left) + CountJoins(n.Right)
	case *exec.MergeJoin:
		return 1 + CountJoins(n.Left) + CountJoins(n.Right)
	case *exec.NestedLoopJoin:
		return 1 + CountJoins(n.Left) + CountJoins(n.Right)
	case *exec.IndexLoopJoin:
		return 1 + CountJoins(n.Left)
	case *exec.TableFuncApply:
		return CountJoins(n.Child)
	case *exec.HashAggregate:
		return CountJoins(n.Child)
	case *exec.Sort:
		return CountJoins(n.Child)
	case *exec.TopN:
		return CountJoins(n.Child)
	case *exec.Limit:
		return CountJoins(n.Child)
	case *exec.Gather:
		return CountJoins(n.Pipes[0].Root)
	default:
		return 0
	}
}
