package plan

import (
	"runtime"

	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/storage"
)

// parallelize rewrites a plan for intra-query parallelism. Maximal
// scan-rooted fragments — chains of Filter / Project / TableFuncApply /
// hash-join probe sides / index-loop-join outer sides ending in a
// SeqScan — are cloned once per worker and fanned out behind a Gather
// exchange; everything else keeps its serial operator but has its
// streaming input parallelized in place. Hash-join build sides are
// lifted into a HashBuild shared by all probe workers (built once, with
// the key hashing itself parallelized), and the build input is
// recursively parallelized too.
func (p *Planner) parallelize(op exec.Operator, sum *CostSummary) exec.Operator {
	b := &parallelBuilder{
		planner:     p,
		dop:         p.Opts.DOP,
		morselPages: p.Opts.MorselPages,
		memBudget:   p.Opts.MemBudgetBytes > 0,
		sum:         sum,
	}
	return b.rewrite(op)
}

// parallelBuilder carries the rewrite parameters.
type parallelBuilder struct {
	planner     *Planner
	dop         int
	morselPages int
	// memBudget disables the shared-build fragment form: a HashBuild
	// has no spill path, so under a memory budget the spilling serial
	// HashJoin stays above the exchange and only its inputs parallelize.
	memBudget bool
	// sum, when non-nil, records whether the rewrite installed a Gather.
	sum *CostSummary
}

// worthParallel is the cost gate: parallelize when the projected
// parallel cost (the scan split across the workers that can actually
// run at once, plus per-worker startup and per-output-row exchange
// overhead) undercuts the serial scan cost. Scans whose fused
// predicates call XADT UDFs cross over much earlier than plain scans —
// per-row UDF work parallelizes perfectly while the exchange overhead
// stays fixed. The divisor is capped at Options.CPUs (default
// GOMAXPROCS): DOP workers beyond the processor count still pay
// startup and exchange but time-slice one core, so on a starved host
// the gate refuses and the plan stays serial. Options.ForceParallel
// skips the gate. Because Gather preserves morsel order, the gate
// affects only speed, never results.
func (b *parallelBuilder) worthParallel(n *exec.SeqScan) bool {
	cpus := b.planner.Opts.CPUs
	if cpus <= 0 {
		cpus = runtime.GOMAXPROCS(0)
	}
	eff := float64(b.dop)
	if c := float64(cpus); c < eff {
		eff = c
	}
	if eff < 2 {
		return false
	}
	t := n.Table
	rows := float64(t.Rows())
	if stats := t.StatsSnapshot(); stats.Fresh() {
		rows = float64(stats.Rows)
	}
	if rows < 1 {
		rows = 1
	}
	pages := float64(t.Heap.DataPages())
	serial := pages*cPageTouch + rows*(cRowTouch*rowWidthScale(t, rows)+predCostExpr(n.Pred))
	outRows := n.Est
	if outRows <= 0 {
		outRows = rows
	}
	parallel := serial/eff + float64(b.dop)*cWorkerStartup + outRows*cExchangeRow
	return parallel < serial
}

// rewrite returns an equivalent plan with parallel fragments installed.
func (b *parallelBuilder) rewrite(op exec.Operator) exec.Operator {
	if pipes, shared, ok := b.fragment(op); ok {
		if b.sum != nil {
			b.sum.Parallel = true
		}
		return exec.NewGather(pipes, b.morselPages, shared)
	}
	switch n := op.(type) {
	case *exec.Filter:
		n.Child = b.rewrite(n.Child)
	case *exec.Project:
		n.Child = b.rewrite(n.Child)
	case *exec.TableFuncApply:
		n.Child = b.rewrite(n.Child)
	case *exec.Sort:
		n.Child = b.rewrite(n.Child)
	case *exec.TopN:
		// When the child parallelizes into a Gather, push a partial TopN
		// into every worker pipeline: each worker keeps at most N rows,
		// so the exchange moves O(DOP·N) rows instead of the full input.
		// The outer TopN re-selects the global N; its seq tie-break sees
		// the same arrival order as the serial plan because Gather
		// preserves morsel order.
		n.Child = b.rewrite(n.Child)
		if g, ok := n.Child.(*exec.Gather); ok {
			for i := range g.Pipes {
				g.Pipes[i].Root = exec.NewTopN(g.Pipes[i].Root,
					expr.CloneAll(n.Keys), append([]bool(nil), n.Desc...), n.N)
			}
		}
	case *exec.Limit:
		n.Child = b.rewrite(n.Child)
	case *exec.HashAggregate:
		n.Child = b.rewrite(n.Child)
	case *exec.NestedLoopJoin:
		// The inner side is materialized once at Open; only the streamed
		// outer side benefits from a parallel input.
		n.Left = b.rewrite(n.Left)
	case *exec.HashJoin:
		n.Left = b.rewrite(n.Left)
		n.Right = b.rewrite(n.Right)
	case *exec.IndexLoopJoin:
		n.Left = b.rewrite(n.Left)
	}
	return op
}

// fragment attempts to clone the subtree rooted at op into per-worker
// pipelines. It succeeds only when the fragment bottoms out in a heap
// SeqScan large enough to split into more than one morsel; expressions
// are cloned per worker so no evaluation state is shared.
func (b *parallelBuilder) fragment(op exec.Operator) ([]exec.Pipeline, []exec.Resettable, bool) {
	switch n := op.(type) {
	case *exec.SeqScan:
		morselPages := b.morselPages
		if morselPages <= 0 {
			morselPages = storage.DefaultMorselPages
		}
		pages := n.Table.Heap.DataPages()
		if pages <= morselPages {
			return nil, nil, false // a single morsel gains nothing
		}
		if !b.planner.Opts.ForceParallel && !b.worthParallel(n) {
			return nil, nil, false // exchange overhead would dominate
		}
		workers := b.dop
		if m := (pages + morselPages - 1) / morselPages; workers > m {
			workers = m
		}
		pipes := make([]exec.Pipeline, workers)
		for i := range pipes {
			leaf := exec.NewSeqScan(n.Table, n.Alias, n.Cols)
			leaf.Est = n.Est
			if n.Pred != nil {
				// The fused scan predicate runs inside each worker.
				leaf.Pred = expr.Clone(n.Pred)
			}
			pipes[i] = exec.Pipeline{Root: leaf, Leaf: leaf}
		}
		return pipes, nil, true

	case *exec.Filter:
		pipes, shared, ok := b.fragment(n.Child)
		if !ok {
			return nil, nil, false
		}
		for i := range pipes {
			pipes[i].Root = exec.NewFilter(pipes[i].Root, expr.Clone(n.Pred))
		}
		return pipes, shared, true

	case *exec.Project:
		pipes, shared, ok := b.fragment(n.Child)
		if !ok {
			return nil, nil, false
		}
		names := n.Schema().Names()
		for i := range pipes {
			pipes[i].Root = exec.NewProject(pipes[i].Root, expr.CloneAll(n.Exprs), names)
		}
		return pipes, shared, true

	case *exec.TableFuncApply:
		pipes, shared, ok := b.fragment(n.Child)
		if !ok {
			return nil, nil, false
		}
		for i := range pipes {
			apply := exec.NewTableFuncApply(pipes[i].Root, n.Func, expr.CloneAll(n.Args), n.Alias)
			if n.Filter != nil {
				apply.Filter = expr.Clone(n.Filter)
			}
			pipes[i].Root = apply
		}
		return pipes, shared, true

	case *exec.HashJoin:
		if b.memBudget {
			// A shared build cannot spill; keep the serial spilling
			// HashJoin above the exchange (its inputs still parallelize
			// via the rewrite switch).
			return nil, nil, false
		}
		// Parallelize the probe (right) side; the build side becomes a
		// HashBuild shared by every worker's clone, itself recursively
		// parallelized.
		pipes, shared, ok := b.fragment(n.Right)
		if !ok {
			return nil, nil, false
		}
		build := &exec.HashBuild{
			Input:    b.rewrite(n.Left),
			Key:      n.LeftKey,
			BuildDOP: b.dop,
		}
		shared = append(shared, build)
		for i := range pipes {
			probe := exec.NewHashJoin(build.Input, pipes[i].Root,
				expr.Clone(n.LeftKey), expr.Clone(n.RightKey))
			probe.Shared = build
			pipes[i].Root = probe
		}
		return pipes, shared, true

	case *exec.IndexLoopJoin:
		// The B+tree and inner heap are read-only at query time, so
		// workers probe them concurrently; only the key expression needs
		// cloning.
		pipes, shared, ok := b.fragment(n.Left)
		if !ok {
			return nil, nil, false
		}
		for i := range pipes {
			pipes[i].Root = exec.NewIndexLoopJoin(pipes[i].Root, n.Right, n.Alias,
				n.Cols, n.Index, expr.Clone(n.LeftKey))
		}
		return pipes, shared, true
	}
	return nil, nil, false
}
