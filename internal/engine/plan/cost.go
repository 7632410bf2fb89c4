package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/sql"
	"repro/internal/engine/types"
)

// Cost model constants. The units are abstract "row touches"; only the
// ratios matter. They are calibrated so a plain sequential scan becomes
// worth parallelizing near 32 pages or 2048 rows, while scans whose
// predicates call into the XADT UDFs cross over much earlier — per-row
// UDF work is what the paper's §4.4 analysis identifies as the term
// that dominates its query shapes.
const (
	// cPageTouch is the cost of pulling one heap page through the buffer
	// pool.
	cPageTouch = 4.0
	// cRowTouch is the cost of surfacing one row from a scan; it scales
	// with the row width (see rowWidthScale).
	cRowTouch = 1.0
	// cPredCall is one user function call (findKeyInElm and friends)
	// evaluated over one row.
	cPredCall = 24.0
	// cPredLike is one LIKE match over one row.
	cPredLike = 2.0
	// cPredSimple is one comparison / boolean connective over one row.
	cPredSimple = 0.5
	// cHashBuildRow / cHashProbeRow are the per-row costs of the two
	// hash-join phases.
	cHashBuildRow = 2.0
	cHashProbeRow = 1.2
	// cIndexProbeRow is one B+tree descent.
	cIndexProbeRow = 3.0
	// cOutRow is the cost of materializing one joined output row.
	cOutRow = 0.3
	// cWorkerStartup is the fixed cost of spinning up one parallel
	// worker pipeline (goroutine, channel, morsel bookkeeping).
	cWorkerStartup = 300.0
	// cExchangeRow is the cost of moving one row through the Gather
	// exchange.
	cExchangeRow = 0.2
)

// defaultNDV is the distinct-count guess when statistics are missing or
// stale.
const defaultNDV = 10

// tableEst carries the statistics-derived properties of one base-table
// FROM entry for the current Plan call. All fields are computed from a
// single StatsSnapshot, so concurrent RunStats never tears an estimate.
type tableEst struct {
	stats catalog.Stats
	// fresh reports whether the snapshot is trusted: valid and not
	// drifted past catalog.DefaultStaleRatio. When false the estimator
	// falls back to live row counts and default selectivities.
	fresh  bool
	rows   float64 // base cardinality (statistics when fresh, live count otherwise)
	pages  float64 // heap data pages
	width  float64 // row-width scale factor, 1 + avgRowBytes/256
	sel    float64 // combined selectivity of the pushed conjuncts
	out    float64 // rows × sel, floored at 1 — the post-pushdown estimate
	access float64 // accessCost of the table, computed once per statement
}

// ndv returns the distinct count of a column, falling back to
// defaultNDV when statistics are not fresh.
func (te *tableEst) ndv(col string) float64 {
	if te.fresh {
		if d := te.stats.DistinctOr(col, defaultNDV); d >= 1 {
			return float64(d)
		}
	}
	return defaultNDV
}

// estimate fills per-table cardinality estimates from histograms,
// distinct counts, and fragment-index document frequencies of fresh
// statistics, falling back to live row counts and default
// selectivities without them. The returned map is keyed by FROM alias.
func (p *Planner) estimate(bases []*baseItem) map[string]*tableEst {
	ests := make(map[string]*tableEst, len(bases))
	for _, b := range bases {
		// Snapshot once so concurrent planners never race a RunStats.
		stats := b.table.StatsSnapshot()
		te := &tableEst{
			stats: stats,
			fresh: stats.Fresh(),
			rows:  float64(b.table.Rows()),
			pages: float64(b.table.Heap.DataPages()),
		}
		if te.fresh {
			te.rows = float64(stats.Rows)
		}
		if te.rows < 1 {
			te.rows = 1
		}
		te.width = rowWidthScale(b.table, te.rows)
		sels := make([]float64, 0, len(b.push))
		for _, conj := range b.push {
			sels = append(sels, p.selConjunct(b, te, conj))
		}
		te.sel = combineSel(sels)
		te.out = te.rows * te.sel
		if te.out < 1 {
			te.out = 1
		}
		b.est = te.out
		te.access = p.accessCost(b, te)
		ests[b.alias] = te
	}
	return ests
}

// rowWidthScale converts a table's average row width into the scan
// cost multiplier: narrow rows cost cRowTouch, a 256-byte row doubles
// it.
func rowWidthScale(t *catalog.Table, rows float64) float64 {
	if rows < 1 {
		return 1
	}
	return 1 + float64(t.DataBytes())/rows/256
}

// selConjunct estimates the selectivity of one pushed conjunct.
//
// The estimate is deliberately a pure function of the statistics
// snapshot, the query text, and durable store state (indexes): it must
// never read Options fields like DisableIndexScan or DisableXADTIndexes,
// because the differential harness compares row-for-row across those
// axes and a flag-dependent estimate could flip the join order between
// cells. In particular the fragment-index document frequency is
// consulted even when the index rewrite itself is disabled.
func (p *Planner) selConjunct(b *baseItem, te *tableEst, conj sql.Expr) float64 {
	if pr := b.probe(conj); pr.matched {
		if pr.ok {
			return clampSel(float64(len(pr.rids)) / te.rows)
		}
		// Unindexed, or an index that cannot answer this key (no element
		// name, no word-shaped token) — which says nothing about how many
		// rows match. Keyword probes are sharp either way.
		return 0.05
	}
	if ref, val, ok := constEquality(conj); ok {
		if te.fresh {
			if cs, ok := te.stats.Col(ref.Name); ok && cs.Hist != nil && len(cs.Hist.Bounds) > 0 {
				// Out-of-range equality: the histogram never saw the value.
				last := cs.Hist.Bounds[len(cs.Hist.Bounds)-1]
				if types.Compare(val, cs.Hist.Min) < 0 || types.Compare(last, val) < 0 {
					return clampSel(1 / te.rows)
				}
			}
		}
		return clampSel(1 / te.ndv(ref.Name))
	}
	if bin, ok := conj.(*sql.BinOp); ok {
		if ref, val, dir, ok := constRange(bin); ok {
			if te.fresh {
				if cs, ok := te.stats.Col(ref.Name); ok && cs.Hist != nil {
					f := cs.Hist.FracBelow(val)
					sel := f
					if dir == rangeAbove {
						sel = 1 - f
					}
					// Scale by the non-null fraction: NULLs never pass.
					sel *= 1 - cs.NullFrac
					return clampSel(sel)
				}
			}
			return 1.0 / 3
		}
		if bin.Op == "<>" {
			if ref, ok := bin.L.(*sql.ColRef); ok {
				d := te.ndv(ref.Name)
				return clampSel((d - 1) / d)
			}
			return 0.9
		}
	}
	if _, ok := conj.(*sql.LikeExpr); ok {
		return 0.25
	}
	return 0.1
}

// rangeAbove / rangeBelow describe which side of the constant a range
// predicate keeps.
type rangeDir int

const (
	rangeBelow rangeDir = iota // col < c, col <= c
	rangeAbove                 // col > c, col >= c
)

// constRange recognizes col <op> literal (either operand order) for the
// four ordering comparisons and normalizes it to "keep rows below/above
// the constant". The <= / >= boundary row is absorbed into the
// interpolation error.
func constRange(bin *sql.BinOp) (*sql.ColRef, types.Value, rangeDir, bool) {
	var dir rangeDir
	switch bin.Op {
	case "<", "<=":
		dir = rangeBelow
	case ">", ">=":
		dir = rangeAbove
	default:
		return nil, types.Null, rangeBelow, false
	}
	if ref, ok := bin.L.(*sql.ColRef); ok {
		if val, ok := literalValue(bin.R); ok {
			return ref, val, dir, true
		}
	}
	if ref, ok := bin.R.(*sql.ColRef); ok {
		if val, ok := literalValue(bin.L); ok {
			// c < col keeps rows above the constant.
			if dir == rangeBelow {
				dir = rangeAbove
			} else {
				dir = rangeBelow
			}
			return ref, val, dir, true
		}
	}
	return nil, types.Null, rangeBelow, false
}

// combineSel combines per-conjunct selectivities with damped
// independence (exponential back-off): the most selective conjunct
// counts fully, the next at sqrt, the next at the 4th root, and so on.
// Pure independence over-multiplies correlated predicates; the damping
// keeps multi-predicate estimates from collapsing to zero.
func combineSel(sels []float64) float64 {
	if len(sels) == 0 {
		return 1
	}
	sort.Float64s(sels)
	sel := 1.0
	exp := 1.0
	for _, s := range sels {
		sel *= math.Pow(s, exp)
		exp /= 2
	}
	return clampSel(sel)
}

// clampSel bounds a selectivity to (0, 1].
func clampSel(s float64) float64 {
	if s < 1e-6 {
		return 1e-6
	}
	if s > 1 {
		return 1
	}
	return s
}

// joinSel estimates the selectivity of one equi-join predicate as
// 1/max(ndv(left), ndv(right)) — the textbook containment assumption.
func joinSel(jp joinPred, ests map[string]*tableEst) float64 {
	d := 1.0
	if te, ok := ests[jp.la]; ok {
		d = math.Max(d, te.ndv(jp.l.Name))
	}
	if te, ok := ests[jp.ra]; ok {
		d = math.Max(d, te.ndv(jp.r.Name))
	}
	return clampSel(1 / d)
}

// predCostSQL estimates the per-row evaluation cost of unbound pushed
// conjuncts (used for access-path costing before binding).
func predCostSQL(conjs []sql.Expr) float64 {
	cost := 0.0
	for _, c := range conjs {
		cost += sqlExprCost(c)
	}
	return cost
}

func sqlExprCost(e sql.Expr) float64 {
	switch n := e.(type) {
	case *sql.BinOp:
		return cPredSimple + sqlExprCost(n.L) + sqlExprCost(n.R)
	case *sql.FuncExpr:
		cost := cPredCall
		for _, a := range n.Args {
			cost += sqlExprCost(a)
		}
		return cost
	case *sql.LikeExpr:
		return cPredLike
	default:
		return 0
	}
}

// predCostExpr estimates the per-row evaluation cost of a bound
// predicate tree — the parallel cost gate walks the fused scan
// predicate with it.
func predCostExpr(e expr.Expr) float64 {
	switch n := e.(type) {
	case nil:
		return 0
	case *expr.And:
		return cPredSimple + predCostExpr(n.L) + predCostExpr(n.R)
	case *expr.Or:
		return cPredSimple + predCostExpr(n.L) + predCostExpr(n.R)
	case *expr.Not:
		return predCostExpr(n.E)
	case *expr.Cmp:
		return cPredSimple + predCostExpr(n.L) + predCostExpr(n.R)
	case *expr.Like:
		return cPredLike + predCostExpr(n.E)
	case *expr.Call:
		cost := cPredCall
		for _, a := range n.Args {
			cost += predCostExpr(a)
		}
		return cost
	default:
		return 0
	}
}

// accessCost estimates the cost of producing a base table's
// post-pushdown rows through its cheapest access path. Like
// selConjunct, it is flag-blind: it considers the indexes that exist,
// not the ones the current Options allow, so the estimate (and with it
// the join order) is identical across the differential harness's
// index-on/index-off cells. estimate stores it in tableEst.access; a
// fragment index that cannot answer its conjunct offers no alternative.
func (p *Planner) accessCost(b *baseItem, te *tableEst) float64 {
	predCost := predCostSQL(b.push)
	scan := te.pages*cPageTouch + te.rows*(cRowTouch*te.width+predCost)
	best := scan
	for _, conj := range b.push {
		if pr := b.probe(conj); pr.matched {
			if pr.ok {
				df := te.rows * p.selConjunct(b, te, conj)
				cost := 2*cIndexProbeRow + df*(cRowTouch*te.width+predCost)
				if cost < best {
					best = cost
				}
			}
			continue
		}
		if ref, _, ok := constEquality(conj); ok {
			if b.table.IndexOn(ref.Name) != nil {
				matches := te.rows / te.ndv(ref.Name)
				cost := cIndexProbeRow + matches*(cRowTouch*te.width+predCost)
				if cost < best {
					best = cost
				}
			}
		}
	}
	return best
}

// CostSummary reports the optimizer's decisions for one statement —
// EXPLAIN companions and tests read it. It is
// returned by value from PlanSummary; the planner itself stays
// stateless so engine sessions can share copies safely.
type CostSummary struct {
	// Strategy is "dp" when the join order came from the
	// dynamic-programming enumeration, "greedy" for the heuristic order
	// (a single table, or more than dpMaxRelations).
	Strategy string
	// JoinOrder lists the FROM aliases in chosen join order.
	JoinOrder []string
	// EstRows is the estimated cardinality at the join-tree root.
	EstRows float64
	// Cost is the estimated total cost of the join tree in abstract
	// row-touch units.
	Cost float64
	// Parallel reports whether the plan contains a Gather exchange.
	Parallel bool
	// StaleStats lists tables whose statistics were distrusted (missing
	// or drifted past catalog.DefaultStaleRatio) and estimated from
	// defaults.
	StaleStats []string
}

// String renders the summary on one line, e.g.
// "dp order=[b c a] est=1000 cost=12345 parallel".
func (cs *CostSummary) String() string {
	if cs == nil {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(cs.Strategy)
	sb.WriteString(" order=[")
	sb.WriteString(strings.Join(cs.JoinOrder, " "))
	sb.WriteString("]")
	fmt.Fprintf(&sb, " est=%.0f cost=%.0f", cs.EstRows, cs.Cost)
	if cs.Parallel {
		sb.WriteString(" parallel")
	}
	if len(cs.StaleStats) > 0 {
		fmt.Fprintf(&sb, " stale=[%s]", strings.Join(cs.StaleStats, " "))
	}
	return sb.String()
}
