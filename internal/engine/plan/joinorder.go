package plan

import (
	"math"
	"math/bits"
)

// dpMaxRelations bounds the dynamic-programming join enumeration: the
// DP walks 2^n subsets, so past this many FROM entries the planner
// falls back to the greedy heuristic order (the classic System R
// compromise).
const dpMaxRelations = 8

// chooseJoinOrder returns the indexes of bases in join order plus the
// strategy label ("dp" or "greedy"). With the cost model on and a
// joinable FROM list of 2..dpMaxRelations entries it runs the
// left-deep dynamic program over subsets; otherwise it replays the
// greedy heuristic exactly as the pre-cost-model planner did, so
// DisableCostModel reproduces historical plans operator for operator.
func (p *Planner) chooseJoinOrder(bases []*baseItem, preds []joinPred, ests map[string]*tableEst) ([]int, string) {
	if !p.Opts.DisableCostModel && len(bases) >= 2 && len(bases) <= dpMaxRelations {
		return p.dpOrder(bases, preds, ests), "dp"
	}
	return greedyOrder(bases, preds), "greedy"
}

// greedyOrder replays the heuristic the join-tree builder historically
// used: start at the smallest estimated table, then repeatedly take the
// smallest table connected to the joined set by an unused equi
// predicate, falling back to the smallest overall when the FROM list is
// disconnected. Predicate consumption mirrors the tree builder so the
// connectivity test evolves identically.
func greedyOrder(bases []*baseItem, preds []joinPred) []int {
	type entry struct {
		idx int
		b   *baseItem
	}
	remaining := make([]entry, len(bases))
	for i, b := range bases {
		remaining[i] = entry{idx: i, b: b}
	}
	used := make([]bool, len(preds))
	joined := map[string]bool{}
	pick := func(eligible func(*baseItem) bool) int {
		best := -1
		for i, e := range remaining {
			if !eligible(e.b) {
				continue
			}
			if best < 0 || e.b.est < remaining[best].b.est {
				best = i
			}
		}
		return best
	}
	consume := func(alias string) {
		for i, jp := range preds {
			if used[i] {
				continue
			}
			if (joined[jp.la] && jp.ra == alias) || (jp.la == alias && joined[jp.ra]) {
				used[i] = true
			}
		}
	}
	order := make([]int, 0, len(bases))
	at := pick(func(*baseItem) bool { return true })
	order = append(order, remaining[at].idx)
	joined[remaining[at].b.alias] = true
	remaining = append(remaining[:at], remaining[at+1:]...)
	for len(remaining) > 0 {
		at = pick(func(b *baseItem) bool { return connected(b.alias, joined, preds, used) })
		if at < 0 {
			at = pick(func(*baseItem) bool { return true })
		}
		e := remaining[at]
		remaining = append(remaining[:at], remaining[at+1:]...)
		consume(e.b.alias)
		joined[e.b.alias] = true
		order = append(order, e.idx)
	}
	return order
}

// dpEdge is one equi-join predicate resolved to base indexes, with its
// estimated selectivity and per-side column names (for index-nested-
// loop eligibility).
type dpEdge struct {
	li, ri     int
	sel        float64
	lcol, rcol string
}

// dpOrder runs the left-deep dynamic program: for every subset S of
// relations it keeps the cheapest way to produce S, extending each
// best subplan by one relation with the cheapest eligible join
// algorithm. Cardinalities come from the estimator; ties break toward
// the lowest relation index, so the order is deterministic.
func (p *Planner) dpOrder(bases []*baseItem, preds []joinPred, ests map[string]*tableEst) []int {
	n := len(bases)
	full := 1<<n - 1
	byAlias := map[string]int{}
	for i, b := range bases {
		byAlias[b.alias] = i
	}
	out := make([]float64, n)
	for i, b := range bases {
		out[i] = ests[b.alias].out
	}
	var edges []dpEdge
	for _, jp := range preds {
		li, lok := byAlias[jp.la]
		ri, rok := byAlias[jp.ra]
		if !lok || !rok || li == ri {
			continue
		}
		edges = append(edges, dpEdge{li: li, ri: ri, sel: joinSel(jp, ests),
			lcol: jp.l.Name, rcol: jp.r.Name})
	}

	// card[S]: product of per-table outputs, discounted by every join
	// predicate internal to S — the independence assumption, floored at
	// one row.
	card := make([]float64, full+1)
	for S := 1; S <= full; S++ {
		c := 1.0
		for i := 0; i < n; i++ {
			if S&(1<<i) != 0 {
				c *= out[i]
			}
		}
		for _, e := range edges {
			if S&(1<<e.li) != 0 && S&(1<<e.ri) != 0 {
				c *= e.sel
			}
		}
		if c < 1 {
			c = 1
		}
		card[S] = c
	}

	cost := make([]float64, full+1)
	last := make([]int, full+1)
	for S := range cost {
		cost[S] = math.Inf(1)
		last[S] = -1
	}
	for i, b := range bases {
		cost[1<<i] = ests[b.alias].access
		last[1<<i] = i
	}
	for S := 3; S <= full; S++ {
		if bits.OnesCount(uint(S)) < 2 {
			continue
		}
		for t := 0; t < n; t++ {
			bit := 1 << t
			if S&bit == 0 {
				continue
			}
			prev := S &^ bit
			if math.IsInf(cost[prev], 1) {
				continue
			}
			step, _ := p.joinStepCost(ests[bases[t].alias],
				card[prev], out[t], card[S], dpInnerIndexed(t, prev, edges, bases))
			if total := cost[prev] + step; total < cost[S] {
				cost[S] = total
				last[S] = t
			}
		}
	}

	order := make([]int, 0, n)
	for S := full; S != 0; {
		t := last[S]
		order = append(order, t)
		S &^= 1 << t
	}
	// Reverse: reconstruction walked from the full set down to the
	// starting singleton.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// dpInnerIndexed reports whether relation t, joined as the inner side
// against the subset prev, is structurally eligible for an index
// nested-loop join: some connecting predicate's t-side column carries a
// B+tree index, t has no pushed predicates (those want their own access
// path), and the plan is not running against session views.
func dpInnerIndexed(t, prev int, edges []dpEdge, bases []*baseItem) bool {
	b := bases[t]
	if len(b.push) != 0 {
		return false
	}
	for _, e := range edges {
		var col string
		switch {
		case e.li == t && prev&(1<<e.ri) != 0:
			col = e.lcol
		case e.ri == t && prev&(1<<e.li) != 0:
			col = e.rcol
		default:
			continue
		}
		if b.table.IndexOn(col) != nil {
			return true
		}
	}
	return false
}

// physJoin names the physical join alternatives the cost model
// compares.
type physJoin int

const (
	physHash physJoin = iota
	physINL
	physMerge
)

// joinStepCost returns the cost of joining the accumulated left side
// (leftCard rows) with the base table b that te estimates (outT
// post-pushdown rows, outCard estimated join output; te.access is b's
// access cost), choosing the cheapest eligible algorithm.
// inlOK is the structural index-nested-loop eligibility; Views-gated
// callers pass false. The returned choice is what the cost model would
// pick absent explicit Join/IndexJoin options.
//
// Hash: build the accumulated side, stream b as probe. INL: one B+tree
// descent per accumulated row, no scan of b at all. Merge: scan b, then
// materialize and sort both sides. The accumulated side's production
// cost is paid by the caller's running total, not here.
func (p *Planner) joinStepCost(te *tableEst, leftCard, outT, outCard float64, inlOK bool) (float64, physJoin) {
	hash := leftCard*cHashBuildRow + te.access + outT*cHashProbeRow + outCard*cOutRow
	best, alg := hash, physHash
	if inlOK && p.Opts.Views == nil {
		inl := leftCard*(cIndexProbeRow+cRowTouch*te.width) + outCard*cOutRow
		if inl < best {
			best, alg = inl, physINL
		}
	}
	merge := cMergeSetup + te.access + sortCost(leftCard) + sortCost(outT) +
		(leftCard+outT)*cRowTouch + outCard*cOutRow
	if merge < best {
		best, alg = merge, physMerge
	}
	return best, alg
}

// sortCost is the n·log2(n) in-memory sort estimate.
func sortCost(n float64) float64 {
	if n < 2 {
		return cSortRow
	}
	return cSortRow * n * math.Log2(n)
}
