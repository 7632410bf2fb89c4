package plan

import (
	"strings"

	"repro/internal/engine/exec"
	"repro/internal/engine/sql"
	"repro/internal/engine/storage"
)

// findKeyConjunct is one pushed conjunct the XADT fragment index can
// answer: findKeyInElm(col, 'Elm', 'key') = 1 with literal arguments,
// where col is an indexed XADT column of the base table.
type findKeyConjunct struct {
	column string
	elm    string
	key    string
}

// matchFindKey recognizes a findKeyInElm(col, 'E', 'k') = 1 conjunct
// (either operand order) over a column of b's table. Only the exact
// "= 1" form is indexable: the index knows which rows may contain a
// match, never which rows certainly lack one.
func matchFindKey(b *baseItem, conj sql.Expr) (findKeyConjunct, bool) {
	none := findKeyConjunct{}
	bin, ok := conj.(*sql.BinOp)
	if !ok || bin.Op != "=" {
		return none, false
	}
	fn, fok := bin.L.(*sql.FuncExpr)
	lit, lok := bin.R.(*sql.IntLit)
	if !fok || !lok {
		fn, fok = bin.R.(*sql.FuncExpr)
		lit, lok = bin.L.(*sql.IntLit)
	}
	if !fok || !lok || lit.Val != 1 {
		return none, false
	}
	if !strings.EqualFold(fn.Name, "findKeyInElm") || len(fn.Args) != 3 {
		return none, false
	}
	ref, ok := fn.Args[0].(*sql.ColRef)
	if !ok {
		return none, false
	}
	if ref.Qualifier != "" && ref.Qualifier != b.alias {
		return none, false
	}
	if b.table.Schema.ColIndex(ref.Name) < 0 {
		return none, false
	}
	elm, ok := fn.Args[1].(*sql.StrLit)
	if !ok {
		return none, false
	}
	key, ok := fn.Args[2].(*sql.StrLit)
	if !ok {
		return none, false
	}
	return findKeyConjunct{column: ref.Name, elm: elm.Val, key: key.Val}, true
}

// fragProbe is the fragment-index answer for one pushed conjunct,
// computed once per statement: the estimate, the join orderer and the
// access path all read the same candidate list.
type fragProbe struct {
	matched bool          // the conjunct has the indexable findKeyInElm shape
	rids    []storage.RID // candidates in heap order; shared, read-only
	ok      bool          // a valid, covering index answered the probe
}

// probe returns conj's fragment-index answer, running LookupFindKey the
// first time any caller asks for it.
func (b *baseItem) probe(conj sql.Expr) fragProbe {
	if pr, done := b.probes[conj]; done {
		return pr
	}
	var pr fragProbe
	var fk findKeyConjunct
	if fk, pr.matched = matchFindKey(b, conj); pr.matched {
		// A missing, invalidated, or stale index (one that has not absorbed
		// every heap row) is never consulted — fall back, never guess.
		if fi := b.table.FragIndexOn(fk.column); fi != nil && fi.Valid() && fi.Rows() == b.table.Rows() {
			pr.rids, pr.ok = fi.LookupFindKey(fk.elm, fk.key)
		}
	}
	if b.probes == nil {
		b.probes = map[sql.Expr]fragProbe{}
	}
	b.probes[conj] = pr
	return pr
}

// xadtIndexAccess tries to answer b's pushed predicates through XADT
// fragment indexes. It returns a non-nil IndexedFragScan when at least
// one conjunct is indexable by a valid index that covers every heap row;
// candidate sets of multiple indexable conjuncts are intersected. All
// pushed conjuncts — indexed and not — are re-verified on the fetched
// rows, so the rewrite can only change how rows are found, never which
// rows are returned. nil,nil means "no index applies, use a scan".
func (p *Planner) xadtIndexAccess(b *baseItem) (exec.Operator, error) {
	if p.Opts.Views != nil {
		// Fragment-index probes resolve RIDs against the live index, which
		// a session snapshot cannot trust; the caller also gates this.
		return nil, nil
	}
	var rids []storage.RID
	var matched []string
	have := false
	for _, conj := range b.push {
		pr := b.probe(conj)
		if !pr.ok {
			continue
		}
		if have {
			rids = intersectRIDs(rids, pr.rids)
		} else {
			rids = pr.rids
			have = true
		}
		matched = append(matched, conj.String())
	}
	if !have {
		return nil, nil
	}
	scan := exec.NewIndexedFragScan(b.table, b.alias, b.cols, rids, nil, strings.Join(matched, " AND "))
	if len(b.push) > 0 {
		pred, err := p.bindConjuncts(b.push, scan.Schema())
		if err != nil {
			return nil, err
		}
		scan.Pred = pred
	}
	return scan, nil
}

// intersectRIDs intersects two candidate lists sorted in heap order into
// a fresh slice, leaving both inputs (shared probe results) untouched.
func intersectRIDs(a, b []storage.RID) []storage.RID {
	out := a[:0:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case ridLess(a[i], b[j]):
			i++
		case ridLess(b[j], a[i]):
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func ridLess(a, b storage.RID) bool {
	if a.Page != b.Page {
		return a.Page < b.Page
	}
	return a.Slot < b.Slot
}
