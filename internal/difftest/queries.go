package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dtd"
	"repro/internal/mapping"
)

// Case is one generated query. Cross cases carry semantically equivalent
// SQL for both mappings and their (sorted) row sets must agree across
// stores; single-mapping cases leave the other side empty and are checked
// only across that mapping's DOP/index cells.
type Case struct {
	Name    string
	Hybrid  string
	XORator string
	Cross   bool
	// Ordered marks a query whose ORDER BY covers every projected
	// column: its output order is fully determined by the data, so
	// cells that legitimately plan different join orders (the
	// cost-model axis) still compare exactly, not as multisets.
	Ordered bool
}

// qgen holds everything the query templates draw from.
type qgen struct {
	rng  *rand.Rand
	hy   *mapping.Schema
	xo   *mapping.Schema
	sd   *dtd.SimplifiedDTD
	samp *docSamples
	// repeat is how many times the document set was loaded, for sizing
	// numeric ranges against actual ID domains.
	repeat int
}

// relPair is a relation present in both mapped schemas for the same element.
type relPair struct {
	hy, xo *mapping.Relation
}

// xadtCol is one XADT fragment column of a XORator relation.
type xadtCol struct {
	rel   *mapping.Relation
	col   mapping.Column
	child string // the DTD element the fragment stores
}

// generateCases produces the query suite for one iteration: every template
// is attempted one or two times; templates that find no applicable schema
// shape simply contribute nothing.
func generateCases(rng *rand.Rand, hy, xo *mapping.Schema, sd *dtd.SimplifiedDTD, samp *docSamples, repeat int) []Case {
	g := &qgen{rng: rng, hy: hy, xo: xo, sd: sd, samp: samp, repeat: repeat}
	templates := []func() (Case, bool){
		g.tCount, g.tCount,
		g.tScan, g.tScan, g.tScan,
		g.tJoin, g.tJoin,
		g.tJoin3,
		g.tOrderLimit,
		g.tGroupCount,
		g.tAggMinMax,
		g.tXadtCount, g.tXadtCount,
		g.tXadtFindKey, g.tXadtFindKey,
		g.tXadtGetElm,
		g.tXadtIndex,
		g.tXadtUnnest,
	}
	var out []Case
	for i, t := range templates {
		if c, ok := t(); ok {
			c.Name = fmt.Sprintf("%02d-%s", i, c.Name)
			out = append(out, c)
		}
	}
	return out
}

// ---- schema introspection -------------------------------------------------

func (g *qgen) sharedRelations() []relPair { return sharedRelPairs(g.hy, g.xo) }

// sharedRelPairs lists the relations both mapped schemas derive for the
// same element; the mutation axis uses it too, to pick DML targets whose
// rows exist identically in both stores.
func sharedRelPairs(hy, xo *mapping.Schema) []relPair {
	var out []relPair
	for _, xr := range xo.Relations {
		if hr := hy.Relation(xr.Name); hr != nil && hr.Element == xr.Element {
			out = append(out, relPair{hy: hr, xo: xr})
		}
	}
	return out
}

func (g *qgen) pickSharedRel() (relPair, bool) {
	rels := g.sharedRelations()
	if len(rels) == 0 {
		return relPair{}, false
	}
	return rels[g.rng.Intn(len(rels))], true
}

func colEqual(a, b mapping.Column) bool {
	if a.Name != b.Name || a.Type != b.Type || a.Kind != b.Kind || a.Attr != b.Attr {
		return false
	}
	if len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// sharedColumns returns the columns that exist with identical definitions
// in both mappings of a shared relation. Because both shredders walk the
// same documents in the same order, these columns hold identical values in
// both stores — they are what cross-mapping templates may reference.
func sharedColumns(p relPair) []mapping.Column {
	var out []mapping.Column
	for _, hc := range p.hy.Columns {
		if xc, ok := p.xo.Column(hc.Name); ok && colEqual(hc, xc) {
			out = append(out, hc)
		}
	}
	return out
}

func colsOfType(cols []mapping.Column, t mapping.ColType) []mapping.Column {
	var out []mapping.Column
	for _, c := range cols {
		if c.Type == t {
			out = append(out, c)
		}
	}
	return out
}

func colOfKind(r *mapping.Relation, k mapping.ColKind) (mapping.Column, bool) {
	for _, c := range r.Columns {
		if c.Kind == k {
			return c, true
		}
	}
	return mapping.Column{}, false
}

// xadtCols lists every XADT column of the XORator schema.
func (g *qgen) xadtCols() []xadtCol { return schemaXadtCols(g.xo) }

func schemaXadtCols(s *mapping.Schema) []xadtCol {
	var out []xadtCol
	for _, r := range s.Relations {
		for _, c := range r.Columns {
			if c.Kind == mapping.KindXADT {
				out = append(out, xadtCol{rel: r, col: c, child: c.Path[0]})
			}
		}
	}
	return out
}

func (g *qgen) pickXadtCol() (xadtCol, bool) {
	cols := g.xadtCols()
	if len(cols) == 0 {
		return xadtCol{}, false
	}
	return cols[g.rng.Intn(len(cols))], true
}

// ---- value sampling -------------------------------------------------------

// sampleFor returns the observed document values a string column stores.
func (g *qgen) sampleFor(rel *mapping.Relation, c mapping.Column) []string {
	switch c.Kind {
	case mapping.KindValue:
		return g.samp.texts[rel.Element]
	case mapping.KindAttr:
		return g.samp.attrs[attrKey(rel.Element, c.Attr)]
	case mapping.KindInlined:
		return g.samp.texts[c.Path[len(c.Path)-1]]
	case mapping.KindInlinedAttr:
		return g.samp.attrs[attrKey(c.Path[len(c.Path)-1], c.Attr)]
	}
	return nil
}

// pickWord samples an alphanumeric word from an element's observed text.
func (g *qgen) pickWord(elem string) (string, bool) {
	texts := g.samp.texts[elem]
	if len(texts) == 0 {
		return "", false
	}
	words := alnumWords(texts[g.rng.Intn(len(texts))])
	if len(words) == 0 {
		return "", false
	}
	return words[g.rng.Intn(len(words))], true
}

// maxID is a loose upper bound on the relation's ID domain.
func (g *qgen) maxID(elem string) int {
	n := g.samp.count[elem] * g.repeat
	if n < 1 {
		n = 1
	}
	return n
}

func sqlString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// ---- predicate builder ----------------------------------------------------

// pred builds 0-2 random conditions over the given columns, returning a
// " WHERE ..." clause or "".
func (g *qgen) pred(rel *mapping.Relation, cols []mapping.Column) string {
	var conds []string
	for i, k := 0, g.rng.Intn(3); i < k; i++ {
		c := cols[g.rng.Intn(len(cols))]
		switch c.Type {
		case mapping.Int:
			max := g.maxID(rel.Element)
			switch g.rng.Intn(3) {
			case 0:
				conds = append(conds, fmt.Sprintf("%s = %d", c.Name, 1+g.rng.Intn(max)))
			case 1:
				conds = append(conds, fmt.Sprintf("%s >= %d", c.Name, 1+g.rng.Intn(max)))
			default:
				a := 1 + g.rng.Intn(max)
				conds = append(conds, fmt.Sprintf("%s >= %d AND %s <= %d", c.Name, a, c.Name, a+g.rng.Intn(max)))
			}
		case mapping.String:
			vals := g.sampleFor(rel, c)
			if len(vals) == 0 {
				continue
			}
			v := vals[g.rng.Intn(len(vals))]
			if g.rng.Intn(2) == 0 {
				if words := alnumWords(v); len(words) > 0 {
					w := words[g.rng.Intn(len(words))]
					conds = append(conds, fmt.Sprintf("%s LIKE %s", c.Name, sqlString("%"+w+"%")))
					continue
				}
			}
			conds = append(conds, fmt.Sprintf("%s = %s", c.Name, sqlString(v)))
		}
	}
	if len(conds) == 0 {
		return ""
	}
	return " WHERE " + strings.Join(conds, " AND ")
}

// ---- cross-mapping templates ----------------------------------------------

func (g *qgen) tCount() (Case, bool) {
	p, ok := g.pickSharedRel()
	if !ok {
		return Case{}, false
	}
	sql := "SELECT COUNT(*) FROM " + p.hy.Name
	return Case{Name: "count:" + p.hy.Name, Hybrid: sql, XORator: sql, Cross: true}, true
}

func (g *qgen) tScan() (Case, bool) {
	p, ok := g.pickSharedRel()
	if !ok {
		return Case{}, false
	}
	cols := sharedColumns(p)
	if len(cols) == 0 {
		return Case{}, false
	}
	proj := []string{p.hy.IDColumn()}
	for i, k := 0, g.rng.Intn(3); i < k; i++ {
		proj = append(proj, cols[g.rng.Intn(len(cols))].Name)
	}
	sql := "SELECT " + strings.Join(proj, ", ") + " FROM " + p.hy.Name + g.pred(p.hy, cols)
	return Case{Name: "scan:" + p.hy.Name, Hybrid: sql, XORator: sql, Cross: true}, true
}

func (g *qgen) tJoin() (Case, bool) {
	var cands []relPair
	for _, p := range g.sharedRelations() {
		if len(p.hy.ParentElements) > 0 {
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return Case{}, false
	}
	c := cands[g.rng.Intn(len(cands))]
	pe := c.hy.ParentElements[g.rng.Intn(len(c.hy.ParentElements))]
	if pe == c.hy.Element {
		// A recursive element's parent is its own relation; the SQL
		// subset's unqualified columns cannot express that self-join.
		return Case{}, false
	}
	phy, pxo := g.hy.RelationFor(pe), g.xo.RelationFor(pe)
	if phy == nil || pxo == nil || phy.Name != pxo.Name {
		return Case{}, false
	}
	cpid, ok := colOfKind(c.hy, mapping.KindParentID)
	if !ok {
		return Case{}, false
	}
	conds := []string{fmt.Sprintf("%s = %s", cpid.Name, phy.IDColumn())}
	if code, ok := colOfKind(c.hy, mapping.KindParentCode); ok && g.rng.Intn(2) == 0 {
		conds = append(conds, fmt.Sprintf("%s = %s", code.Name, sqlString(pe)))
	}
	cols := sharedColumns(c)
	proj := []string{phy.IDColumn(), c.hy.IDColumn()}
	if strs := colsOfType(cols, mapping.String); len(strs) > 0 && g.rng.Intn(2) == 0 {
		proj = append(proj, strs[g.rng.Intn(len(strs))].Name)
	}
	sql := fmt.Sprintf("SELECT %s FROM %s, %s WHERE %s",
		strings.Join(proj, ", "), phy.Name, c.hy.Name, strings.Join(conds, " AND "))
	return Case{Name: "join:" + phy.Name + "/" + c.hy.Name, Hybrid: sql, XORator: sql, Cross: true}, true
}

// tJoin3 builds a three-relation chain join — grandparent, parent,
// child linked by their parentID foreign keys — ordered by every
// projected column so the output order is data-determined. It is the
// join-order workload of the cost-model axis: with three relations of
// different sizes the planner can legitimately pick different orders
// with and without statistics, and the full ORDER BY makes those plans
// exactly comparable.
func (g *qgen) tJoin3() (Case, bool) {
	shared := g.sharedRelations()
	byElem := map[string]relPair{}
	for _, p := range shared {
		byElem[p.hy.Element] = p
	}
	type chain struct{ gp, par, ch relPair }
	var cands []chain
	for _, ch := range shared {
		for _, pe := range ch.hy.ParentElements {
			par, ok := byElem[pe]
			if !ok || pe == ch.hy.Element {
				continue
			}
			for _, gpe := range par.hy.ParentElements {
				gp, ok := byElem[gpe]
				if !ok || gpe == pe || gpe == ch.hy.Element {
					continue
				}
				cands = append(cands, chain{gp: gp, par: par, ch: ch})
			}
		}
	}
	if len(cands) == 0 {
		return Case{}, false
	}
	c := cands[g.rng.Intn(len(cands))]
	chPid, ok := colOfKind(c.ch.hy, mapping.KindParentID)
	if !ok {
		return Case{}, false
	}
	parPid, ok := colOfKind(c.par.hy, mapping.KindParentID)
	if !ok {
		return Case{}, false
	}
	conds := []string{
		fmt.Sprintf("%s = %s", chPid.Name, c.par.hy.IDColumn()),
		fmt.Sprintf("%s = %s", parPid.Name, c.gp.hy.IDColumn()),
	}
	if code, ok := colOfKind(c.ch.hy, mapping.KindParentCode); ok {
		conds = append(conds, fmt.Sprintf("%s = %s", code.Name, sqlString(c.par.hy.Element)))
	}
	if code, ok := colOfKind(c.par.hy, mapping.KindParentCode); ok {
		conds = append(conds, fmt.Sprintf("%s = %s", code.Name, sqlString(c.gp.hy.Element)))
	}
	proj := []string{c.gp.hy.IDColumn(), c.par.hy.IDColumn(), c.ch.hy.IDColumn()}
	sql := fmt.Sprintf("SELECT %s FROM %s, %s, %s WHERE %s ORDER BY %s",
		strings.Join(proj, ", "), c.gp.hy.Name, c.par.hy.Name, c.ch.hy.Name,
		strings.Join(conds, " AND "), strings.Join(proj, ", "))
	return Case{
		Name:   "join3:" + c.gp.hy.Name + "/" + c.par.hy.Name + "/" + c.ch.hy.Name,
		Hybrid: sql, XORator: sql, Cross: true, Ordered: true,
	}, true
}

func (g *qgen) tOrderLimit() (Case, bool) {
	p, ok := g.pickSharedRel()
	if !ok {
		return Case{}, false
	}
	id := p.hy.IDColumn()
	dir := "ASC"
	if g.rng.Intn(2) == 0 {
		dir = "DESC"
	}
	sql := fmt.Sprintf("SELECT %s FROM %s WHERE %s >= %d ORDER BY %s %s LIMIT %d",
		id, p.hy.Name, id, 1+g.rng.Intn(g.maxID(p.hy.Element)), id, dir, 1+g.rng.Intn(10))
	return Case{Name: "orderlimit:" + p.hy.Name, Hybrid: sql, XORator: sql, Cross: true}, true
}

func (g *qgen) tGroupCount() (Case, bool) {
	p, ok := g.pickSharedRel()
	if !ok {
		return Case{}, false
	}
	strs := colsOfType(sharedColumns(p), mapping.String)
	if len(strs) == 0 {
		return Case{}, false
	}
	s := strs[g.rng.Intn(len(strs))].Name
	sql := fmt.Sprintf("SELECT %s, COUNT(*) FROM %s GROUP BY %s", s, p.hy.Name, s)
	return Case{Name: "group:" + p.hy.Name, Hybrid: sql, XORator: sql, Cross: true}, true
}

func (g *qgen) tAggMinMax() (Case, bool) {
	p, ok := g.pickSharedRel()
	if !ok {
		return Case{}, false
	}
	ints := colsOfType(sharedColumns(p), mapping.Int)
	if len(ints) == 0 {
		return Case{}, false
	}
	c := ints[g.rng.Intn(len(ints))].Name
	sql := fmt.Sprintf("SELECT MIN(%s), MAX(%s), COUNT(*) FROM %s", c, c, p.hy.Name)
	return Case{Name: "agg:" + p.hy.Name, Hybrid: sql, XORator: sql, Cross: true}, true
}

// ---- XADT templates -------------------------------------------------------

// tXadtCount counts fragment occurrences two ways: unnesting the XADT
// column on the XORator side, and counting the child's relation rows
// (restricted by parentCODE when ambiguous) on the Hybrid side. When the
// child has no Hybrid relation the case degrades to XORator-only.
func (g *qgen) tXadtCount() (Case, bool) {
	x, ok := g.pickXadtCol()
	if !ok {
		return Case{}, false
	}
	xsql := fmt.Sprintf("SELECT COUNT(*) FROM %s, TABLE(unnest(%s, %s)) u",
		x.rel.Name, x.col.Name, sqlString(x.child))
	c := Case{Name: "xadtcount:" + x.col.Name, XORator: xsql}
	if er := g.hy.RelationFor(x.child); er != nil {
		hsql := "SELECT COUNT(*) FROM " + er.Name
		if code, ok := colOfKind(er, mapping.KindParentCode); ok {
			hsql += fmt.Sprintf(" WHERE %s = %s", code.Name, sqlString(x.rel.Element))
		}
		c.Hybrid, c.Cross = hsql, true
	}
	return c, true
}

// tXadtFindKey compares findKeyInElm against a LIKE predicate: count the
// owners whose fragment contains a key, vs count the distinct parents of
// child rows whose value matches the key. Only PCDATA-only leaf children
// qualify (their fragment text is exactly the relation's value column).
func (g *qgen) tXadtFindKey() (Case, bool) {
	var cands []xadtCol
	for _, x := range g.xadtCols() {
		se := g.sd.Element(x.child)
		if se != nil && se.HasPCDATA && len(se.Items) == 0 && len(g.samp.texts[x.child]) > 0 {
			cands = append(cands, x)
		}
	}
	if len(cands) == 0 {
		return Case{}, false
	}
	x := cands[g.rng.Intn(len(cands))]
	w, ok := g.pickWord(x.child)
	if !ok {
		return Case{}, false
	}
	xsql := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE findKeyInElm(%s, %s, %s) = 1",
		x.rel.Name, x.col.Name, sqlString(x.child), sqlString(w))
	c := Case{Name: "xadtfindkey:" + x.col.Name, XORator: xsql}
	er := g.hy.RelationFor(x.child)
	if er == nil {
		return c, true
	}
	pid, okPid := colOfKind(er, mapping.KindParentID)
	val, okVal := colOfKind(er, mapping.KindValue)
	if !okPid || !okVal {
		return c, true
	}
	conds := []string{fmt.Sprintf("%s LIKE %s", val.Name, sqlString("%"+w+"%"))}
	if code, ok := colOfKind(er, mapping.KindParentCode); ok {
		conds = append(conds, fmt.Sprintf("%s = %s", code.Name, sqlString(x.rel.Element)))
	}
	c.Hybrid = fmt.Sprintf("SELECT COUNT(DISTINCT %s) FROM %s WHERE %s",
		pid.Name, er.Name, strings.Join(conds, " AND "))
	c.Cross = true
	return c, true
}

// childTarget picks a search target inside a fragment: the fragment's own
// element or one of its DTD children.
func (g *qgen) childTarget(x xadtCol) string {
	se := g.sd.Element(x.child)
	if se != nil && len(se.Items) > 0 && g.rng.Intn(2) == 0 {
		return se.Items[g.rng.Intn(len(se.Items))].Name
	}
	return x.child
}

func (g *qgen) tXadtGetElm() (Case, bool) {
	x, ok := g.pickXadtCol()
	if !ok {
		return Case{}, false
	}
	target := g.childTarget(x)
	key, _ := g.pickWord(target) // empty key matches everything
	sql := fmt.Sprintf("SELECT %s, xadtText(getElm(%s, %s, %s, %s)) FROM %s",
		x.rel.IDColumn(), x.col.Name, sqlString(x.child), sqlString(target), sqlString(key), x.rel.Name)
	if g.rng.Intn(2) == 0 {
		sql += fmt.Sprintf(" WHERE findKeyInElm(%s, %s, %s) = 1", x.col.Name, sqlString(target), sqlString(key))
	}
	return Case{Name: "getelm:" + x.col.Name, XORator: sql}, true
}

func (g *qgen) tXadtIndex() (Case, bool) {
	x, ok := g.pickXadtCol()
	if !ok {
		return Case{}, false
	}
	i := 1 + g.rng.Intn(3)
	j := i + g.rng.Intn(2)
	sql := fmt.Sprintf("SELECT %s, xadtText(getElmIndex(%s, %s, %s, %d, %d)) FROM %s",
		x.rel.IDColumn(), x.col.Name, sqlString(""), sqlString(x.child), i, j, x.rel.Name)
	return Case{Name: "getelmindex:" + x.col.Name, XORator: sql}, true
}

func (g *qgen) tXadtUnnest() (Case, bool) {
	x, ok := g.pickXadtCol()
	if !ok {
		return Case{}, false
	}
	sql := fmt.Sprintf("SELECT %s, xadtInnerText(u.out) FROM %s, TABLE(unnest(%s, %s)) u",
		x.rel.IDColumn(), x.rel.Name, x.col.Name, sqlString(x.child))
	if target := g.childTarget(x); target != x.child || g.rng.Intn(2) == 0 {
		if w, ok := g.pickWord(target); ok {
			sql += fmt.Sprintf(" WHERE findKeyInElm(u.out, %s, %s) = 1", sqlString(target), sqlString(w))
		}
	}
	return Case{Name: "unnest:" + x.col.Name, XORator: sql}, true
}
