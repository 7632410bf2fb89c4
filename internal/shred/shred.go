// Package shred loads XML documents into a database according to a
// mapping (Hybrid or XORator): it creates the mapped tables, walks each
// document, and emits tuples with synthetic IDs, parent links, parentCODE
// discriminators, sibling order, inlined values, and XADT fragments.
package shred

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/engine/catalog"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/mapping"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

// Loader shreds documents into the tables of one mapped schema.
type Loader struct {
	DB     *engine.Database
	Schema *mapping.Schema
	// Format is the storage representation used for XADT columns,
	// normally decided by ChooseFormat over sample documents (§4.1).
	Format xadt.Format
	// OnInsert, when non-nil, observes every tuple before it reaches the
	// table — the write-ahead log hook. An error aborts the load before
	// the unlogged insert is applied.
	OnInsert func(table string, row []types.Value) error

	ids map[string]int64 // per-relation ID counters
}

// NewLoader creates the schema's tables in the database and returns a
// loader. The database must not already hold the mapped tables (resume
// an existing store with ResumeLoader instead).
func NewLoader(db *engine.Database, schema *mapping.Schema, format xadt.Format) (*Loader, error) {
	for _, rel := range schema.Relations {
		if db.Catalog.Table(rel.Name) != nil {
			return nil, fmt.Errorf("shred: table %s already exists; use ResumeLoader", rel.Name)
		}
	}
	if err := EnsureTables(db, schema); err != nil {
		return nil, err
	}
	if err := EnsureXADTIndexes(db, schema); err != nil {
		return nil, err
	}
	return &Loader{DB: db, Schema: schema, Format: format, ids: map[string]int64{}}, nil
}

// EnsureTables creates any mapped relation missing from the database —
// used by fresh loaders and by crash recovery, whose checkpoint may
// predate the first load (and so hold none of the mapped tables).
func EnsureTables(db *engine.Database, schema *mapping.Schema) error {
	for _, rel := range schema.Relations {
		if db.Catalog.Table(rel.Name) != nil {
			continue
		}
		cols := make([]catalog.Column, len(rel.Columns))
		for i, c := range rel.Columns {
			cols[i] = catalog.Column{Name: c.Name, Type: kindOf(c.Type)}
		}
		if _, err := db.CreateTable(rel.Name, cols); err != nil {
			return err
		}
	}
	return nil
}

// EnsureXADTIndexes creates the secondary fragment index (structural
// paths + inverted keywords) on every mapped XADT column that lacks one.
// Creating them before the first load means Insert maintains them row by
// row instead of a separate backfill pass.
func EnsureXADTIndexes(db *engine.Database, schema *mapping.Schema) error {
	for _, rel := range schema.Relations {
		t := db.Catalog.Table(rel.Name)
		if t == nil {
			continue
		}
		var cols []string
		for _, col := range rel.Columns {
			if col.Kind == mapping.KindXADT && t.FragIndexOn(col.Name) == nil {
				cols = append(cols, col.Name)
			}
		}
		if len(cols) == 0 {
			continue
		}
		if err := db.CreateIndexes(rel.Name, cols); err != nil {
			return err
		}
	}
	return nil
}

// ResumeLoader attaches a loader to a database whose tables already hold
// shredded data (e.g. one restored from a snapshot). ID counters resume
// past the highest stored ID in each relation — deletes leave gaps, so
// the row count may undercount and reusing an ID would alias two
// elements.
func ResumeLoader(db *engine.Database, schema *mapping.Schema, format xadt.Format) (*Loader, error) {
	ids := map[string]int64{}
	for _, rel := range schema.Relations {
		tbl := db.Catalog.Table(rel.Name)
		if tbl == nil {
			return nil, fmt.Errorf("shred: database lacks table %s", rel.Name)
		}
		idCol := -1
		for i, c := range rel.Columns {
			if c.Kind == mapping.KindID {
				idCol = i
				break
			}
		}
		var max int64
		if idCol >= 0 {
			err := tbl.Heap.Scan(func(_ storage.RID, row []types.Value) error {
				if v := row[idCol]; !v.IsNull() && v.Kind() == types.KindInt && v.Int() > max {
					max = v.Int()
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		ids[rel.Name] = max
	}
	return &Loader{DB: db, Schema: schema, Format: format, ids: ids}, nil
}

func kindOf(t mapping.ColType) types.Kind {
	switch t {
	case mapping.Int:
		return types.KindInt
	case mapping.XADT:
		return types.KindXADT
	default:
		return types.KindString
	}
}

// LoadDocument shreds one parsed document.
func (l *Loader) LoadDocument(doc *xmltree.Document) error {
	if doc.Root == nil {
		return fmt.Errorf("shred: document has no root")
	}
	return l.walk(doc.Root, 0, "", 1)
}

// LoadXML parses and shreds document text.
func (l *Loader) LoadXML(text string) error {
	doc, err := xmltree.Parse(text)
	if err != nil {
		return err
	}
	return l.LoadDocument(doc)
}

// walk visits n: if n's element owns a relation, a tuple is emitted and n
// becomes the current parent context for its descendants.
func (l *Loader) walk(n *xmltree.Node, parentID int64, parentElem string, childOrder int) error {
	rel := l.Schema.RelationFor(n.Name)
	curParentID, curParentElem := parentID, parentElem
	if rel != nil {
		id, err := l.emit(rel, n, parentID, parentElem, childOrder)
		if err != nil {
			return err
		}
		curParentID, curParentElem = id, n.Name
	}
	// Recurse, tracking per-tag sibling positions.
	pos := map[string]int{}
	for _, c := range n.Children {
		if !c.IsElement() {
			continue
		}
		pos[c.Name]++
		if err := l.walk(c, curParentID, curParentElem, pos[c.Name]); err != nil {
			return err
		}
	}
	return nil
}

// emit builds and inserts the tuple for one relation instance.
func (l *Loader) emit(rel *mapping.Relation, n *xmltree.Node, parentID int64, parentElem string, childOrder int) (int64, error) {
	l.ids[rel.Name]++
	id := l.ids[rel.Name]
	row := make([]types.Value, len(rel.Columns))
	for i, col := range rel.Columns {
		switch col.Kind {
		case mapping.KindID:
			row[i] = types.NewInt(id)
		case mapping.KindParentID:
			row[i] = types.NewInt(parentID)
		case mapping.KindParentCode:
			row[i] = types.NewString(parentElem)
		case mapping.KindChildOrder:
			row[i] = types.NewInt(int64(childOrder))
		case mapping.KindValue:
			row[i] = types.NewString(directText(n))
		case mapping.KindAttr:
			if v, ok := n.Attr(col.Attr); ok {
				row[i] = types.NewString(v)
			} else {
				row[i] = types.Null
			}
		case mapping.KindInlined:
			if target := navigate(n, col.Path); target != nil {
				row[i] = types.NewString(directText(target))
			} else {
				row[i] = types.Null
			}
		case mapping.KindInlinedAttr:
			if target := navigate(n, col.Path); target != nil {
				if v, ok := target.Attr(col.Attr); ok {
					row[i] = types.NewString(v)
					break
				}
			}
			row[i] = types.Null
		case mapping.KindXADT:
			frags := n.ChildrenNamed(col.Path[0])
			if len(frags) == 0 {
				row[i] = types.Null
			} else {
				row[i] = types.NewXADT(xadt.Encode(frags, l.Format).Bytes())
			}
		default:
			return 0, fmt.Errorf("shred: unknown column kind %v", col.Kind)
		}
	}
	if l.OnInsert != nil {
		if err := l.OnInsert(rel.Name, row); err != nil {
			return 0, err
		}
	}
	if err := l.DB.Catalog.Table(rel.Name).Insert(row); err != nil {
		return 0, err
	}
	return id, nil
}

// directText concatenates the direct text children of n, trimmed.
func directText(n *xmltree.Node) string {
	var sb strings.Builder
	for _, c := range n.Children {
		if c.IsText() {
			sb.WriteString(c.Text)
		}
	}
	return strings.TrimSpace(sb.String())
}

// navigate follows the first occurrence of each path step from n.
func navigate(n *xmltree.Node, path []string) *xmltree.Node {
	cur := n
	for _, step := range path {
		cur = cur.FirstChildNamed(step)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// ChooseFormat implements the storage-alternative decision of §4.1 over a
// schema: it collects the fragments that would populate XADT columns from
// the sample documents and picks Compressed only if it saves at least
// minSaving of the raw encoding (the paper uses 0.20).
func ChooseFormat(schema *mapping.Schema, samples []*xmltree.Document, minSaving float64) xadt.Format {
	var fragments [][]*xmltree.Node
	for _, rel := range schema.Relations {
		var xadtCols []mapping.Column
		for _, c := range rel.Columns {
			if c.Kind == mapping.KindXADT {
				xadtCols = append(xadtCols, c)
			}
		}
		if len(xadtCols) == 0 {
			continue
		}
		for _, doc := range samples {
			if doc.Root == nil {
				continue
			}
			doc.Root.Walk(func(n *xmltree.Node) bool {
				if n.Name != rel.Element {
					return true
				}
				for _, c := range xadtCols {
					if frags := n.ChildrenNamed(c.Path[0]); len(frags) > 0 {
						fragments = append(fragments, frags)
					}
				}
				return true
			})
		}
	}
	return xadt.ChooseFormat(fragments, minSaving)
}

// EnsureIDFloor raises rel's ID counter to at least id. Recovery uses it
// to restore counters exactly: the stored max ID can undershoot the
// pre-crash counter when the highest-ID rows were deleted, so the
// checkpoint's persisted counters and the IDs seen in replayed insert
// records are applied as floors.
func (l *Loader) EnsureIDFloor(rel string, id int64) {
	if l.ids[rel] < id {
		l.ids[rel] = id
	}
}

// TupleCounts reports the number of tuples loaded per relation.
func (l *Loader) TupleCounts() map[string]int64 {
	out := make(map[string]int64, len(l.ids))
	for k, v := range l.ids {
		out[k] = v
	}
	return out
}
