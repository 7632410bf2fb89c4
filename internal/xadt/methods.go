package xadt

import "errors"

// Evaluator runs the XADT methods with an optional table cache, which
// skips re-scanning fragments seen earlier in the execution. A nil
// *Evaluator is valid and scans every call; the package-level functions
// use it.
//
// Evaluators are cheap value-like structs; each execution worker should
// use its own Cache (see CachePool) since caches are not thread-safe.
type Evaluator struct {
	// Cache, when non-nil, memoizes fragment element tables across calls.
	Cache *Cache
}

// table scans in, through the cache when one is attached, and returns
// its element table with the scratch space to build outputs in. Without
// a cache a reference scans only its own span.
func (e *Evaluator) table(in Value) (*table, *scratch, error) {
	if e != nil && e.Cache != nil {
		t, err := e.Cache.table(in)
		return t, &e.Cache.w, err
	}
	w := &scratch{}
	if in.span != 0 {
		return &w.t, w, w.scanSpan(in.data, in.span, &w.t)
	}
	return &w.t, w, w.scan(in.data, &w.t)
}

// GetElm implements the getElm method of §3.4.2: it returns all rootElm
// elements in the fragment that contain a searchElm descendant — within
// depth level of the rootElm when level > 0 — whose content contains
// searchKey.
//
// Degenerate arguments follow the paper:
//   - searchKey == "": any searchElm subelement qualifies.
//   - searchElm == "": every rootElm element qualifies.
//   - both empty: all rootElm elements are returned.
//
// The result is a new Value in the same storage format as the input, so
// calls compose: the output of one GetElm can be the input of the next.
// Results are always headerless.
func (e *Evaluator) GetElm(in Value, rootElm, searchElm, searchKey string, level int) (Value, error) {
	t, w, err := e.table(in)
	if err != nil {
		return Value{}, err
	}
	root, search := t.code(in.data, rootElm), t.code(in.data, searchElm)
	picks := w.picks[:0]
	for i := range t.elems {
		if t.elems[i].name == root && t.holds(in.data, i, searchElm != "", search, searchKey, level) {
			picks = append(picks, int32(i))
		}
	}
	w.picks = picks
	return t.encode(in.data, w, picks), nil
}

// GetElm evaluates with the default (seed-behaviour) evaluator.
func GetElm(in Value, rootElm, searchElm, searchKey string, level int) (Value, error) {
	return (*Evaluator)(nil).GetElm(in, rootElm, searchElm, searchKey, level)
}

// holds reports whether element i qualifies for getElm: with a search
// element, i itself or a descendant at most level below it (any depth
// when level <= 0) has that name and content containing key; without
// one, i's own content contains key. The root takes part at depth 0, so
// getElm(x, 'LINE', 'LINE', key) filters LINE elements by their own
// content, as query QE1 uses it.
func (t *table) holds(data []byte, i int, hasSearch bool, search int32, key string, level int) bool {
	root := &t.elems[i]
	if !hasSearch {
		return containsText(data, int(root.start), int(root.end), key)
	}
	for j := i; j < len(t.elems) && (j == i || t.elems[j].depth > root.depth); j++ {
		d := &t.elems[j]
		if d.name == search && (level <= 0 || int(d.depth-root.depth) <= level) &&
			containsText(data, int(d.start), int(d.end), key) {
			return true
		}
	}
	return false
}

// FindKeyInElm implements the findKeyInElm method of §3.4.2: it reports
// whether any searchElm element in the fragment has content containing
// searchKey. With an empty searchKey it tests for the existence of
// searchElm; with an empty searchElm it tests whether any element content
// contains searchKey. Both arguments empty is an error, as the paper
// specifies.
func (e *Evaluator) FindKeyInElm(in Value, searchElm, searchKey string) (bool, error) {
	if searchElm == "" && searchKey == "" {
		return false, errors.New("xadt: findKeyInElm requires searchElm or searchKey")
	}
	t, _, err := e.table(in)
	if err != nil {
		return false, err
	}
	search := t.code(in.data, searchElm)
	for i := range t.elems {
		el := &t.elems[i]
		if (searchElm == "" || el.name == search) && containsText(in.data, int(el.start), int(el.end), searchKey) {
			return true, nil
		}
	}
	return false, nil
}

// FindKeyInElm evaluates with the default (seed-behaviour) evaluator.
func FindKeyInElm(in Value, searchElm, searchKey string) (bool, error) {
	return (*Evaluator)(nil).FindKeyInElm(in, searchElm, searchKey)
}

// GetElmIndex implements the getElmIndex method of §3.4.2: it returns the
// childElm children of each parentElm element whose 1-based order among
// same-named siblings falls in [startPos, endPos]. With an empty parentElm
// the childElm elements at the top level of the fragment are indexed.
// childElm must not be empty. The result keeps the input's storage
// format.
func (e *Evaluator) GetElmIndex(in Value, parentElm, childElm string, startPos, endPos int) (Value, error) {
	if childElm == "" {
		return Value{}, errors.New("xadt: getElmIndex requires a childElm")
	}
	t, w, err := e.table(in)
	if err != nil {
		return Value{}, err
	}
	child := t.code(in.data, childElm)
	picks := w.picks[:0]
	if parentElm == "" {
		picks = t.pickChildren(picks, -1, child, startPos, endPos)
	} else if parent := t.code(in.data, parentElm); parent >= 0 {
		for i := range t.elems {
			if t.elems[i].name == parent {
				picks = t.pickChildren(picks, i, child, startPos, endPos)
			}
		}
	}
	w.picks = picks
	return t.encode(in.data, w, picks), nil
}

// GetElmIndex evaluates with the default (seed-behaviour) evaluator.
func GetElmIndex(in Value, parentElm, childElm string, startPos, endPos int) (Value, error) {
	return (*Evaluator)(nil).GetElmIndex(in, parentElm, childElm, startPos, endPos)
}

// pickChildren appends to picks the child elements of element parent
// (the top level when parent is -1) with code child whose position among
// them lies in [startPos, endPos].
func (t *table) pickChildren(picks []int32, parent int, child int32, startPos, endPos int) []int32 {
	if len(t.elems) == 0 {
		return picks
	}
	// The first element is at the top level: depth 1 in a value's own
	// table, the referenced element's depth in a view.
	depth, pos := t.elems[0].depth, 0
	if parent >= 0 {
		depth = t.elems[parent].depth + 1
	}
	for j := parent + 1; j < len(t.elems) && t.elems[j].depth >= depth && pos < endPos; j++ {
		if c := &t.elems[j]; c.depth == depth && c.name == child {
			if pos++; pos >= startPos {
				picks = append(picks, int32(j))
			}
		}
	}
	return picks
}

// Unnest implements the unnest table function of §3.5: it splits the
// fragment into one Value per element with the given tag name, in document
// order. Each returned Value keeps the input's storage format. They are
// references into in's bytes (into its parent's, when in is one): no
// bytes are built until someone asks for them.
func (e *Evaluator) Unnest(in Value, tag string) ([]Value, error) {
	var t *table
	var err error
	if in.span == 0 && e != nil && e.Cache != nil {
		t, err = e.Cache.splitTable(in)
	} else {
		t, _, err = e.table(in)
	}
	if err != nil {
		return nil, err
	}
	code, n := t.code(in.data, tag), 0
	for i := range t.elems {
		if t.elems[i].name == code {
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]Value, 0, n)
	for i := range t.elems {
		if el := &t.elems[i]; el.name == code {
			out = append(out, Value{data: in.data, span: packSpan(el.open, el.close)})
		}
	}
	return out, nil
}

// Unnest evaluates with the default (seed-behaviour) evaluator.
func Unnest(in Value, tag string) ([]Value, error) {
	return (*Evaluator)(nil).Unnest(in, tag)
}

// InnerText returns the fragment's character data without tags or
// attributes: the concatenated InnerText of its top-level nodes.
func (e *Evaluator) InnerText(in Value) (string, error) {
	if in.span != 0 {
		// The element was scanned with its parent; its text needs no
		// table.
		open, close := spanBounds(in.span)
		return string(appendText(nil, in.data, open, close)), nil
	}
	t, _, err := e.table(in)
	if err != nil {
		return "", err
	}
	return string(appendText(nil, in.data, t.body, t.end)), nil
}
