package xadt

import (
	"sort"

	"repro/internal/xmltree"
)

// A reference is a Value that names one element of another value instead
// of holding bytes of its own: Unnest returns references, so a chain of
// method calls on its outputs reads the bytes of the stored value they
// came from and never builds the intermediate fragments. The methods work
// on the referenced element directly — depths count from it, and a
// Compressed reference reads its parent's dictionary — and agree with the
// same methods on the bytes the reference stands for, which Bytes builds
// (the materialiser): exactly what Encode writes for the element's node.
//
// A reference is its parent's bytes, shared, plus a span packing the
// element's byte range [open, close) as open<<32 | close. The format byte
// puts open at 1 or more, so a span is never 0, and 0 marks a value that
// holds its own bytes.

func packSpan(open, close int32) int64 { return int64(open)<<32 | int64(close) }

func spanBounds(span int64) (open, close int) { return int(span >> 32), int(uint32(span)) }

// Parts returns what v is made of: its own bytes and span 0, or for a
// reference the bytes of the value it points into and the packed span of
// its element. FromParts(v.Parts()) is v again, so a caller can keep the
// two parts in fields of its own.
func (v Value) Parts() (data []byte, span int64) { return v.data, v.span }

// FromParts is the inverse of Parts. A nonzero span must come from Parts.
func FromParts(data []byte, span int64) Value { return Value{data: data, span: span} }

// materialize builds the bytes of the reference v, as encode builds a
// one-element method output. It reads only the value header and the
// element's span.
func (v Value) materialize() []byte {
	var w scratch
	t := &w.t
	if _, err := t.readHeader(v.data); err != nil {
		// The parent was scanned whole when the reference was made.
		panic("xadt: reference into an unreadable value: " + err.Error())
	}
	open, close := spanBounds(v.span)
	root := element{open: int32(open), close: int32(close)}
	if t.format == Directory {
		end := open + 1
		for end < close && xmltree.IsNameChar(v.data[end]) {
			end++
		}
		root.name = t.intern(v.data, open+1, end)
	}
	t.elems = append(t.elems, root)
	return t.encode(v.data, &w, []int32{0}).data
}

// plain returns v with bytes of its own: v itself, or a reference
// materialised.
func (v Value) plain() Value {
	if v.span == 0 {
		return v
	}
	return Value{data: v.materialize()}
}

// splitTable returns the table of the stored value v that Unnest is
// splitting, and keeps it as the table the references it returns are
// read through: a copy, whatever the LRU later admits or evicts. The
// LRU serves a hit but does not admit v, whose table the copy already
// keeps; a lateral unnest sweeps its column, one value per row.
func (c *Cache) splitTable(v Value) (*table, error) {
	s := &c.split
	if s.holds(v.data) {
		return &s.t, nil
	}
	t, err := c.lookup(v, false)
	if err != nil {
		return nil, err
	}
	s.data = v.data
	s.t = table{
		format: t.format, body: t.body, end: t.end,
		names: append(s.t.names[:0], t.names...),
		elems: append(s.t.elems[:0], t.elems...),
	}
	return &s.t, nil
}

// lastSplit is the value Unnest split last, with its table.
type lastSplit struct {
	data []byte
	t    table
}

// holds reports whether data is the split value's bytes: the same
// memory, which a Value never writes to.
func (s *lastSplit) holds(data []byte) bool {
	return len(data) > 0 && len(data) == len(s.data) && &data[0] == &s.data[0]
}

// refTable returns the table of the reference v: a view of the kept
// split table when v points into it, else a scan of v's span only.
func (c *Cache) refTable(v Value) (*table, error) {
	if c.split.holds(v.data) {
		if t := c.w.viewOf(&c.split.t, v.span); t != nil {
			return t, nil
		}
	}
	return &c.w.t, c.w.scanSpan(v.data, v.span, &c.w.t)
}

// viewOf points w.view at the elements of p that span names, the root
// element and its descendants, sharing p's slices; nil when p has no
// element at span. Depths stay p's: the methods use depth differences,
// and pickChildren takes the top level from the first element.
func (w *scratch) viewOf(p *table, span int64) *table {
	open, close := spanBounds(span)
	lo := sort.Search(len(p.elems), func(i int) bool { return int(p.elems[i].open) >= open })
	if lo == len(p.elems) || int(p.elems[lo].close) != close {
		return nil
	}
	hi := lo + sort.Search(len(p.elems)-lo, func(i int) bool { return int(p.elems[lo+i].open) >= close })
	w.view = table{format: p.format, body: open, end: close, names: p.names, elems: p.elems[lo:hi]}
	return &w.view
}
