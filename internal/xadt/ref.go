package xadt

import (
	"errors"
	"sort"
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
// one-element method output, from the table of the value it points into.
func (v Value) materialize() []byte {
	var w scratch
	if err := w.read(v.data, &w.t); err != nil {
		// The parent's table was read when the reference was made.
		panic("xadt: reference into an unreadable value: " + err.Error())
	}
	t, err := w.viewOf(&w.t, v.span)
	if err != nil {
		panic(err)
	}
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

// viewOf points w.view at the elements of p that span names, the root
// element and its descendants, sharing p's slices. Depths stay p's: the
// methods use depth differences, and pickChildren takes the top level
// from the first element.
func (w *scratch) viewOf(p *table, span int64) (*table, error) {
	open, close := spanBounds(span)
	lo := sort.Search(len(p.elems), func(i int) bool { return int(p.elems[i].open) >= open })
	if lo == len(p.elems) || int(p.elems[lo].close) != close {
		return nil, errors.New("xadt: reference to no element of its value")
	}
	hi := lo + sort.Search(len(p.elems)-lo, func(i int) bool { return int(p.elems[lo+i].open) >= close })
	w.view = table{format: p.format, body: open, end: close, names: p.names, elems: p.elems[lo:hi]}
	return &w.view, nil
}
