// Package xadt implements the XML abstract data type of the XORator paper
// (§3.4): a column value holding an arbitrary XML fragment, with two
// storage representations — the raw tagged string, and an XMill-inspired
// compressed form where element and attribute names are replaced by
// integer codes backed by a per-value dictionary — and the query methods
// the paper defines on the type (getElm, findKeyInElm, getElmIndex) plus
// the unnest table function (§3.5).
package xadt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/xmltree"
)

// Format identifies a storage representation.
type Format byte

const (
	// Raw stores the fragment as its serialized text.
	Raw Format = 0
	// Compressed stores the fragment with dictionary-coded tag names.
	Compressed Format = 1
)

// String names the format.
func (f Format) String() string {
	if f == Compressed {
		return "compressed"
	}
	return "raw"
}

// Value is an XADT instance: the format byte, the element table (see
// table.go) and the fragment text. The zero Value is the empty fragment
// in raw format. A Value returned by Unnest is a reference into the
// value it split (see ref.go).
type Value struct {
	data []byte
	span int64 // nonzero for a reference: its element within data
}

// FromBytes reconstitutes a Value from its stored bytes (as written by
// Bytes).
func FromBytes(b []byte) Value { return Value{data: b} }

// Bytes returns the stored representation. The slice must not be
// modified. A reference builds it, into fresh memory on every call.
func (v Value) Bytes() []byte {
	if v.span == 0 {
		return v.data
	}
	return v.materialize()
}

// Len returns the storage size in bytes.
func (v Value) Len() int { return len(v.Bytes()) }

// IsEmpty reports whether the value holds no fragment.
func (v Value) IsEmpty() bool {
	var t table
	_, _, err := t.readHeader(v.plain().data)
	return err == nil && t.body == t.end
}

// Format returns the storage representation of the value.
func (v Value) Format() Format {
	if len(v.data) > 0 && v.data[0] == byte(Compressed) {
		return Compressed
	}
	return Raw
}

// Encode builds a Value from fragment nodes in the given format.
func Encode(nodes []*xmltree.Node, f Format) Value {
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.coded, e.tab, e.body, e.names = f == Compressed, e.tab[:0], e.body[:0], e.names[:0]
	for _, n := range nodes {
		e.emit(n)
	}
	size := 1 + 2*binary.MaxVarintLen32 + len(e.tab) + len(e.body)
	for _, name := range e.names {
		size += binary.MaxVarintLen32 + len(name)
	}
	data := appendBytes(append(make([]byte, 0, size), byte(f)), e.tab)
	if e.coded {
		data = binary.AppendUvarint(data, uint64(len(e.names)))
		for _, name := range e.names {
			data = appendString(data, name)
		}
	}
	clear(e.names)
	return Value{data: append(data, e.body...)}
}

// EncodeStored is Encode. The benchmark's XADT probe still calls it by
// this name.
func EncodeStored(nodes []*xmltree.Node, f Format) Value { return Encode(nodes, f) }

// Parse builds a Value from fragment text in the given format.
func Parse(fragment string, f Format) (Value, error) {
	nodes, err := xmltree.ParseFragment(fragment)
	if err != nil {
		return Value{}, err
	}
	return Encode(nodes, f), nil
}

// encoders keeps Encode's working space between calls.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encoder writes the text of a fragment and its element table.
type encoder struct {
	coded bool   // Compressed: tags hold dictionary codes
	tab   []byte // the element table's entries
	body  []byte
	// names lists the name of each code: the dictionary of a Compressed
	// value (element and attribute names), the element names otherwise.
	// A fragment uses few names, so a code is found by a linear search.
	names []string
}

func (e *encoder) code(name string) int32 {
	for c, n := range e.names {
		if n == name {
			return int32(c)
		}
	}
	e.names = append(e.names, name)
	return int32(len(e.names) - 1)
}

// tag appends an element or attribute name: its code in a Compressed
// value, the name itself otherwise.
func (e *encoder) tag(name string) {
	if e.coded {
		e.body = appendDecimal(e.body, e.code(name))
	} else {
		e.body = append(e.body, name...)
	}
}

func (e *encoder) emit(n *xmltree.Node) {
	if n.IsText() {
		e.body = append(e.body, xmltree.EscapeText(n.Text)...)
		return
	}
	e.tab = binary.AppendUvarint(e.tab, uint64(e.code(n.Name)))
	e.body = append(e.body, '<')
	e.tag(n.Name)
	for _, a := range n.Attrs {
		e.body = append(e.body, ' ')
		e.tag(a.Name)
		e.body = append(e.body, '=', '"')
		e.body = append(e.body, xmltree.EscapeAttr(a.Value)...)
		e.body = append(e.body, '"')
	}
	e.body = append(e.body, '>')
	for _, child := range n.Children {
		e.emit(child)
	}
	e.body = append(e.body, '<', '/')
	e.tag(n.Name)
	e.body = append(e.body, '>')
}

// Nodes decodes the fragment into a node list.
func (v Value) Nodes() ([]*xmltree.Node, error) {
	text, err := v.Text()
	if err != nil {
		return nil, err
	}
	return xmltree.ParseFragment(text)
}

// Text returns the serialized fragment text, expanding the tag codes of
// a Compressed value.
func (v Value) Text() (string, error) {
	v = v.plain()
	var t table
	if _, _, err := t.readHeader(v.data); err != nil {
		return "", err
	}
	if t.format == Raw {
		return string(v.data[t.body:]), nil
	}
	names := make([]string, len(t.names))
	for c := range names {
		names[c] = string(t.name(v.data, int32(c)))
	}
	return expandCodes(string(v.data[t.body:]), names)
}

// Compressed layout, following the paper's XMill-inspired scheme
// (§3.4.1): element and attribute names are replaced by decimal integer
// codes in an otherwise textual XML rendering, and a dictionary mapping
// codes back to names travels with the value, after its element table:
//
//	[format=1] [element table]
//	[uvarint ndict] [len-prefixed name]*   -- dictionary: code i → name
//	coded fragment text: <0 1="v">text</0><2>…</2>
//
// Keeping the body textual reproduces the paper's storage economics: the
// saving per tag is (len(name) - len(code digits)), so values dominated by
// character data (Shakespeare lines) barely compress and the dictionary
// can make them larger, while deeply tagged fragments (SIGMOD sList
// subtrees) shrink substantially. Codes are numbered in first-appearance
// order, an element's name before its attributes' names.

func appendDecimal(b []byte, n int32) []byte {
	return strconv.AppendInt(b, int64(n), 10)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

type byteReader struct {
	b   []byte
	pos int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, errors.New("xadt: corrupt varint")
	}
	r.pos += n
	return v, nil
}

// bytes returns the next length-prefixed string as a sub-slice of the
// input.
func (r *byteReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Compare as uint64 first: a corrupt varint length can exceed
	// math.MaxInt and flip negative under int().
	if n > uint64(len(r.b)) || r.pos+int(n) > len(r.b) {
		return nil, errors.New("xadt: truncated string")
	}
	b := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// expandCodes rewrites <0 1="v">…</0> into <NAME ATTR="v">…</NAME>.
func expandCodes(body string, names []string) (string, error) {
	var sb strings.Builder
	sb.Grow(len(body) * 2)
	i := 0
	lookup := func(start int) (string, int, error) {
		j := start
		for j < len(body) && body[j] >= '0' && body[j] <= '9' {
			j++
		}
		if j == start {
			return "", 0, errors.New("xadt: expected tag code")
		}
		code := 0
		for _, c := range body[start:j] {
			code = code*10 + int(c-'0')
			// Checking inside the loop keeps a long corrupt digit run
			// from overflowing code past MaxInt into a negative index.
			if code >= len(names) {
				return "", 0, fmt.Errorf("xadt: tag code %s out of range", body[start:j])
			}
		}
		return names[code], j, nil
	}
	for i < len(body) {
		c := body[i]
		if c != '<' {
			sb.WriteByte(c)
			i++
			continue
		}
		// Tag: <code …> or </code>.
		sb.WriteByte('<')
		i++
		if i < len(body) && body[i] == '/' {
			sb.WriteByte('/')
			i++
		}
		name, next, err := lookup(i)
		if err != nil {
			return "", err
		}
		sb.WriteString(name)
		i = next
		// Attributes: " code="value"" repeated until '>'.
		for i < len(body) && body[i] != '>' {
			if body[i] != ' ' {
				return "", errors.New("xadt: malformed coded tag")
			}
			sb.WriteByte(' ')
			i++
			aname, next, err := lookup(i)
			if err != nil {
				return "", err
			}
			sb.WriteString(aname)
			i = next
			if i >= len(body) || body[i] != '=' {
				return "", errors.New("xadt: malformed coded attribute")
			}
			sb.WriteString(`="`)
			i += 2 // skip ="
			for i < len(body) && body[i] != '"' {
				sb.WriteByte(body[i])
				i++
			}
			if i >= len(body) {
				return "", errors.New("xadt: unterminated coded attribute")
			}
			sb.WriteByte('"')
			i++
		}
		if i >= len(body) {
			return "", errors.New("xadt: unterminated coded tag")
		}
		sb.WriteByte('>')
		i++
	}
	return sb.String(), nil
}

// ChooseFormat implements the storage-alternative decision of §4.1: it
// encodes each sample fragment both ways and picks Compressed only when it
// saves at least minSaving (the paper uses 0.20) of the raw size in
// aggregate.
func ChooseFormat(samples [][]*xmltree.Node, minSaving float64) Format {
	var rawTotal, compTotal int
	for _, nodes := range samples {
		rawTotal += Encode(nodes, Raw).Len()
		compTotal += Encode(nodes, Compressed).Len()
	}
	if rawTotal == 0 {
		return Raw
	}
	saving := 1 - float64(compTotal)/float64(rawTotal)
	if saving >= minSaving {
		return Compressed
	}
	return Raw
}
