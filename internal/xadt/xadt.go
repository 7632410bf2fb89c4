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

	"repro/internal/xmltree"
)

// Format identifies a storage representation.
type Format byte

const (
	// Raw stores the fragment as its serialized text.
	Raw Format = 0
	// Compressed stores the fragment with dictionary-coded tag names.
	Compressed Format = 1
	// Directory stores the raw text preceded by an offset directory of
	// the top-level elements — the metadata extension the paper proposes
	// as future work to speed up the XADT methods.
	Directory Format = 2
)

// String names the format.
func (f Format) String() string {
	switch f {
	case Compressed:
		return "compressed"
	case Directory:
		return "directory"
	default:
		return "raw"
	}
}

// Value is an XADT instance. The zero Value is the empty fragment in raw
// format. A Value returned by Unnest is a reference into the value it
// split (see ref.go).
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
func (v Value) IsEmpty() bool { return len(v.payloadBytes()) <= 1 }

// Format returns the storage representation of the value, looking
// through a v1 header if present.
func (v Value) Format() Format {
	p := v.payloadBytes()
	if len(p) == 0 {
		return Raw
	}
	switch p[0] {
	case byte(Compressed):
		return Compressed
	case byte(Directory):
		return Directory
	default:
		return Raw
	}
}

// Encode builds a Value from fragment nodes in the given format.
func Encode(nodes []*xmltree.Node, f Format) Value {
	switch f {
	case Compressed:
		return encodeCompressed(nodes)
	case Directory:
		return encodeDirectory(nodes)
	default:
		return encodeRaw(nodes)
	}
}

// Parse builds a Value from fragment text in the given format.
func Parse(fragment string, f Format) (Value, error) {
	nodes, err := xmltree.ParseFragment(fragment)
	if err != nil {
		return Value{}, err
	}
	return Encode(nodes, f), nil
}

func encodeRaw(nodes []*xmltree.Node) Value {
	text := xmltree.SerializeAll(nodes)
	data := make([]byte, 0, len(text)+1)
	data = append(data, byte(Raw))
	data = append(data, text...)
	return Value{data: data}
}

// Nodes decodes the fragment into a node list.
func (v Value) Nodes() ([]*xmltree.Node, error) {
	p := v.plain().payloadBytes()
	if len(p) == 0 {
		return nil, nil
	}
	switch p[0] {
	case byte(Compressed):
		return decodeCompressed(p[1:])
	case byte(Directory):
		body, err := directoryBody(p, 1)
		if err != nil {
			return nil, err
		}
		return xmltree.ParseFragment(string(p[body:]))
	default:
		return xmltree.ParseFragment(string(p[1:]))
	}
}

// Text returns the serialized fragment text, expanding the tag codes of
// a Compressed value.
func (v Value) Text() (string, error) {
	v = v.plain()
	p := v.payloadBytes()
	if len(p) == 0 {
		return "", nil
	}
	switch p[0] {
	case byte(Raw):
		return string(p[1:]), nil
	case byte(Directory):
		body, err := directoryBody(p, 1)
		if err != nil {
			return "", err
		}
		return string(p[body:]), nil
	default:
		var w scratch
		if err := w.scan(v.data, &w.t); err != nil {
			return "", err
		}
		return string(w.t.text(v.data)), nil
	}
}

// Compressed layout, following the paper's XMill-inspired scheme (§3.4.1):
// element and attribute names are replaced by decimal integer codes in an
// otherwise textual XML rendering, and a dictionary mapping codes back to
// names travels with the value.
//
//	[format=1]
//	[uvarint ndict] [len-prefixed name]*   -- dictionary: code i → name
//	coded fragment text: <0 1="v">text</0><2>…</2>
//
// Keeping the body textual reproduces the paper's storage economics: the
// saving per tag is (len(name) - len(code digits)), so values dominated by
// character data (Shakespeare lines) barely compress and the dictionary
// can make them larger, while deeply tagged fragments (SIGMOD sList
// subtrees) shrink substantially.
func encodeCompressed(nodes []*xmltree.Node) Value {
	dict := map[string]int{}
	var names []string
	code := func(name string) int {
		if c, ok := dict[name]; ok {
			return c
		}
		c := len(names)
		dict[name] = c
		names = append(names, name)
		return c
	}
	var body []byte
	var emit func(n *xmltree.Node)
	emit = func(n *xmltree.Node) {
		if n.IsText() {
			body = append(body, xmltree.EscapeText(n.Text)...)
			return
		}
		c := code(n.Name)
		body = append(body, '<')
		body = appendDecimal(body, c)
		for _, a := range n.Attrs {
			body = append(body, ' ')
			body = appendDecimal(body, code(a.Name))
			body = append(body, '=', '"')
			body = append(body, xmltree.EscapeAttr(a.Value)...)
			body = append(body, '"')
		}
		body = append(body, '>')
		for _, child := range n.Children {
			emit(child)
		}
		body = append(body, '<', '/')
		body = appendDecimal(body, c)
		body = append(body, '>')
	}
	for _, n := range nodes {
		emit(n)
	}

	data := []byte{byte(Compressed)}
	data = binary.AppendUvarint(data, uint64(len(names)))
	for _, name := range names {
		data = appendString(data, name)
	}
	data = append(data, body...)
	return Value{data: data}
}

func appendDecimal(b []byte, n int) []byte {
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

func (r *byteReader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

func (r *byteReader) done() bool { return r.pos >= len(r.b) }

func decodeCompressed(b []byte) ([]*xmltree.Node, error) {
	r := &byteReader{b: b}
	ndict, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ndict > uint64(len(b)) {
		return nil, errors.New("xadt: corrupt dictionary size")
	}
	names := make([]string, ndict)
	for i := range names {
		if names[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	// Substitute codes back into tag names, then reuse the XML parser.
	expanded, err := expandCodes(string(r.b[r.pos:]), names)
	if err != nil {
		return nil, err
	}
	return xmltree.ParseFragment(expanded)
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
