package xadt

import (
	"encoding/binary"
	"errors"

	"repro/internal/xmltree"
)

// The Directory format implements the paper's future-work proposal
// (§4.4/§5): "storing of metadata with the XADT attribute to improve the
// performance of the methods on the XADT" — here, a directory of the
// fragment's top-level elements (tag name, byte range) in front of the
// raw text. Method outputs on Directory values are Directory values too,
// with a directory over the elements they return.
//
// Layout:
//
//	[format=2]
//	[uvarint nentries] ([len-prefixed name][uvarint start][uvarint end])*
//	raw fragment text
//
// start/end are byte offsets into the text part.

// dirEntry is one top-level element in a Directory value.
type dirEntry struct {
	name       string
	start, end int
}

func encodeDirectory(nodes []*xmltree.Node) Value {
	var text []byte
	var entries []dirEntry
	for _, n := range nodes {
		start := len(text)
		text = append(text, xmltree.Serialize(n)...)
		if n.IsElement() {
			entries = append(entries, dirEntry{name: n.Name, start: start, end: len(text)})
		}
	}
	data := []byte{byte(Directory)}
	data = binary.AppendUvarint(data, uint64(len(entries)))
	for _, e := range entries {
		data = appendString(data, e.name)
		data = binary.AppendUvarint(data, uint64(e.start))
		data = binary.AppendUvarint(data, uint64(e.end))
	}
	data = append(data, text...)
	return Value{data: data}
}

// directoryBody checks the directory of a Directory payload at data[pos]
// and returns the offset of the fragment text after it. Every entry must
// lie within the text.
func directoryBody(data []byte, pos int) (int, error) {
	r := byteReader{b: data, pos: pos}
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(data)) {
		return 0, errors.New("xadt: corrupt directory size")
	}
	var maxEnd uint64
	for ; n > 0; n-- {
		if _, err := r.bytes(); err != nil {
			return 0, err
		}
		start, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		end, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		if start > end {
			return 0, errors.New("xadt: directory entry out of range")
		}
		maxEnd = max(maxEnd, end)
	}
	if maxEnd > uint64(len(data)-r.pos) {
		return 0, errors.New("xadt: directory entry out of range")
	}
	return r.pos, nil
}
