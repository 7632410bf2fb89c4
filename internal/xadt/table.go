package xadt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"repro/internal/xmltree"
)

// Every value carries the element table of its fragment, written at
// encode time between the format byte and the text: the paper's §5
// proposal of "storing of metadata with the XADT attribute". Readers
// take each element's name from the table and its offsets from the
// tags around it, instead of scanning and checking every byte of the
// text.
//
//	[format] [uvarint n] [n bytes: one uvarint name code per element, in document order]
//	[dictionary, Compressed only] [text]
//
// The text is the Raw fragment or the Compressed coded body. A name code
// is the element's dictionary code in a Compressed value; in a Raw value
// it numbers the distinct element names in order of first appearance,
// and the tag of a name's first element holds its bytes.
//
// A reader walks the tags: the next '<' is either the start tag of the
// table's next element, whose name length the code gives, or the end tag
// of the innermost open one. It reads no name, escape or attribute, so
// one byte per element makes a read two to four times cheaper than the
// scan (Walker.Check), which builds the same table from the text alone
// and checks every byte. Readers trust the table but bound every offset
// they derive, so no bytes make them fail other than with an error;
// values read from outside the process pass Check once when they enter
// (catalog.Load and WAL replay).
//
// A table of offsets (gap, start-tag length and content length per
// element, besides the name) was measured first: it read about as fast,
// but added 15 % to SIGMOD section lists, where codes alone add 4.5 %.

// readHeader resets t and reads the header of the value data: the
// format, the extent of the entries, and a Compressed value's
// dictionary. It sets t.body and t.end and returns the bounds of the
// entries.
func (t *table) readHeader(data []byte) (lo, hi int, err error) {
	t.names, t.elems = t.names[:0], t.elems[:0]
	t.format, t.body, t.end = Raw, 0, len(data)
	if len(data) == 0 {
		return 0, 0, nil
	}
	if len(data) > math.MaxInt32 {
		return 0, 0, errors.New("xadt: value too large")
	}
	switch data[0] {
	case byte(Raw):
	case byte(Compressed):
		t.format = Compressed
	default:
		return 0, 0, errors.New("xadt: unknown value format")
	}
	r := byteReader{b: data, pos: 1}
	tab, err := r.bytes()
	if err != nil {
		return 0, 0, errTable
	}
	t.body = r.pos
	if t.format == Compressed {
		if t.body, err = t.readDict(data, r.pos); err != nil {
			return 0, 0, err
		}
	}
	return r.pos - len(tab), r.pos, nil
}

// read decodes the element table of the value data into t, reusing t's
// slices. It fails when the tags and the table disagree on the number of
// elements or their nesting, never on what else the text holds.
func (w *scratch) read(data []byte, t *table) error {
	k, hi, err := t.readHeader(data)
	if err != nil {
		return err
	}
	// Locals, written back at the end, keep the loop off t's fields.
	elems, names, stack := t.elems, t.names, w.stack[:0]
	coded := t.format == Compressed
	nameLen := func(code int32) int {
		if coded {
			return digits(code)
		}
		return int(names[code].len)
	}
	for pos := t.body; ; {
		i := pos
		if i < len(data) && data[i] != '<' {
			i = bytes.IndexByte(data[pos:], '<')
			if i < 0 {
				break
			}
			i += pos
		}
		if i >= len(data) {
			break
		}
		if i+1 < len(data) && data[i+1] == '/' {
			if len(stack) == 0 {
				return errTable
			}
			e := &elems[stack[len(stack)-1]]
			e.end, e.close = int32(i), int32(i+3+nameLen(e.name))
			if int(e.close) > len(data) {
				return errTable
			}
			stack, pos = stack[:len(stack)-1], int(e.close)
			continue
		}
		// The next entry: one byte, unless a code passes 127.
		if k >= hi {
			return errTable
		}
		c, n := uint64(data[k]), 1
		if c >= 0x80 {
			if c, n = binary.Uvarint(data[k:hi]); n <= 0 {
				return errTable
			}
		}
		k += n
		if c > uint64(len(names)) || c == uint64(len(names)) && coded {
			return errTable
		}
		code := int32(c)
		if int(code) == len(names) {
			// A Raw name's first element holds its bytes.
			j := i + 1
			for j < len(data) && xmltree.IsNameChar(data[j]) {
				j++
			}
			if j == i+1 {
				return errTable
			}
			names = append(names, span{int32(i + 1), int32(j - i - 1)})
		}
		j := i + 1 + nameLen(code)
		if j < len(data) && data[j] != '>' {
			gt := bytes.IndexByte(data[j:], '>')
			if gt < 0 {
				return errTable
			}
			j += gt
		}
		if j >= len(data) {
			return errTable
		}
		stack = append(stack, int32(len(elems)))
		elems = append(elems, element{name: code, depth: int32(len(stack)), open: int32(i), start: int32(j + 1)})
		pos = j + 1
	}
	t.elems, t.names, w.stack = elems, names, stack
	if len(stack) > 0 || k != hi {
		return errTable
	}
	return nil
}

// nameLen returns the length of the name with the given code as tags
// write it: the name, or the decimal code of a Compressed value.
func (t *table) nameLen(code int32) int {
	if t.format == Compressed {
		return digits(code)
	}
	return int(t.names[code].len)
}

var errTable = errors.New("xadt: corrupt element table")

// digits returns the number of decimal digits of c >= 0.
func digits(c int32) int {
	n := 1
	for ; c >= 10; c /= 10 {
		n++
	}
	return n
}

// Check reports whether data is a value the scanner accepts whose stored
// element table is the one its text scans to. It is the ingress check
// for values read from outside the process; values built by Encode and
// the methods need none.
func (k *Walker) Check(data []byte) error {
	if err := k.w.scan(data, &k.w.t); err != nil {
		return err
	}
	if err := k.w.read(data, &k.stored); err != nil {
		return err
	}
	s, t := &k.stored, &k.w.t
	if s.body != t.body || !slices.Equal(s.names, t.names) || !slices.Equal(s.elems, t.elems) {
		return errors.New("xadt: stored element table differs from the text")
	}
	return nil
}
