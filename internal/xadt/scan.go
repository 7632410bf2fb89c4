package xadt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/xmltree"
)

// The XADT methods run on the stored bytes, as the paper's implementation
// does with "string compare and copy functions on the VARCHAR" (§4.1).
// One pass over a payload builds a flat element table; the methods walk
// the table and build their outputs by copying byte ranges of the value
// (Raw, Directory) or by recoding them with a fresh dictionary
// (Compressed). No xmltree nodes are built and no text is copied while
// scanning.
//
// The scanner accepts exactly the markup the encoders write: elements
// with explicit end tags, attributes written as ` name="value"`, the
// escapes &lt; &gt; &amp; in character data and those plus &quot; in
// attribute values, and nothing else — no comments, CDATA sections,
// processing instructions, self-closing tags or other references. A
// Compressed value must also use its dictionary in first-appearance
// order, as encodeCompressed writes it. Anything else is an error. Every
// stored value comes from Encode (behind a v1 header if it is old) and
// every VARCHAR argument goes through Parse, so only corrupt bytes are
// rejected, and on what it accepts the scanner agrees with Nodes byte for
// byte: output ranges copied from accepted markup are exactly what
// serializing the parsed nodes would write.

// element is one element of a fragment. Tables list elements in document
// order, so an element's descendants are the entries after it with a
// greater depth. Offsets index the whole value (for a reference, the
// value it points into).
type element struct {
	name  int32 // code into table.names
	depth int32 // 1 for a top-level element
	open  int32 // '<' of the start tag
	start int32 // first byte of the content
	end   int32 // '<' of the end tag
	close int32 // one past the end tag
}

// span is a byte range of a value.
type span struct{ off, len int32 }

// table is the scanned form of one value.
type table struct {
	format Format
	// body and end bound the tagged text: the Raw text, the Directory
	// text part, or the Compressed coded body; for a reference, its
	// element.
	body, end int
	// names maps name codes to names in the value: the dictionary of a
	// Compressed value, the first occurrence of each element and
	// attribute name otherwise.
	names []span
	elems []element
}

// scratch is the working space of scans and method outputs. A Cache
// keeps one so that warm calls allocate only their results.
type scratch struct {
	t      table   // the last scan's table, when no cache entry holds it
	view   table   // a reference's elements within a kept table (Cache.refTable)
	stack  []int32 // open elements while scanning
	attrs  []int32 // attribute codes of the start tag being scanned
	picks  []int32 // elements a method returns
	buf    []byte  // recoded body of a Compressed output
	out    []byte  // the output being built
	recode []int32 // input code → output code + 1 (0: not yet used)
	order  []int32 // output code → input code
}

// scan builds the element table of the value data into t, reusing t's
// slices.
func (w *scratch) scan(data []byte, t *table) error {
	if len(data) > math.MaxInt32 {
		return errors.New("xadt: value too large to scan")
	}
	body, err := t.readHeader(data)
	if err != nil {
		return err
	}
	t.body, t.end = body, len(data)
	return w.scanBody(data, t, 0)
}

// scanSpan builds into t the table of the reference to the element
// data[open:close) that span packs: the value's names (a Compressed
// value's dictionary) and the element with its descendants, depths
// counted from it. It reads the value header and the span, nothing else
// of data. The whole value was scanned when the reference was made, so
// the element's Compressed codes may appear in any order.
func (w *scratch) scanSpan(data []byte, span int64, t *table) error {
	if _, err := t.readHeader(data); err != nil {
		return err
	}
	t.body, t.end = spanBounds(span)
	return w.scanBody(data, t, int32(len(t.names)))
}

// readHeader resets t and reads the header of the value data: the
// format and, for Compressed, the dictionary. It returns the offset of
// the tagged text.
func (t *table) readHeader(data []byte) (int, error) {
	t.names, t.elems = t.names[:0], t.elems[:0]
	off := payloadOffset(data)
	t.format = Raw
	if off == len(data) {
		return off, nil
	}
	switch data[off] {
	case byte(Compressed):
		t.format = Compressed
		return t.readDict(data, off+1)
	case byte(Directory):
		t.format = Directory
		return directoryBody(data, off+1)
	}
	return off + 1, nil
}

func malformed(what string, at int) error {
	return fmt.Errorf("xadt: malformed fragment: %s at offset %d", what, at)
}

// scanBody scans the tagged text data[t.body:t.end]. next is the
// Compressed code whose first appearance is due: 0 for a whole value,
// len(t.names) where codes may come in any order.
func (w *scratch) scanBody(data []byte, t *table, next int32) error {
	data = data[:t.end] // offsets stay those of the whole value
	coded := t.format == Compressed
	stack := w.stack[:0]
	// tagName reads the element or attribute name at data[i]: a name,
	// interned into t.names, or a dictionary code in first-appearance
	// order.
	tagName := func(i int) (int32, int, error) {
		if coded {
			c, j := decimal(data, i, len(t.names))
			if j < 0 || c > next {
				return 0, 0, malformed("bad tag code", i)
			}
			if c == next {
				next++
			}
			return c, j, nil
		}
		j := i
		if j >= len(data) || !xmltree.IsNameStart(data[j]) {
			return 0, 0, malformed("expected name", i)
		}
		for j++; j < len(data) && xmltree.IsNameChar(data[j]); j++ {
		}
		return t.intern(data, i, j), j, nil
	}

	for i := t.body; i < len(data); {
		if data[i] != '<' {
			// Character data runs to the next tag.
			n := bytes.IndexByte(data[i:], '<')
			if n < 0 {
				n = len(data) - i
			}
			if err := checkText(data[i:i+n], i, false); err != nil {
				return err
			}
			i += n
			continue
		}
		if i+1 < len(data) && data[i+1] == '/' {
			if len(stack) == 0 {
				return malformed("end tag without start tag", i)
			}
			e := &t.elems[stack[len(stack)-1]]
			j := -1
			if coded {
				if c, k := decimal(data, i+2, len(t.names)); c == e.name {
					j = k
				}
			} else if name := t.name(data, e.name); bytes.HasPrefix(data[i+2:], name) {
				j = i + 2 + len(name)
			}
			if j < 0 || j >= len(data) || data[j] != '>' {
				return malformed("mismatched end tag", i)
			}
			e.end, e.close = int32(i), int32(j+1)
			stack = stack[:len(stack)-1]
			i = j + 1
			continue
		}
		code, j, err := tagName(i + 1)
		if err != nil {
			return err
		}
		attrs := w.attrs[:0]
		for j < len(data) && data[j] == ' ' {
			a, k, err := tagName(j + 1)
			if err != nil {
				return err
			}
			for _, b := range attrs {
				if a == b {
					return malformed("duplicate attribute", j)
				}
			}
			attrs = append(attrs, a)
			if k+1 >= len(data) || data[k] != '=' || data[k+1] != '"' {
				return malformed("bad attribute", k)
			}
			n := bytes.IndexByte(data[k+2:], '"')
			if n < 0 {
				return malformed("unterminated attribute", j)
			}
			if err := checkText(data[k+2:k+2+n], k+2, true); err != nil {
				return err
			}
			j = k + 2 + n + 1
		}
		w.attrs = attrs
		if j >= len(data) || data[j] != '>' {
			return malformed("unterminated start tag", i)
		}
		stack = append(stack, int32(len(t.elems)))
		t.elems = append(t.elems, element{name: code, depth: int32(len(stack)), open: int32(i), start: int32(j + 1)})
		i = j + 1
	}
	w.stack = stack
	if len(stack) > 0 {
		return malformed("unclosed element", int(t.elems[stack[len(stack)-1]].open))
	}
	if coded && int(next) != len(t.names) {
		return errors.New("xadt: malformed fragment: unused dictionary entries")
	}
	return nil
}

// checkText checks a run of character data (an attribute value when
// attr is set) starting at offset at: no markup byte but the encoders'
// escapes.
func checkText(run []byte, at int, attr bool) error {
	if k := bytes.IndexByte(run, '>'); k >= 0 {
		return malformed("unescaped '>'", at+k)
	}
	if k := bytes.IndexByte(run, '<'); k >= 0 {
		return malformed("unescaped '<'", at+k)
	}
	for k := 0; ; {
		amp := bytes.IndexByte(run[k:], '&')
		if amp < 0 {
			return nil
		}
		k += amp
		_, n := unescape(run[k:], attr)
		if n == 0 {
			return malformed("unknown reference", at+k)
		}
		k += n
	}
}

// decimal parses the code at data[i], written without leading zeros and
// below limit, returning it with the offset after it; the offset is -1
// when there is no such code.
func decimal(data []byte, i, limit int) (int32, int) {
	j, c := i, 0
	for ; j < len(data) && data[j] >= '0' && data[j] <= '9'; j++ {
		c = c*10 + int(data[j]-'0')
		if c >= limit || (j > i && data[i] == '0') {
			return 0, -1
		}
	}
	if j == i {
		return 0, -1
	}
	return int32(c), j
}

// unescape decodes the escape the encoders write at the start of s:
// &lt;, &gt;, &amp;, and in attribute values also &quot;. n is 0 for any
// other bytes.
func unescape(s []byte, attr bool) (c byte, n int) {
	switch {
	case len(s) >= 4 && string(s[:4]) == "&lt;":
		return '<', 4
	case len(s) >= 4 && string(s[:4]) == "&gt;":
		return '>', 4
	case len(s) >= 5 && string(s[:5]) == "&amp;":
		return '&', 5
	case attr && len(s) >= 6 && string(s[:6]) == "&quot;":
		return '"', 6
	}
	return 0, 0
}

// name returns the name with the given code.
func (t *table) name(data []byte, code int32) []byte {
	s := t.names[code]
	return data[s.off : s.off+s.len]
}

// code returns the code of name in t, or -1 when t has no such name.
func (t *table) code(data []byte, name string) int32 {
	for c, s := range t.names {
		if string(data[s.off:s.off+s.len]) == name {
			return int32(c)
		}
	}
	return -1
}

// intern returns the code of the name data[lo:hi], adding it on first
// sight.
func (t *table) intern(data []byte, lo, hi int) int32 {
	for c, s := range t.names {
		if bytes.Equal(data[s.off:s.off+s.len], data[lo:hi]) {
			return int32(c)
		}
	}
	t.names = append(t.names, span{int32(lo), int32(hi - lo)})
	return int32(len(t.names) - 1)
}

// readDict reads the dictionary of a Compressed payload at data[pos]
// into t.names and returns the offset of the coded body. Names must be
// distinct XML names, as encodeCompressed writes them.
func (t *table) readDict(data []byte, pos int) (int, error) {
	r := byteReader{b: data, pos: pos}
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(data)) {
		return 0, errors.New("xadt: corrupt dictionary size")
	}
	for ; n > 0; n-- {
		name, err := r.bytes()
		if err != nil {
			return 0, err
		}
		if code := int32(len(t.names)); !isName(name) || t.intern(data, r.pos-len(name), r.pos) != code {
			return 0, errors.New("xadt: corrupt dictionary name")
		}
	}
	return r.pos, nil
}

func isName(b []byte) bool {
	if len(b) == 0 || !xmltree.IsNameStart(b[0]) {
		return false
	}
	for _, c := range b[1:] {
		if !xmltree.IsNameChar(c) {
			return false
		}
	}
	return true
}

// textByte returns the next byte of character data in the scanned markup
// data[i:hi] — skipping tags, decoding escapes — and the offset after it;
// ok is false at hi.
func textByte(data []byte, i, hi int) (c byte, next int, ok bool) {
	for i < hi && data[i] == '<' {
		// '>' is escaped everywhere but at the end of a tag.
		gt := bytes.IndexByte(data[i:hi], '>')
		if gt < 0 {
			return 0, hi, false
		}
		i += gt + 1
	}
	if i >= hi {
		return 0, hi, false
	}
	if data[i] == '&' {
		c, n := unescape(data[i:hi], false)
		return c, i + n, true
	}
	return data[i], i + 1, true
}

// containsText reports whether the character data of data[lo:hi] — what
// xmltree's InnerText returns for the nodes there — contains key.
func containsText(data []byte, lo, hi int, key string) bool {
	if key == "" {
		return true
	}
	for i := lo; ; {
		c, next, ok := textByte(data, i, hi)
		if !ok {
			return false
		}
		if c == key[0] {
			j, k := next, 1
			for ; k < len(key); k++ {
				var d byte
				if d, j, ok = textByte(data, j, hi); !ok || d != key[k] {
					break
				}
			}
			if k == len(key) {
				return true
			}
		}
		i = next
	}
}

// appendText appends the character data of the scanned markup
// data[lo:hi] to dst, a run at a time.
func appendText(dst, data []byte, lo, hi int) []byte {
	for i := lo; i < hi; {
		if data[i] == '<' {
			// '>' is escaped everywhere but at the end of a tag.
			gt := bytes.IndexByte(data[i:hi], '>')
			if gt < 0 {
				return dst
			}
			i += gt + 1
			continue
		}
		n := bytes.IndexByte(data[i:hi], '<')
		if n < 0 {
			n = hi - i
		}
		for run := data[i : i+n]; ; {
			amp := bytes.IndexByte(run, '&')
			if amp < 0 {
				dst = append(dst, run...)
				break
			}
			c, m := unescape(run[amp:], false)
			if m == 0 { // not in scanned text; keep the byte
				c, m = '&', 1
			}
			dst = append(append(dst, run[:amp]...), c)
			run = run[amp+m:]
		}
		i += n
	}
	return dst
}

// Walker is the reusable working space of Walk. The zero value is ready
// to use; a Walker must not be used by two goroutines at once.
type Walker struct{ w scratch }

// Walk scans the stored value data, without a Cache, and calls elem with the name and depth
// (1 for a top-level element) of each element in document order. Names
// alias data; a Compressed value's come from its dictionary. Walk then
// returns text with the value's character data appended: the bytes
// Evaluator.InnerText returns. A value the scanner rejects is an error,
// and elem is not called for it. Once the Walker has seen values of the
// same shape, a call allocates nothing beyond text's growth.
func (k *Walker) Walk(data, text []byte, elem func(name []byte, depth int)) ([]byte, error) {
	t := &k.w.t
	if err := k.w.scan(data, t); err != nil {
		return text, err
	}
	for _, e := range t.elems {
		elem(t.name(data, e.name), int(e.depth))
	}
	return appendText(text, data, t.body, t.end), nil
}

// rewriteCodes appends the coded markup data[lo:hi] to dst with every
// tag code rewritten by t.rename.
func (t *table) rewriteCodes(dst, data []byte, lo, hi int, w *scratch) []byte {
	for i := lo; i < hi; {
		lt := bytes.IndexByte(data[i:hi], '<')
		if lt < 0 {
			return append(dst, data[i:hi]...)
		}
		dst = append(dst, data[i:i+lt+1]...)
		i += lt + 1
		if data[i] == '/' {
			dst = append(dst, '/')
			i++
		}
		code, j := decimal(data, i, math.MaxInt32)
		dst = t.rename(dst, data, code, w)
		for i = j; data[i] == ' '; {
			code, j = decimal(data, i+1, math.MaxInt32)
			dst = t.rename(append(dst, ' '), data, code, w)
			// Copy `="value"`; '"' is escaped inside the value.
			q := j + 2 + bytes.IndexByte(data[j+2:hi], '"')
			dst = append(dst, data[j:q+1]...)
			i = q + 1
		}
		dst = append(dst, '>')
		i++
	}
	return dst
}

// rename appends what a tag code becomes: its name when w is nil, else
// its code in the output dictionary w is building, assigned on first
// use.
func (t *table) rename(dst, data []byte, code int32, w *scratch) []byte {
	if w == nil {
		return append(dst, t.name(data, code)...)
	}
	c := w.recode[code]
	if c == 0 {
		w.order = append(w.order, code)
		c = int32(len(w.order))
		w.recode[code] = c
	}
	return strconv.AppendInt(dst, int64(c-1), 10)
}

// text returns the fragment text of the scanned value: the tagged text
// itself, or for Compressed the body with its codes expanded to names.
func (t *table) text(data []byte) []byte {
	if t.format != Compressed {
		return data[t.body:t.end]
	}
	return t.rewriteCodes(make([]byte, 0, 2*(t.end-t.body)), data, t.body, t.end, nil)
}

// encode builds the value holding the picked elements, in t's format:
// exactly what Encode writes for their nodes. Compressed outputs recode
// the elements with a fresh dictionary in first-appearance order, as
// encodeCompressed numbers nodes; Directory outputs get one directory
// entry per element, as encodeDirectory writes them.
func (t *table) encode(data []byte, w *scratch, picks []int32) Value {
	out := append(w.out[:0], byte(t.format))
	switch t.format {
	case Compressed:
		w.recode = slices.Grow(w.recode[:0], len(t.names))[:len(t.names)]
		clear(w.recode)
		w.order = w.order[:0]
		body := w.buf[:0]
		for _, p := range picks {
			body = t.rewriteCodes(body, data, int(t.elems[p].open), int(t.elems[p].close), w)
		}
		out = binary.AppendUvarint(out, uint64(len(w.order)))
		for _, code := range w.order {
			out = appendBytes(out, t.name(data, code))
		}
		w.buf, w.out = body, append(out, body...)
		return Value{data: bytes.Clone(w.out)}
	case Directory:
		out = binary.AppendUvarint(out, uint64(len(picks)))
		text := 0
		for _, p := range picks {
			e := &t.elems[p]
			out = appendBytes(out, t.name(data, e.name))
			out = binary.AppendUvarint(out, uint64(text))
			text += int(e.close - e.open)
			out = binary.AppendUvarint(out, uint64(text))
		}
	}
	for _, p := range picks {
		out = append(out, data[t.elems[p].open:t.elems[p].close]...)
	}
	w.out = out
	return Value{data: bytes.Clone(out)}
}

// appendBytes appends b with its uvarint length in front.
func appendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}
