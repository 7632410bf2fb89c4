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
// Every value carries a flat element table (see table.go); the methods
// decode it, walk it and build their outputs by copying byte ranges of
// the value (Raw) or by recoding them with a fresh dictionary
// (Compressed). No xmltree nodes are built and no text is copied.
//
// The scanner below builds the same table from the text. It is the
// ingress check (Walker.Check) and accepts exactly the markup the
// encoders write: elements with explicit end tags, attributes written as
// ` name="value"`, the escapes &lt; &gt; &amp; in character data and
// those plus &quot; in attribute values, and nothing else — no comments,
// CDATA sections, processing instructions, self-closing tags or other
// references. A Compressed value must also use its dictionary in
// first-appearance order, as Encode writes it. Anything else
// is an error. On what it accepts the scanner agrees with Nodes byte for
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

// table is the decoded (or scanned) form of one value.
type table struct {
	format Format
	// body and end bound the tagged text: the Raw text or the
	// Compressed coded body; for a reference, its element.
	body, end int
	// names maps name codes to names in the value: the dictionary of a
	// Compressed value, the first occurrence of each element name
	// otherwise.
	names []span
	elems []element
}

// scratch is the working space of table reads and method outputs. A
// Cache keeps one so that warm calls allocate only their results.
type scratch struct {
	t      table   // the table read last, when no Cache slot holds it
	view   table   // a reference's elements within its parent's table
	stack  []int32 // open elements while scanning or recoding
	attrs  []span  // attribute names of the start tag being scanned
	picks  []int32 // elements a method returns
	tab    []byte  // the output's table entries
	buf    []byte  // recoded body of a Compressed output
	recode []int32 // input code → output code + 1 (0: not yet used)
	order  []int32 // output code → input code
}

// scan builds the element table of the value data into t from its text,
// reusing t's slices.
func (w *scratch) scan(data []byte, t *table) error {
	if _, _, err := t.readHeader(data); err != nil {
		return err
	}
	return w.scanBody(data, t)
}

func malformed(what string, at int) error {
	return fmt.Errorf("xadt: malformed fragment: %s at offset %d", what, at)
}

// scanBody scans the tagged text data[t.body:t.end].
func (w *scratch) scanBody(data []byte, t *table) error {
	data = data[:t.end] // offsets stay those of the whole value
	coded := t.format == Compressed
	stack := w.stack[:0]
	next := int32(0) // the Compressed code whose first appearance is due
	// tagName reads the element or attribute name at data[i]: a
	// dictionary code in first-appearance order, or a name, which an
	// element interns into t.names. It returns the code and the offset
	// after the name.
	tagName := func(i int, elem bool) (int32, int, error) {
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
		if !elem {
			return -1, j, nil
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
		code, j, err := tagName(i+1, true)
		if err != nil {
			return err
		}
		attrs := w.attrs[:0]
		for j < len(data) && data[j] == ' ' {
			_, k, err := tagName(j+1, false)
			if err != nil {
				return err
			}
			a := span{int32(j + 1), int32(k - j - 1)}
			for _, b := range attrs {
				if bytes.Equal(data[a.off:a.off+a.len], data[b.off:b.off+b.len]) {
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
// distinct XML names, as Encode writes them.
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
		// A value that passed Check has no other '&'; keep the byte
		// of any other, as appendText does.
		if c, n := unescape(data[i:hi], false); n > 0 {
			return c, i + n, true
		}
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

// Walker is the reusable working space of Walk and Check. The zero
// value is ready to use; a Walker must not be used by two goroutines at
// once.
type Walker struct {
	w      scratch
	stored table // Check's decoded table, held to w.t's scan
}

// Walk reads the element table of the stored value data, without a
// Cache, and calls elem with the name and depth (1 for a top-level
// element) of each element in document order. Names alias data; a
// Compressed value's come from its dictionary. Walk then returns text
// with the value's character data appended: the bytes
// Evaluator.InnerText returns. A value whose table does not decode is an
// error, and elem is not called for it. Once the Walker has seen values
// of the same shape, a call allocates nothing beyond text's growth.
func (k *Walker) Walk(data, text []byte, elem func(name []byte, depth int)) ([]byte, error) {
	t := &k.w.t
	if err := k.w.read(data, t); err != nil {
		return text, err
	}
	for _, e := range t.elems {
		elem(t.name(data, e.name), int(e.depth))
	}
	return appendText(text, data, t.body, t.end), nil
}

// encode builds the value holding the picked elements, in t's format:
// exactly what Encode writes for their nodes, table included. A Raw
// output copies the elements' bytes; a Compressed output recodes them
// with a fresh dictionary in first-appearance order, as Encode numbers
// names.
func (t *table) encode(data []byte, w *scratch, picks []int32) Value {
	w.recode = slices.Grow(w.recode[:0], len(t.names))[:len(t.names)]
	clear(w.recode)
	w.order = w.order[:0]
	tab, body, size := w.tab[:0], w.buf[:0], 0
	for _, p := range picks {
		end := t.subtree(int(p))
		if t.format == Compressed {
			body, tab = t.recodeElems(body, tab, data, int(p), end, w)
			continue
		}
		for _, e := range t.elems[p:end] {
			tab = binary.AppendUvarint(tab, uint64(w.rename(e.name)))
		}
		size += int(t.elems[p].close - t.elems[p].open)
	}
	w.tab, w.buf = tab, body
	size += 1 + binary.MaxVarintLen32 + len(tab) + len(body)
	if t.format == Compressed {
		size += binary.MaxVarintLen32
		for _, code := range w.order {
			size += binary.MaxVarintLen32 + int(t.names[code].len)
		}
	}
	out := appendBytes(append(make([]byte, 0, size), byte(t.format)), tab)
	if t.format == Compressed {
		out = binary.AppendUvarint(out, uint64(len(w.order)))
		for _, code := range w.order {
			out = appendBytes(out, t.name(data, code))
		}
		return Value{data: append(out, body...)}
	}
	for _, p := range picks {
		out = append(out, data[t.elems[p].open:t.elems[p].close]...)
	}
	return Value{data: out}
}

// subtree returns the index one past the last descendant of element i.
func (t *table) subtree(i int) int {
	j := i + 1
	for j < len(t.elems) && t.elems[j].depth > t.elems[i].depth {
		j++
	}
	return j
}

// rename returns the output code of the input code, assigning the next
// one on first use.
func (w *scratch) rename(code int32) int32 {
	c := w.recode[code]
	if c == 0 {
		w.order = append(w.order, code)
		c = int32(len(w.order))
		w.recode[code] = c
	}
	return c - 1
}

// recodeElems appends to body the coded markup of the Compressed
// elements [i, end) of t — element i and its descendants — with every
// tag code rewritten by w.rename, and to tab their output codes. It
// reads only the tags the table places: the character data between
// them is copied as it is.
func (t *table) recodeElems(body, tab, data []byte, i, end int, w *scratch) ([]byte, []byte) {
	stack, pos := w.stack[:0], t.elems[i].open
	for k := i; ; k++ {
		limit := int32(math.MaxInt32)
		if k < end {
			limit = t.elems[k].open
		}
		// Close the open elements that end before element k.
		for len(stack) > 0 && t.elems[stack[len(stack)-1]].close <= limit {
			e := &t.elems[stack[len(stack)-1]]
			body = append(body, data[pos:e.end]...)
			body = strconv.AppendInt(append(body, '<', '/'), int64(w.rename(e.name)), 10)
			body, pos = append(body, '>'), e.close
			stack = stack[:len(stack)-1]
		}
		if k == end {
			w.stack = stack
			return body, tab
		}
		e := &t.elems[k]
		body = append(body, data[pos:e.open]...)
		code := w.rename(e.name)
		tab = binary.AppendUvarint(tab, uint64(code))
		body = strconv.AppendInt(append(body, '<'), int64(code), 10)
		body = t.recodeAttrs(body, data, int(e.open)+1+digits(e.name), int(e.start)-1, w)
		body, pos = append(body, '>'), e.start
		stack = append(stack, int32(k))
	}
}

// recodeAttrs appends the coded attributes data[lo:hi] — ` code="value"`
// each — with their codes rewritten by w.rename. Bytes that do not read
// as attributes are copied as they are.
func (t *table) recodeAttrs(dst, data []byte, lo, hi int, w *scratch) []byte {
	for lo < hi && data[lo] == ' ' {
		code, j := decimal(data[:hi], lo+1, len(t.names))
		if j < 0 || j+1 >= hi || data[j] != '=' || data[j+1] != '"' {
			break
		}
		q := bytes.IndexByte(data[j+2:hi], '"')
		if q < 0 {
			break
		}
		q += j + 2
		dst = strconv.AppendInt(append(dst, ' '), int64(w.rename(code)), 10)
		dst = append(dst, data[j:q+1]...)
		lo = q + 1
	}
	return append(dst, data[lo:hi]...)
}

// appendBytes appends b with its uvarint length in front.
func appendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}
