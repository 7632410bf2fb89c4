package xmltree

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes a syntax error encountered while parsing a document.
type ParseError struct {
	// Offset is the byte offset where the error was detected.
	Offset int
	// Line is the 1-based line number of the error.
	Line int
	// Msg describes the problem.
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xml: line %d (offset %d): %s", e.Line, e.Offset, e.Msg)
}

// Parse parses a complete XML document.
func Parse(input string) (*Document, error) {
	p := &parser{src: input}
	return p.parseDocument()
}

// ParseFragment parses a well-formed XML fragment: a sequence of elements
// and character data with no prolog. It returns the top-level nodes.
func ParseFragment(input string) ([]*Node, error) {
	p := &parser{src: input}
	root := NewElement("#fragment")
	if err := p.parseContent(root); err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected %q after fragment content", p.src[p.pos])
	}
	for _, c := range root.Children {
		c.Parent = nil
	}
	return root.Children, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) errorf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:p.pos], "\n")
	return &ParseError{Offset: p.pos, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) skipSpace() {
	for !p.eof() && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// IsNameStart reports whether c may start an element or attribute name.
func IsNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

// IsNameChar reports whether c may continue an element or attribute name.
func IsNameChar(c byte) bool {
	return IsNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) parseName() (string, error) {
	start := p.pos
	if p.eof() || !IsNameStart(p.src[p.pos]) {
		return "", p.errorf("expected name")
	}
	p.pos++
	for !p.eof() && IsNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

func (p *parser) expect(s string) error {
	if !strings.HasPrefix(p.src[p.pos:], s) {
		return p.errorf("expected %q", s)
	}
	p.pos += len(s)
	return nil
}

func (p *parser) parseDocument() (*Document, error) {
	doc := &Document{}
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errorf("document has no root element")
		}
		if strings.HasPrefix(p.src[p.pos:], "<?") {
			if err := p.skipPI(); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "<!--") {
			if err := p.skipComment(); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "<!DOCTYPE") {
			if err := p.parseDoctype(doc); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if p.peek() != '<' {
		return nil, p.errorf("expected root element")
	}
	root, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	doc.Root = root
	for {
		p.skipSpace()
		if p.eof() {
			break
		}
		switch {
		case strings.HasPrefix(p.src[p.pos:], "<?"):
			if err := p.skipPI(); err != nil {
				return nil, err
			}
		case strings.HasPrefix(p.src[p.pos:], "<!--"):
			if err := p.skipComment(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("unexpected content after root element")
		}
	}
	return doc, nil
}

func (p *parser) skipPI() error {
	end := strings.Index(p.src[p.pos:], "?>")
	if end < 0 {
		return p.errorf("unterminated processing instruction")
	}
	p.pos += end + 2
	return nil
}

func (p *parser) skipComment() error {
	end := strings.Index(p.src[p.pos+4:], "-->")
	if end < 0 {
		return p.errorf("unterminated comment")
	}
	p.pos += 4 + end + 3
	return nil
}

// parseDoctype parses <!DOCTYPE name [internal subset]> capturing the name
// and raw internal subset. External identifiers (SYSTEM/PUBLIC) are skipped.
func (p *parser) parseDoctype(doc *Document) error {
	if err := p.expect("<!DOCTYPE"); err != nil {
		return err
	}
	p.skipSpace()
	name, err := p.parseName()
	if err != nil {
		return err
	}
	doc.DoctypeName = name
	for {
		p.skipSpace()
		if p.eof() {
			return p.errorf("unterminated DOCTYPE")
		}
		c := p.peek()
		switch {
		case c == '>':
			p.pos++
			return nil
		case c == '[':
			p.pos++
			subset, err := p.scanInternalSubset()
			if err != nil {
				return err
			}
			doc.InternalSubset = subset
		case c == '"' || c == '\'':
			q := c
			p.pos++
			for !p.eof() && p.src[p.pos] != q {
				p.pos++
			}
			if p.eof() {
				return p.errorf("unterminated literal in DOCTYPE")
			}
			p.pos++
		default:
			// SYSTEM / PUBLIC keyword or identifier characters.
			p.pos++
		}
	}
}

// scanInternalSubset consumes the DOCTYPE internal subset up to and
// including the closing ']' and returns the raw subset text.
func (p *parser) scanInternalSubset() (string, error) {
	start := p.pos
	depth := 1
	for !p.eof() {
		switch p.src[p.pos] {
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				subset := p.src[start:p.pos]
				p.pos++
				return subset, nil
			}
		case '"', '\'':
			q := p.src[p.pos]
			p.pos++
			for !p.eof() && p.src[p.pos] != q {
				p.pos++
			}
			if p.eof() {
				return "", p.errorf("unterminated literal in DOCTYPE subset")
			}
		}
		p.pos++
	}
	return "", p.errorf("unterminated DOCTYPE internal subset")
}

func (p *parser) parseElement() (*Node, error) {
	if err := p.expect("<"); err != nil {
		return nil, err
	}
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	elem := NewElement(name)
	for {
		p.skipSpace()
		if p.eof() {
			return nil, p.errorf("unterminated start tag <%s", name)
		}
		c := p.peek()
		if c == '>' {
			p.pos++
			break
		}
		if c == '/' {
			if err := p.expect("/>"); err != nil {
				return nil, err
			}
			return elem, nil
		}
		attrName, err := p.parseName()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect("="); err != nil {
			return nil, err
		}
		p.skipSpace()
		val, err := p.parseAttrValue()
		if err != nil {
			return nil, err
		}
		if _, dup := elem.Attr(attrName); dup {
			return nil, p.errorf("duplicate attribute %q on <%s>", attrName, name)
		}
		elem.Attrs = append(elem.Attrs, Attr{Name: attrName, Value: val})
	}
	if err := p.parseContent(elem); err != nil {
		return nil, err
	}
	// parseContent stops at "</".
	if err := p.expect("</"); err != nil {
		return nil, err
	}
	endName, err := p.parseName()
	if err != nil {
		return nil, err
	}
	if endName != name {
		return nil, p.errorf("mismatched end tag: <%s> closed by </%s>", name, endName)
	}
	p.skipSpace()
	if err := p.expect(">"); err != nil {
		return nil, err
	}
	return elem, nil
}

func (p *parser) parseAttrValue() (string, error) {
	q := p.peek()
	if q != '"' && q != '\'' {
		return "", p.errorf("expected quoted attribute value")
	}
	p.pos++
	start := p.pos
	for !p.eof() && p.src[p.pos] != q {
		if p.src[p.pos] == '<' {
			return "", p.errorf("'<' in attribute value")
		}
		p.pos++
	}
	if p.eof() {
		return "", p.errorf("unterminated attribute value")
	}
	raw := p.src[start:p.pos]
	p.pos++
	return p.expandEntities(raw)
}

// parseContent parses element content (text, children, CDATA, comments,
// PIs) into parent, stopping before an end tag or at end of input.
func (p *parser) parseContent(parent *Node) error {
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			parent.AppendText(text.String())
			text.Reset()
		}
	}
	for !p.eof() {
		c := p.src[p.pos]
		if c == '<' {
			rest := p.src[p.pos:]
			switch {
			case strings.HasPrefix(rest, "</"):
				flush()
				return nil
			case strings.HasPrefix(rest, "<!--"):
				if err := p.skipComment(); err != nil {
					return err
				}
			case strings.HasPrefix(rest, "<![CDATA["):
				end := strings.Index(rest[9:], "]]>")
				if end < 0 {
					return p.errorf("unterminated CDATA section")
				}
				text.WriteString(rest[9 : 9+end])
				p.pos += 9 + end + 3
			case strings.HasPrefix(rest, "<?"):
				if err := p.skipPI(); err != nil {
					return err
				}
			default:
				flush()
				child, err := p.parseElement()
				if err != nil {
					return err
				}
				parent.Append(child)
			}
			continue
		}
		if c == '&' {
			s, err := p.parseEntity()
			if err != nil {
				return err
			}
			text.WriteString(s)
			continue
		}
		text.WriteByte(c)
		p.pos++
	}
	flush()
	return nil
}

// parseEntity decodes a character or predefined entity reference starting
// at '&'.
func (p *parser) parseEntity() (string, error) {
	end := strings.IndexByte(p.src[p.pos:], ';')
	if end < 0 || end > 12 {
		return "", p.errorf("unterminated entity reference")
	}
	ref := p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1
	return decodeEntity(ref, p)
}

func decodeEntity(ref string, p *parser) (string, error) {
	switch ref {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "quot":
		return `"`, nil
	case "apos":
		return "'", nil
	}
	if strings.HasPrefix(ref, "#") {
		var n int64
		var err error
		if strings.HasPrefix(ref, "#x") || strings.HasPrefix(ref, "#X") {
			n, err = strconv.ParseInt(ref[2:], 16, 32)
		} else {
			n, err = strconv.ParseInt(ref[1:], 10, 32)
		}
		if err != nil || n < 0 || n > 0x10FFFF {
			return "", p.errorf("invalid character reference &%s;", ref)
		}
		return string(rune(n)), nil
	}
	return "", p.errorf("unknown entity &%s;", ref)
}

// expandEntities decodes entity references in an attribute value.
func (p *parser) expandEntities(raw string) (string, error) {
	if !strings.Contains(raw, "&") {
		return raw, nil
	}
	var sb strings.Builder
	for i := 0; i < len(raw); {
		if raw[i] != '&' {
			sb.WriteByte(raw[i])
			i++
			continue
		}
		end := strings.IndexByte(raw[i:], ';')
		if end < 0 {
			return "", p.errorf("unterminated entity in attribute value")
		}
		s, err := decodeEntity(raw[i+1:i+end], p)
		if err != nil {
			return "", err
		}
		sb.WriteString(s)
		i += end + 1
	}
	return sb.String(), nil
}
