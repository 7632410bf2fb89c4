// Package xmltree provides a lightweight XML document model, parser, and
// serializer tailored to the needs of DTD-driven shredding: element trees
// with attributes and character data, deterministic serialization, and
// fragment extraction.
//
// The parser is intentionally small: no namespaces, no external entities,
// no validation. It handles the constructs that appear in real
// DTD-conforming document corpora — elements, attributes, character data,
// CDATA sections, comments, processing instructions, numeric and the five
// predefined character references, and a DOCTYPE declaration whose internal
// subset is captured verbatim for the dtd package to parse.
package xmltree

import "strings"

// Attr is a single attribute on an element.
type Attr struct {
	Name  string
	Value string
}

// Node is a node in an XML document tree: either an element or a text run.
type Node struct {
	// Name is the element tag name; empty for text nodes.
	Name string
	// Text holds character data for text nodes.
	Text string
	// Attrs are the attributes in document order.
	Attrs []Attr
	// Children are child nodes in document order.
	Children []*Node
	// Parent is the enclosing element, nil at the root.
	Parent *Node
}

// Document is a parsed XML document.
type Document struct {
	// Root is the document element.
	Root *Node
	// DoctypeName is the name in the <!DOCTYPE name ...> declaration,
	// empty if the document has none.
	DoctypeName string
	// InternalSubset is the raw text between '[' and ']' of the DOCTYPE
	// declaration, empty if absent.
	InternalSubset string
}

// NewElement returns a new element node with the given tag name.
func NewElement(name string) *Node {
	return &Node{Name: name}
}

// NewText returns a new text node with the given character data.
func NewText(text string) *Node {
	return &Node{Text: text}
}

// IsText reports whether n is a text node.
func (n *Node) IsText() bool { return n.Name == "" }

// IsElement reports whether n is an element node.
func (n *Node) IsElement() bool { return n.Name != "" }

// Append adds child to n's child list and sets its parent pointer.
// It returns n to allow chaining during tree construction.
func (n *Node) Append(child *Node) *Node {
	child.Parent = n
	n.Children = append(n.Children, child)
	return n
}

// AppendText appends a text child containing s.
func (n *Node) AppendText(s string) *Node {
	return n.Append(NewText(s))
}

// SetAttr sets attribute name to value, replacing an existing attribute of
// the same name or appending a new one.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// ChildElements returns the element children of n, in document order.
func (n *Node) ChildElements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.IsElement() {
			out = append(out, c)
		}
	}
	return out
}

// ChildrenNamed returns the element children of n with the given tag name,
// in document order.
func (n *Node) ChildrenNamed(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// FirstChildNamed returns the first element child named name, or nil.
func (n *Node) FirstChildNamed(name string) *Node {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// InnerText returns the concatenation of all character data beneath n, in
// document order.
func (n *Node) InnerText() string {
	var sb strings.Builder
	n.appendInnerText(&sb)
	return sb.String()
}

func (n *Node) appendInnerText(sb *strings.Builder) {
	if n.IsText() {
		sb.WriteString(n.Text)
		return
	}
	for _, c := range n.Children {
		c.appendInnerText(sb)
	}
}

// Walk visits n and every descendant in document order, calling fn for
// each. If fn returns false for a node, that node's subtree is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Descendants returns all element descendants of n (not including n) with
// the given tag name, in document order.
func (n *Node) Descendants(name string) []*Node {
	var out []*Node
	for _, c := range n.Children {
		c.Walk(func(d *Node) bool {
			if d.Name == name {
				out = append(out, d)
			}
			return true
		})
	}
	return out
}

// Clone returns a deep copy of n with a nil parent.
func (n *Node) Clone() *Node {
	cp := &Node{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		cp.Attrs = make([]Attr, len(n.Attrs))
		copy(cp.Attrs, n.Attrs)
	}
	for _, c := range n.Children {
		cc := c.Clone()
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}
