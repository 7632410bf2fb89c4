package xadt

import (
	"strings"

	"repro/internal/xmltree"
)

// The tree evaluator the methods used before they ran on stored bytes:
// decode the fragment to xmltree nodes, walk them, encode the picked
// nodes in the input's format. It is the reference the scanner is held
// to.

func treeGetElm(in Value, rootElm, searchElm, searchKey string, level int) (Value, error) {
	nodes, err := in.Nodes()
	if err != nil {
		return Value{}, err
	}
	var out []*xmltree.Node
	forEachElement(nodes, func(n *xmltree.Node) {
		if n.Name == rootElm && matchesElm(n, searchElm, searchKey, level) {
			out = append(out, n)
		}
	})
	return Encode(out, in.Format()), nil
}

func matchesElm(root *xmltree.Node, searchElm, searchKey string, level int) bool {
	if searchElm == "" {
		return searchKey == "" || strings.Contains(root.InnerText(), searchKey)
	}
	found := false
	var visit func(n *xmltree.Node, depth int)
	visit = func(n *xmltree.Node, depth int) {
		if found {
			return
		}
		if n.Name == searchElm && (searchKey == "" || strings.Contains(n.InnerText(), searchKey)) {
			found = true
			return
		}
		if level > 0 && depth >= level {
			return
		}
		for _, c := range n.Children {
			if c.IsElement() {
				visit(c, depth+1)
			}
		}
	}
	visit(root, 0)
	return found
}

func treeFindKeyInElm(in Value, searchElm, searchKey string) (bool, error) {
	nodes, err := in.Nodes()
	if err != nil {
		return false, err
	}
	found := false
	forEachElement(nodes, func(n *xmltree.Node) {
		if (searchElm == "" || n.Name == searchElm) &&
			(searchKey == "" || strings.Contains(n.InnerText(), searchKey)) {
			found = true
		}
	})
	return found, nil
}

func treeGetElmIndex(in Value, parentElm, childElm string, startPos, endPos int) (Value, error) {
	nodes, err := in.Nodes()
	if err != nil {
		return Value{}, err
	}
	var out []*xmltree.Node
	pick := func(children []*xmltree.Node) {
		pos := 0
		for _, c := range children {
			if c.Name != childElm {
				continue
			}
			pos++
			if pos >= startPos && pos <= endPos {
				out = append(out, c)
			}
		}
	}
	if parentElm == "" {
		pick(nodes)
	} else {
		forEachElement(nodes, func(n *xmltree.Node) {
			if n.Name == parentElm {
				pick(n.Children)
			}
		})
	}
	return Encode(out, in.Format()), nil
}

func treeUnnest(in Value, tag string) ([]Value, error) {
	nodes, err := in.Nodes()
	if err != nil {
		return nil, err
	}
	var out []Value
	forEachElement(nodes, func(n *xmltree.Node) {
		if n.Name == tag {
			out = append(out, Encode([]*xmltree.Node{n}, in.Format()))
		}
	})
	return out, nil
}

func treeInnerText(in Value) (string, error) {
	nodes, err := in.Nodes()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, n := range nodes {
		sb.WriteString(n.InnerText())
	}
	return sb.String(), nil
}

// forEachElement visits every element in the fragment in document order,
// including nested ones.
func forEachElement(nodes []*xmltree.Node, fn func(*xmltree.Node)) {
	for _, n := range nodes {
		n.Walk(func(d *xmltree.Node) bool {
			if d.IsElement() {
				fn(d)
			}
			return true
		})
	}
}
