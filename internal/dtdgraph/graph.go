// Package dtdgraph builds the DTD graph of Shanmugasundaram et al. over a
// simplified DTD and provides the structural analyses that the Hybrid and
// XORator mapping algorithms are defined in terms of: in-degrees,
// below-star tests, leaf classification, subtree reachability with the
// revised-graph leaf decoupling of the XORator paper (§3.2), and recursive
// strongly connected components.
package dtdgraph

import (
	"fmt"
	"sort"

	"repro/internal/dtd"
)

// Edge is a parent→child reference in the DTD graph, annotated with the
// simplified occurrence indicator of the reference.
type Edge struct {
	Parent string
	Child  string
	Occurs dtd.Occurs
}

// Graph is a DTD graph over a simplified DTD.
type Graph struct {
	// S is the simplified DTD the graph was built from.
	S *dtd.SimplifiedDTD
	// Order lists element names in declaration order.
	Order []string
	// parents maps each element to the edges arriving at it.
	parents map[string][]Edge
}

// Build constructs the DTD graph for a simplified DTD. Every element
// declared in the DTD becomes a node; each child item becomes an edge.
func Build(s *dtd.SimplifiedDTD) *Graph {
	g := &Graph{S: s, parents: map[string][]Edge{}}
	g.Order = append(g.Order, s.Order...)
	for _, name := range s.Order {
		for _, it := range s.Elements[name].Items {
			g.parents[it.Name] = append(g.parents[it.Name], Edge{
				Parent: name,
				Child:  it.Name,
				Occurs: it.Occurs,
			})
		}
	}
	return g
}

// Validate reports an error if any content model references an undeclared
// element.
func (g *Graph) Validate() error {
	for _, name := range g.Order {
		for _, it := range g.S.Elements[name].Items {
			if g.S.Element(it.Name) == nil {
				return fmt.Errorf("dtdgraph: element %s references undeclared element %s", name, it.Name)
			}
		}
	}
	return nil
}

// Items returns the child items of the named element in content order.
func (g *Graph) Items(name string) []dtd.Item {
	e := g.S.Element(name)
	if e == nil {
		return nil
	}
	return e.Items
}

// ParentNames returns the distinct parent element names of name, sorted.
func (g *Graph) ParentNames(name string) []string {
	seen := map[string]bool{}
	for _, e := range g.parents[name] {
		seen[e.Parent] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// InDegree returns the number of distinct parent elements of name.
func (g *Graph) InDegree(name string) int {
	return len(g.ParentNames(name))
}

// BelowStar reports whether any reference to name carries a Star
// indicator — i.e. the node sits directly below a "*" operator node in the
// DTD graph.
func (g *Graph) BelowStar(name string) bool {
	for _, e := range g.parents[name] {
		if e.Occurs == dtd.Star {
			return true
		}
	}
	return false
}

// IsLeaf reports whether name has no element children.
func (g *Graph) IsLeaf(name string) bool {
	e := g.S.Element(name)
	return e != nil && len(e.Items) == 0
}

// IsPCDATALeaf reports whether name is a leaf that contains character
// data. These are the nodes the revised DTD graph duplicates per parent to
// eliminate sharing (§3.2).
func (g *Graph) IsPCDATALeaf(name string) bool {
	e := g.S.Element(name)
	return e != nil && len(e.Items) == 0 && e.HasPCDATA
}

// Roots returns elements with no parents, in declaration order.
func (g *Graph) Roots() []string {
	var out []string
	for _, name := range g.Order {
		if len(g.parents[name]) == 0 {
			out = append(out, name)
		}
	}
	return out
}

// Subtree returns the set of elements reachable from name through child
// edges. name itself is a member only when it is reachable from itself —
// i.e. the element is recursive.
func (g *Graph) Subtree(name string) map[string]bool {
	seen := map[string]bool{}
	var visit func(string)
	visit = func(n string) {
		for _, it := range g.Items(n) {
			if !seen[it.Name] {
				seen[it.Name] = true
				visit(it.Name)
			}
		}
	}
	visit(name)
	return seen
}

// HasExternalLinks reports whether any descendant of name is referenced
// from outside the subtree rooted at name. Duplicated nodes — PCDATA
// leaves, which the revised DTD graph copies per parent — never count as
// externally linked. This is the test of XORator rule 1: a subtree with no
// external links can be collapsed into an XADT attribute of name's parent.
func (g *Graph) HasExternalLinks(name string) bool {
	sub := g.Subtree(name)
	if sub[name] {
		// The element reaches itself: recursion cannot be folded into a
		// fragment attribute.
		return true
	}
	for d := range sub {
		if g.IsPCDATALeaf(d) {
			continue
		}
		for _, p := range g.ParentNames(d) {
			if p != name && !sub[p] {
				return true
			}
		}
	}
	return false
}

// Recursive returns the set of elements involved in recursion: members of
// any strongly connected component of size greater than one, plus elements
// with a self-edge.
func (g *Graph) Recursive() map[string]bool {
	out := map[string]bool{}
	for _, scc := range g.SCCs() {
		if len(scc) > 1 {
			for _, n := range scc {
				out[n] = true
			}
		}
	}
	for _, name := range g.Order {
		for _, it := range g.Items(name) {
			if it.Name == name {
				out[name] = true
			}
		}
	}
	return out
}

// SCCs returns the strongly connected components of the DTD graph using
// Tarjan's algorithm, in reverse topological order. Component member lists
// are sorted.
func (g *Graph) SCCs() [][]string {
	t := &tarjan{
		g:       g,
		index:   map[string]int{},
		lowlink: map[string]int{},
		onStack: map[string]bool{},
	}
	for _, name := range g.Order {
		if _, visited := t.index[name]; !visited {
			t.strongConnect(name)
		}
	}
	for _, scc := range t.sccs {
		sort.Strings(scc)
	}
	return t.sccs
}

type tarjan struct {
	g       *Graph
	counter int
	index   map[string]int
	lowlink map[string]int
	stack   []string
	onStack map[string]bool
	sccs    [][]string
}

func (t *tarjan) strongConnect(v string) {
	t.index[v] = t.counter
	t.lowlink[v] = t.counter
	t.counter++
	t.stack = append(t.stack, v)
	t.onStack[v] = true

	for _, it := range t.g.Items(v) {
		w := it.Name
		if _, visited := t.index[w]; !visited {
			t.strongConnect(w)
			t.lowlink[v] = min(t.lowlink[v], t.lowlink[w])
		} else if t.onStack[w] {
			t.lowlink[v] = min(t.lowlink[v], t.index[w])
		}
	}

	if t.lowlink[v] == t.index[v] {
		var scc []string
		for {
			w := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.onStack[w] = false
			scc = append(scc, w)
			if w == v {
				break
			}
		}
		t.sccs = append(t.sccs, scc)
	}
}

// PathCount returns the number of distinct label paths from the given root
// to every reachable node, cutting cycles at repeated elements along a
// path. This models the Monet mapping's association tables: one table per
// distinct path. Paths to character data are counted separately when
// countCData is true (Monet stores a cdata association per path).
func (g *Graph) PathCount(root string, countCData bool) int {
	count := 0
	var visit func(name string, onPath map[string]bool)
	visit = func(name string, onPath map[string]bool) {
		count++
		e := g.S.Element(name)
		if e == nil {
			return
		}
		if countCData && e.HasPCDATA {
			count++
		}
		if countCData {
			count += len(e.Attrs)
		}
		if onPath[name] {
			return
		}
		onPath[name] = true
		for _, it := range e.Items {
			visit(it.Name, onPath)
		}
		delete(onPath, name)
	}
	visit(root, map[string]bool{})
	return count
}
