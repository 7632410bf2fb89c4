// Package difftest is a seeded differential-correctness harness. Each
// iteration derives a random DTD, generates documents that conform to it by
// construction, shreds them under both the Hybrid and XORator mappings, and
// executes randomly generated queries across the full configuration
// matrix — mapping × DOP × XADT fast path × XADT indexes —
// asserting that every cell returns identical rows. Any divergence is
// minimized and written to a failure artifact that replays from its seed.
package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dtd"
	"repro/internal/xmltree"
)

// maxDocDepth bounds recursive descent while generating documents: once an
// element sits deeper than this, optional and starred particles emit zero
// occurrences, so recursion in the DTD always terminates.
const maxDocDepth = 8

func elemName(i int) string { return fmt.Sprintf("E%d", i) }

// genDTD derives a random document type definition. Element E0 is never
// referenced by any content model, so it is always the unique generated
// root; low-numbered elements are containers (element, mixed, or recursive
// content), high-numbered ones are leaves (#PCDATA or EMPTY). Back-edges —
// the only source of cycles — are always optional or starred, which keeps
// document generation terminating.
func genDTD(rng *rand.Rand) string {
	n := 6 + rng.Intn(5) // elements E0..En
	leafStart := n/2 + 1
	var sb strings.Builder
	for i := 0; i <= n; i++ {
		name := elemName(i)
		switch {
		case i >= leafStart && rng.Intn(5) == 0:
			fmt.Fprintf(&sb, "<!ELEMENT %s EMPTY>\n", name)
		case i >= leafStart:
			fmt.Fprintf(&sb, "<!ELEMENT %s (#PCDATA)>\n", name)
		case rng.Intn(5) == 0: // mixed content
			k := 1 + rng.Intn(2)
			kids := pickChildren(rng, i, n, k)
			fmt.Fprintf(&sb, "<!ELEMENT %s (#PCDATA|%s)*>\n", name, strings.Join(kids, "|"))
		default:
			model := genGroup(rng, i, n, 0)
			if i > 0 && rng.Intn(4) == 0 {
				// Recursive back-edge to an equal-or-lower element,
				// never E0 and never mandatory.
				occ := "?"
				if rng.Intn(2) == 0 {
					occ = "*"
				}
				model = fmt.Sprintf("(%s, %s%s)", model, elemName(1+rng.Intn(i)), occ)
			}
			fmt.Fprintf(&sb, "<!ELEMENT %s %s>\n", name, model)
		}
		if atts := genAttlist(rng, name); atts != "" {
			sb.WriteString(atts)
		}
	}
	return sb.String()
}

// genGroup builds a sequence or choice group over higher-numbered elements,
// nesting one level deep at most. The returned string includes the
// surrounding parentheses.
func genGroup(rng *rand.Rand, i, n, depth int) string {
	k := 1 + rng.Intn(3)
	choice := rng.Intn(3) == 0
	if choice && k < 2 {
		k = 2
	}
	items := make([]string, 0, k)
	for j := 0; j < k; j++ {
		if depth == 0 && rng.Intn(5) == 0 {
			items = append(items, genGroup(rng, i, n, 1)+occSuffix(rng))
		} else {
			items = append(items, elemName(i+1+rng.Intn(n-i))+occSuffix(rng))
		}
	}
	sep := ", "
	if choice {
		sep = " | "
	}
	return "(" + strings.Join(items, sep) + ")"
}

func occSuffix(rng *rand.Rand) string {
	return [...]string{"", "", "?", "+", "*", "*"}[rng.Intn(6)]
}

// pickChildren picks k distinct element names with index > i.
func pickChildren(rng *rand.Rand, i, n, k int) []string {
	pool := rng.Perm(n - i)
	if k > len(pool) {
		k = len(pool)
	}
	out := make([]string, k)
	for j := 0; j < k; j++ {
		out[j] = elemName(i + 1 + pool[j])
	}
	return out
}

var enumValues = []string{"red", "green", "blue"}

// genAttlist emits 0-2 attribute declarations (named k0, k1) covering the
// CDATA/enumerated × required/implied/defaulted corners.
func genAttlist(rng *rand.Rand, name string) string {
	na := rng.Intn(3)
	if na == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "<!ATTLIST %s", name)
	for a := 0; a < na; a++ {
		switch rng.Intn(5) {
		case 0:
			fmt.Fprintf(&sb, " k%d CDATA #REQUIRED", a)
		case 1:
			fmt.Fprintf(&sb, " k%d CDATA #IMPLIED", a)
		case 2:
			fmt.Fprintf(&sb, " k%d CDATA \"dflt\"", a)
		case 3:
			fmt.Fprintf(&sb, " k%d (%s) \"%s\"", a,
				strings.Join(enumValues, "|"), enumValues[rng.Intn(len(enumValues))])
		default:
			fmt.Fprintf(&sb, " k%d (%s) #IMPLIED", a, strings.Join(enumValues, "|"))
		}
	}
	sb.WriteString(">\n")
	return sb.String()
}

// Word pools for generated character data. spiceWords exercise the
// serializer's escaping and the entity decoder; plain words are the
// substring-search keys the query generator samples.
var plainWords = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
	"hotel", "india", "juliet", "kilo", "lima", "mike", "november",
	"oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
	"victor", "whiskey", "xray", "yankee", "zulu", "42", "2002",
}

var spiceWords = []string{
	"a&b", "x<y", "p>q", "it's", `say "hi"`, "café", "Ωmega", "<&>",
}

func genText(rng *rand.Rand) string {
	k := 1 + rng.Intn(3)
	words := make([]string, k)
	for i := range words {
		if rng.Intn(4) == 0 {
			words[i] = spiceWords[rng.Intn(len(spiceWords))]
		} else {
			words[i] = plainWords[rng.Intn(len(plainWords))]
		}
	}
	return strings.Join(words, " ")
}

func genAttrValue(rng *rand.Rand) string { return genText(rng) }

// genDoc builds one document conforming to d, rooted at root. Content is
// produced by walking the original (pre-simplification) content model, so
// conformance holds by construction; a depth budget forces optional and
// starred particles to zero occurrences deep in the tree.
func genDoc(rng *rand.Rand, d *dtd.DTD, root string) *xmltree.Document {
	return &xmltree.Document{Root: genElem(rng, d, root, 0)}
}

func genElem(rng *rand.Rand, d *dtd.DTD, name string, depth int) *xmltree.Node {
	decl := d.Element(name)
	n := xmltree.NewElement(name)
	genAttrs(rng, decl, n)
	switch decl.Content {
	case dtd.ContentEmpty:
	case dtd.ContentPCDATA:
		if rng.Intn(8) != 0 { // occasionally leave the element empty
			n.AppendText(genText(rng))
		}
	case dtd.ContentMixed:
		genMixed(rng, d, decl, n, depth)
	case dtd.ContentChildren:
		genParticle(rng, d, decl.Model, n, depth)
	}
	return n
}

func genAttrs(rng *rand.Rand, decl *dtd.Element, n *xmltree.Node) {
	for _, a := range decl.Attrs {
		set := a.Default == dtd.DefaultRequired || rng.Intn(2) == 0
		if !set {
			continue
		}
		var v string
		switch {
		case a.Type == dtd.AttrEnum:
			v = a.Enum[rng.Intn(len(a.Enum))]
		case a.Default == dtd.DefaultFixed:
			v = a.Value
		default:
			v = genAttrValue(rng)
		}
		n.SetAttr(a.Name, v)
	}
}

// genMixed interleaves text runs with the allowed child elements of a
// mixed-content declaration.
func genMixed(rng *rand.Rand, d *dtd.DTD, decl *dtd.Element, n *xmltree.Node, depth int) {
	k := rng.Intn(4)
	if depth > maxDocDepth {
		k = 0
	}
	allowed := decl.Model.Children
	for i := 0; i < k; i++ {
		if rng.Intn(2) == 0 {
			n.AppendText(genText(rng))
		}
		if len(allowed) > 0 && rng.Intn(3) != 0 {
			c := allowed[rng.Intn(len(allowed))]
			n.Append(genElem(rng, d, c.Name, depth+1))
		}
	}
	if rng.Intn(2) == 0 {
		n.AppendText(genText(rng))
	}
}

// genParticle appends the expansion of particle p to parent.
func genParticle(rng *rand.Rand, d *dtd.DTD, p *dtd.Particle, parent *xmltree.Node, depth int) {
	deep := depth > maxDocDepth
	var count int
	switch p.Occurs {
	case dtd.One:
		count = 1
	case dtd.Opt:
		if !deep {
			count = rng.Intn(2)
		}
	case dtd.Plus:
		count = 1
		if !deep {
			count += rng.Intn(2)
		}
	case dtd.Star:
		if !deep {
			count = rng.Intn(3)
			if rng.Intn(8) == 0 {
				count += 3 + rng.Intn(5) // occasional burst of repeats
			}
		}
	}
	for rep := 0; rep < count; rep++ {
		switch p.Kind {
		case dtd.PName:
			parent.Append(genElem(rng, d, p.Name, depth+1))
		case dtd.PSeq:
			for _, c := range p.Children {
				genParticle(rng, d, c, parent, depth)
			}
		case dtd.PChoice:
			genParticle(rng, d, p.Children[rng.Intn(len(p.Children))], parent, depth)
		}
	}
}

// serializeEntities renders doc as XML, randomly spelling characters as
// named, decimal, or hexadecimal references so the round-trip through the
// parser exercises entity decoding. Escapable characters are always
// escaped; ordinary characters are occasionally written as numeric
// references too.
func serializeEntities(rng *rand.Rand, doc *xmltree.Document) string {
	var sb strings.Builder
	sb.WriteString("<?xml version=\"1.0\"?>\n")
	writeNodeEnt(rng, &sb, doc.Root)
	return sb.String()
}

func writeNodeEnt(rng *rand.Rand, sb *strings.Builder, n *xmltree.Node) {
	if n.IsText() {
		writeTextEnt(rng, sb, n.Text, false)
		return
	}
	sb.WriteByte('<')
	sb.WriteString(n.Name)
	for _, a := range n.Attrs {
		sb.WriteByte(' ')
		sb.WriteString(a.Name)
		sb.WriteString(`="`)
		writeTextEnt(rng, sb, a.Value, true)
		sb.WriteByte('"')
	}
	if len(n.Children) == 0 && rng.Intn(2) == 0 {
		sb.WriteString("/>")
		return
	}
	sb.WriteByte('>')
	for _, c := range n.Children {
		writeNodeEnt(rng, sb, c)
	}
	sb.WriteString("</")
	sb.WriteString(n.Name)
	sb.WriteByte('>')
}

func writeTextEnt(rng *rand.Rand, sb *strings.Builder, s string, inAttr bool) {
	for _, r := range s {
		switch r {
		case '<':
			sb.WriteString([...]string{"&lt;", "&#60;", "&#x3C;"}[rng.Intn(3)])
		case '&':
			sb.WriteString([...]string{"&amp;", "&#38;", "&#x26;"}[rng.Intn(3)])
		case '>':
			sb.WriteString([...]string{"&gt;", "&#62;"}[rng.Intn(2)])
		case '"':
			if inAttr {
				sb.WriteString([...]string{"&quot;", "&#34;"}[rng.Intn(2)])
			} else {
				sb.WriteByte('"')
			}
		case '\'':
			if rng.Intn(2) == 0 {
				sb.WriteString("&apos;")
			} else {
				sb.WriteByte('\'')
			}
		default:
			if rng.Intn(50) == 0 {
				if rng.Intn(2) == 0 {
					fmt.Fprintf(sb, "&#%d;", r)
				} else {
					fmt.Fprintf(sb, "&#x%X;", r)
				}
			} else {
				sb.WriteRune(r)
			}
		}
	}
}

// genDocs generates nd conforming documents, serializes each with random
// entity spellings, re-parses the text, and validates the result against d.
// The re-parsed documents are returned (they are what the stores load),
// alongside the serialized texts for failure artifacts.
func genDocs(rng *rand.Rand, d *dtd.DTD, root string, nd int) ([]*xmltree.Document, []string, error) {
	docs := make([]*xmltree.Document, 0, nd)
	texts := make([]string, 0, nd)
	for i := 0; i < nd; i++ {
		doc := genDoc(rng, d, root)
		if err := d.Validate(doc); err != nil {
			return nil, nil, fmt.Errorf("generated document %d does not conform: %w", i, err)
		}
		text := serializeEntities(rng, doc)
		reparsed, err := xmltree.Parse(text)
		if err != nil {
			return nil, nil, fmt.Errorf("generated document %d does not re-parse: %w", i, err)
		}
		if err := d.Validate(reparsed); err != nil {
			return nil, nil, fmt.Errorf("re-parsed document %d does not conform: %w", i, err)
		}
		docs = append(docs, reparsed)
		texts = append(texts, text)
	}
	return docs, texts, nil
}

// docSamples holds values observed in the generated documents; the query
// generator draws predicates from them so that filters actually select rows.
type docSamples struct {
	// texts maps element name -> trimmed direct character data (non-empty).
	texts map[string][]string
	// attrs maps element name + "\x00" + attr name -> observed values.
	attrs map[string][]string
	// count maps element name -> instance count across all documents.
	count map[string]int
}

func attrKey(elem, attr string) string { return elem + "\x00" + attr }

func collectSamples(docs []*xmltree.Document) *docSamples {
	s := &docSamples{
		texts: map[string][]string{},
		attrs: map[string][]string{},
		count: map[string]int{},
	}
	for _, doc := range docs {
		doc.Root.Walk(func(n *xmltree.Node) bool {
			if !n.IsElement() {
				return true
			}
			s.count[n.Name]++
			if t := directText(n); t != "" {
				s.texts[n.Name] = append(s.texts[n.Name], t)
			}
			for _, a := range n.Attrs {
				s.attrs[attrKey(n.Name, a.Name)] = append(s.attrs[attrKey(n.Name, a.Name)], a.Value)
			}
			return true
		})
	}
	return s
}

// directText mirrors the shredder's value extraction: the concatenated
// direct text children, trimmed.
func directText(n *xmltree.Node) string {
	var sb strings.Builder
	for _, c := range n.Children {
		if c.IsText() {
			sb.WriteString(c.Text)
		}
	}
	return strings.TrimSpace(sb.String())
}

// alnumWords splits s into maximal runs of letters and digits — the safe
// substring keys for LIKE patterns and findKeyInElm.
func alnumWords(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}
