package xmltree

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	doc, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return doc
}

func TestParseSimpleElement(t *testing.T) {
	doc := mustParse(t, `<a>hello</a>`)
	if doc.Root.Name != "a" {
		t.Errorf("root name = %q, want a", doc.Root.Name)
	}
	if got := doc.Root.InnerText(); got != "hello" {
		t.Errorf("inner text = %q, want hello", got)
	}
}

func TestParseNestedElements(t *testing.T) {
	doc := mustParse(t, `<a><b><c>x</c></b><b>y</b></a>`)
	bs := doc.Root.ChildrenNamed("b")
	if len(bs) != 2 {
		t.Fatalf("got %d b children, want 2", len(bs))
	}
	if bs[0].FirstChildNamed("c") == nil {
		t.Error("first b should contain c")
	}
	if got := bs[1].InnerText(); got != "y" {
		t.Errorf("second b text = %q, want y", got)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := mustParse(t, `<a x="1" y='two' z="a&amp;b"></a>`)
	for _, tc := range []struct{ name, want string }{
		{"x", "1"}, {"y", "two"}, {"z", "a&b"},
	} {
		got, ok := doc.Root.Attr(tc.name)
		if !ok || got != tc.want {
			t.Errorf("attr %s = %q,%v want %q", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := doc.Root.Attr("missing"); ok {
		t.Error("missing attribute reported present")
	}
}

func TestParseSelfClosing(t *testing.T) {
	doc := mustParse(t, `<a><b/><c x="1"/></a>`)
	if len(doc.Root.Children) != 2 {
		t.Fatalf("got %d children, want 2", len(doc.Root.Children))
	}
	if v, _ := doc.Root.Children[1].Attr("x"); v != "1" {
		t.Errorf("c@x = %q, want 1", v)
	}
}

func TestParseEntities(t *testing.T) {
	doc := mustParse(t, `<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</a>`)
	want := `<tag> & "q" 'a' AB`
	if got := doc.Root.InnerText(); got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
}

func TestParseCDATA(t *testing.T) {
	doc := mustParse(t, `<a><![CDATA[<not & parsed>]]></a>`)
	if got := doc.Root.InnerText(); got != "<not & parsed>" {
		t.Errorf("text = %q", got)
	}
}

func TestParseCommentsAndPIs(t *testing.T) {
	doc := mustParse(t, `<?xml version="1.0"?><!-- head --><a>x<!-- in -->y<?pi data?></a><!-- tail -->`)
	if got := doc.Root.InnerText(); got != "xy" {
		t.Errorf("text = %q, want xy", got)
	}
}

func TestParseDoctype(t *testing.T) {
	src := `<!DOCTYPE play [
<!ELEMENT play (act+)>
<!ELEMENT act (#PCDATA)>
]><play><act>one</act></play>`
	doc := mustParse(t, src)
	if doc.DoctypeName != "play" {
		t.Errorf("doctype name = %q, want play", doc.DoctypeName)
	}
	if !strings.Contains(doc.InternalSubset, "<!ELEMENT act (#PCDATA)>") {
		t.Errorf("internal subset missing element decl: %q", doc.InternalSubset)
	}
}

func TestParseDoctypeExternalID(t *testing.T) {
	doc := mustParse(t, `<!DOCTYPE html SYSTEM "http://example.com/x.dtd"><html></html>`)
	if doc.DoctypeName != "html" {
		t.Errorf("doctype name = %q", doc.DoctypeName)
	}
	if doc.InternalSubset != "" {
		t.Errorf("internal subset = %q, want empty", doc.InternalSubset)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                     // empty
		`<a>`,                  // unterminated
		`<a></b>`,              // mismatched
		`<a x=1></a>`,          // unquoted attr
		`<a x="1" x="2"></a>`,  // duplicate attr
		`<a>&unknown;</a>`,     // unknown entity
		`<a><![CDATA[x]]</a>`,  // bad cdata
		`<a></a><b></b>`,       // two roots
		`<a attr="x<y"></a>`,   // < in attribute
		`<a>&#xZZ;</a>`,        // bad char ref
		`<!DOCTYPE a [<x><a/>`, // unterminated internal subset
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("<a>\n<b>\n</c>\n</a>")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

func TestParseFragment(t *testing.T) {
	nodes, err := ParseFragment(`<s>a</s><s>b</s>text`)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("got %d nodes, want 3", len(nodes))
	}
	if nodes[0].Name != "s" || nodes[2].Text != "text" {
		t.Errorf("unexpected fragment nodes: %+v", nodes)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	src := `<a x="1&amp;2"><b>hi &amp; bye</b><c></c>tail</a>`
	doc := mustParse(t, src)
	out := Serialize(doc.Root)
	doc2 := mustParse(t, out)
	if Serialize(doc2.Root) != out {
		t.Errorf("serialize not stable: %q vs %q", out, Serialize(doc2.Root))
	}
}

func TestSerializedSizeMatches(t *testing.T) {
	src := `<a x="v&quot;"><b>one &lt; two</b><c/><d k="1" l="2">z</d></a>`
	doc := mustParse(t, src)
	s := Serialize(doc.Root)
	if got := SerializedSize(doc.Root); got != len(s) {
		t.Errorf("SerializedSize = %d, want %d", got, len(s))
	}
}

func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !validUTF8NoControl(s) {
			return true
		}
		doc, err := Parse("<a>" + EscapeText(s) + "</a>")
		if err != nil {
			return false
		}
		return doc.Root.InnerText() == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttrEscapeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !validUTF8NoControl(s) {
			return true
		}
		doc, err := Parse(`<a v="` + EscapeAttr(s) + `"></a>`)
		if err != nil {
			return false
		}
		v, _ := doc.Root.Attr("v")
		return v == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// validUTF8NoControl filters inputs the XML spec disallows in documents.
func validUTF8NoControl(s string) bool {
	for _, r := range s {
		if r == 0xFFFD || r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
			return false
		}
	}
	return true
}

func TestNodeHelpers(t *testing.T) {
	doc := mustParse(t, `<p><q><r>1</r></q><q><r>2</r><r>3</r></q></p>`)
	if got := len(doc.Root.Descendants("r")); got != 3 {
		t.Errorf("Descendants(r) = %d, want 3", got)
	}
}

func TestClone(t *testing.T) {
	doc := mustParse(t, `<a x="1"><b>t</b></a>`)
	cp := doc.Root.Clone()
	cp.SetAttr("x", "2")
	cp.Children[0].Children[0].Text = "changed"
	if v, _ := doc.Root.Attr("x"); v != "1" {
		t.Error("clone shares attrs with original")
	}
	if doc.Root.InnerText() != "t" {
		t.Error("clone shares children with original")
	}
	if cp.Children[0].Parent != cp {
		t.Error("clone children have wrong parent")
	}
}

func TestSetAttrReplaces(t *testing.T) {
	n := NewElement("e")
	n.SetAttr("k", "1")
	n.SetAttr("k", "2")
	if len(n.Attrs) != 1 {
		t.Fatalf("got %d attrs, want 1", len(n.Attrs))
	}
	if v, _ := n.Attr("k"); v != "2" {
		t.Errorf("k = %q, want 2", v)
	}
}

func TestWalkSkipsSubtree(t *testing.T) {
	doc := mustParse(t, `<a><skip><inner/></skip><keep/></a>`)
	var visited []string
	doc.Root.Walk(func(n *Node) bool {
		if n.IsElement() {
			visited = append(visited, n.Name)
		}
		return n.Name != "skip"
	})
	want := "a,skip,keep"
	if got := strings.Join(visited, ","); got != want {
		t.Errorf("visited %q, want %q", got, want)
	}
}

func TestDeeplyNestedDocument(t *testing.T) {
	depth := 400
	src := strings.Repeat("<d>", depth) + "x" + strings.Repeat("</d>", depth)
	doc := mustParse(t, src)
	n := doc.Root
	count := 1
	for len(n.ChildElements()) > 0 {
		n = n.ChildElements()[0]
		count++
	}
	if count != depth {
		t.Errorf("depth = %d, want %d", count, depth)
	}
}

func TestWhitespaceOnlyTextPreserved(t *testing.T) {
	doc := mustParse(t, "<a>  <b>x</b>  </a>")
	if len(doc.Root.Children) != 3 {
		t.Fatalf("got %d children, want 3 (ws,b,ws)", len(doc.Root.Children))
	}
}
