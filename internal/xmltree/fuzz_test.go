package xmltree

import "testing"

// FuzzParseDocument feeds the document parser arbitrary text. Parse never
// panics and returns exactly one of a document and an error; an accepted
// document's serialization re-parses, and serializing that parse again
// reproduces the same text.
func FuzzParseDocument(f *testing.F) {
	for _, s := range []string{
		`<a>hello</a>`,
		`<?xml version="1.0"?><!-- c --><a x="1" y='two'><b/><c>t&amp;u&#65;&#x42;</c></a>`,
		`<!DOCTYPE PLAY [<!ELEMENT PLAY (TITLE)><!ELEMENT TITLE (#PCDATA)>]><PLAY><TITLE>Hamlet</TITLE></PLAY>`,
		`<!DOCTYPE PLAY SYSTEM "play.dtd"><PLAY><ACT><SCENE><SPEECH><SPEAKER>HAMLET</SPEAKER><LINE>To be<STAGEDIR>Aside</STAGEDIR> or not</LINE></SPEECH></SCENE></ACT></PLAY>`,
		"<a>\n  <b attr=\"&lt;&gt;&quot;&apos;\">mixed <i>text</i> tail</b>\r\n</a>",
		`<a><![CDATA[raw <text>]]></a>`,
		`<a><?pi data?>x</a>`,
		`<a>`, `<a></b>`, `<a>&bogus;</a>`, `text`, ``, `<a/><b/>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		doc, err := Parse(s)
		if (doc == nil) == (err == nil) {
			t.Fatalf("Parse returned document %v and error %v", doc, err)
		}
		if err != nil {
			return
		}
		if doc.Root == nil {
			t.Fatal("accepted document has no root")
		}
		out := Serialize(doc.Root)
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("serialization %q does not re-parse: %v", out, err)
		}
		if out2 := Serialize(again.Root); out2 != out {
			t.Fatalf("serialization is not stable:\nfirst:  %q\nsecond: %q", out, out2)
		}
	})
}
