package xadt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/xmltree"
)

func TestFindKeyRawBasics(t *testing.T) {
	v := mustParse(`<LINE>my dear friend</LINE><LINE>good &amp; night</LINE>`+
		`<LINE>nested <STAGEDIR>Rising</STAGEDIR> text</LINE>`, Raw)
	cases := []struct {
		elm, key string
		want     bool
	}{
		{"LINE", "friend", true},
		{"LINE", "ghost", false},
		{"LINE", "", true},
		{"STAGEDIR", "Rising", true},
		{"STAGEDIR", "Falling", false},
		{"GHOST", "", false},
		{"LINE", "good & night", true},  // escape decoding
		{"LINE", "nested  text", false}, // tags are boundaries, not spaces
		{"LINE", "Rising", true},        // nested element text is content
		{"LIN", "", false},              // prefix of a longer tag name
	}
	for _, tc := range cases {
		if got, err := FindKeyInElm(v, tc.elm, tc.key); err != nil || got != tc.want {
			t.Errorf("FindKeyInElm(%q, %q) = %v, %v; want %v", tc.elm, tc.key, got, err, tc.want)
		}
	}
}

func TestFindKeyRawNestedSameName(t *testing.T) {
	v := mustParse(`<d>outer <d>inner key</d> tail</d>`, Raw)
	for key, want := range map[string]bool{"inner key": true, "tail": true, "missing": false} {
		if got, err := FindKeyInElm(v, "d", key); err != nil || got != want {
			t.Errorf("FindKeyInElm(d, %q) = %v, %v; want %v", key, got, err, want)
		}
	}
}

func TestFindKeyRawAttributesIgnored(t *testing.T) {
	v := mustParse(`<author AuthorPosition="7">Ann</author>`, Raw)
	if got, _ := FindKeyInElm(v, "author", "7"); got {
		t.Error("attribute values are not element content")
	}
	if got, _ := FindKeyInElm(v, "author", "Ann"); !got {
		t.Error("content not found")
	}
}

// TestFindKeyRawMatchesTreePath checks FindKeyInElm on Raw and Compressed
// values against the tree oracle on randomized fragments.
func TestFindKeyRawMatchesTreePath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tags := []string{"a", "b", "ab", "LINE"}
	words := []string{"friend", "love", "night", "x & y", "<k>"}
	for trial := 0; trial < 300; trial++ {
		var build func(depth int) *xmltree.Node
		build = func(depth int) *xmltree.Node {
			n := xmltree.NewElement(tags[rng.Intn(len(tags))])
			for i := rng.Intn(3); i > 0; i-- {
				if depth < 3 && rng.Intn(2) == 0 {
					n.Append(build(depth + 1))
				} else {
					n.AppendText(words[rng.Intn(len(words))])
				}
			}
			return n
		}
		nodes := []*xmltree.Node{build(0), build(0)}
		elm, key := tags[rng.Intn(len(tags))], words[rng.Intn(len(words))]
		for _, f := range []Format{Raw, Compressed} {
			v := Encode(nodes, f)
			got, err := FindKeyInElm(v, elm, key)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := treeFindKeyInElm(v, elm, key); got != want {
				t.Fatalf("trial %d %v: scan %v != tree %v for elm=%q key=%q fragment=%q",
					trial, f, got, want, elm, key, xmltree.SerializeAll(nodes))
			}
		}
	}
}

func TestTextContentContains(t *testing.T) {
	cases := []struct {
		markup, key string
		want        bool
	}{
		{"plain text", "text", true},
		{"<a>inside</a>", "inside", true},
		{"<a>in</a>side", "inside", true}, // adjacent text runs concatenate, as in InnerText
		{"a &lt; b", "a < b", true},
		{`<tag attr="key">x</tag>`, "key", false},
		{"anything", "", true},
		{"ab", "abc", false},
	}
	for _, tc := range cases {
		v := mustParse(tc.markup, Raw)
		if got := containsText(v.Bytes(), 1, v.Len(), tc.key); got != tc.want {
			t.Errorf("containsText(%q, %q) = %v, want %v", tc.markup, tc.key, got, tc.want)
		}
	}
}

// Character references in a VARCHAR argument are decoded when Parse
// encodes it, so the scanner sees the characters themselves.
func TestTextContentContainsNumericRefs(t *testing.T) {
	for _, src := range []string{"<LINE>caf&#233; life</LINE>", "<LINE>caf&#xE9; life</LINE>"} {
		if got, err := FindKeyInElm(mustParse(src, Raw), "LINE", "café life"); err != nil || !got {
			t.Errorf("FindKeyInElm on %q = %v, %v", src, got, err)
		}
	}
	if got, err := FindKeyInElm(mustParse("<LINE>A&#x26;B</LINE>", Raw), "LINE", "A&B"); err != nil || !got {
		t.Errorf("hex amp reference: %v, %v", got, err)
	}
}

func mustParse(s string, f Format) Value {
	v, err := Parse(s, f)
	if err != nil {
		panic(err)
	}
	return v
}

func TestRawScanPerformanceSanity(t *testing.T) {
	// Smoke test on a large fragment (no timing assertion).
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		sb.WriteString("<LINE>some ordinary text here</LINE>")
	}
	sb.WriteString("<LINE>the friend appears</LINE>")
	v, err := Parse(sb.String(), Raw)
	if err != nil {
		t.Fatal(err)
	}
	found, err := FindKeyInElm(v, "LINE", "friend")
	if err != nil || !found {
		t.Errorf("found = %v, %v", found, err)
	}
}

// TestScannerRejectsWhatEncodersNeverWrite pins the accepted grammar:
// markup the tree parser reads but no encoder writes is an error.
func TestScannerRejectsWhatEncodersNeverWrite(t *testing.T) {
	raw := []string{
		"<a/>", "<a>x</a >", "<a b='v'>x</a>", "<a  b=\"v\">x</a>", `<a b = "v">x</a>`,
		"<a>x<!-- c --></a>", "<a><![CDATA[x]]></a>", "<a><?pi?></a>",
		"<a>&apos;</a>", "<a>&#65;</a>", "<a>&quot;</a>", "<a>x > y</a>", `<a b="&#65;">x</a>`,
		`<a b="v" b="w">x</a>`, "<a>x</b>", "<a>x", "</a>", "<1>x</1>",
	}
	for _, s := range raw {
		var w scratch
		if err := w.scan(append([]byte{byte(Raw), 0}, s...), &w.t); err == nil {
			t.Errorf("Raw %q accepted", s)
		}
	}
	dict := func(body string, names ...string) []byte {
		b := []byte{byte(Compressed), 0, byte(len(names))}
		for _, n := range names {
			b = append(append(b, byte(len(n))), n...)
		}
		return append(b, body...)
	}
	for _, b := range [][]byte{
		dict("<1>x</1>", "a", "b"),             // codes out of first-appearance order
		dict("<0>x</0>", "a", "b"),             // unused dictionary entry
		dict("<0><1>x</1></0>", "a", "a"),      // duplicate name
		dict("<0>x</0>", "a b"),                // not a name
		dict("<00>x</00>", "a"),                // leading zero
		dict(`<0 1=x">y</0>`, "a", "b"),        // unquoted attribute
		dict(`<0 1="v" 1="w">y</0>`, "a", "b"), // duplicate attribute
	} {
		var w scratch
		if err := w.scan(b, &w.t); err == nil {
			t.Errorf("%q accepted", b)
		}
	}
}

// TestMethodsKeepInputFormat pins the output-format rule: every method
// returns values in its input's storage format.
func TestMethodsKeepInputFormat(t *testing.T) {
	for _, f := range allFormats {
		for _, v := range []Value{Encode(fragment(t, speechFrag), f)} {
			var outs []Value
			for _, call := range []func() (Value, error){
				func() (Value, error) { return GetElm(v, "LINE", "", "", 0) },
				func() (Value, error) { return GetElm(v, "GHOST", "", "", 0) },
				func() (Value, error) { return GetElmIndex(v, "SPEECH", "LINE", 1, 2) },
				func() (Value, error) { return GetElmIndex(v, "", "SPEECH", 1, 1) },
			} {
				out, err := call()
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, out)
			}
			unnested, err := Unnest(v, "LINE")
			if err != nil || len(unnested) != 3 {
				t.Fatalf("%v: Unnest = %d values, %v", f, len(unnested), err)
			}
			for i, out := range append(outs, unnested...) {
				if out.Format() != f {
					t.Errorf("%v input: output %d has format %v", f, i, out.Format())
				}
			}
		}
	}
}

// TestWarmCallAllocations guards the allocation budget of method calls
// on a fragment already in the cache: FindKeyInElm allocates nothing,
// GetElm only its result, Unnest only its result slice (the results are
// references). A warm Walk allocates nothing either.
func TestWarmCallAllocations(t *testing.T) {
	for _, f := range allFormats {
		v := Encode(fragment(t, speechFrag), f)
		e := &Evaluator{Cache: NewCache(0)}
		check := func(name string, max float64, call func()) {
			call() // warm the cache
			if got := testing.AllocsPerRun(100, call); got > max {
				t.Errorf("%v %s: %.1f allocations per call, want <= %v", f, name, got, max)
			}
		}
		check("FindKeyInElm", 0, func() { e.FindKeyInElm(v, "LINE", "prince") })
		check("GetElm", 1, func() { e.GetElm(v, "LINE", "LINE", "night", 0) })
		check("Unnest", 1, func() { e.Unnest(v, "LINE") })
		var k Walker
		var text []byte
		check("Walk", 0, func() { text, _ = k.Walk(v.Bytes(), text[:0], func([]byte, int) {}) })
	}
}

// FuzzRawScanEntities drives the scanner with arbitrary bytes as a Raw
// payload, element names and keys. No input may panic; malformed markup
// is an error, and markup the scanner accepts, stored with the table it
// scans to, passes Check.
func FuzzRawScanEntities(f *testing.F) {
	f.Add("<a>hello &amp; goodbye</a>", "a", "hello")
	f.Add("<a><b k=\"v\">x&#65;y</b><b>z</b></a>", "b", "xAy")
	f.Add("<a>text &#x3C;tag&#x3E; more</a>", "a", "<tag>")
	f.Add("<a>unterminated &amp", "a", "unterminated")
	f.Add("<a/><a>two</a>", "a", "two")
	f.Add("<a><a>nested</a></a>", "a", "nested")
	f.Add("&bogus;&#xZZ;&#99999999999;", "e", "k")
	f.Add("<e>\xff\xfe</e>", "e", "\xff")
	f.Fuzz(func(t *testing.T, markup, elm, key string) {
		data := append([]byte{byte(Raw), 0}, markup...)
		v := withTable(data)
		var w scratch
		var k Walker
		if err := k.Check(v.Bytes()); err != nil && w.scan(data, &w.t) == nil {
			t.Fatalf("scanned table of %q fails Check: %v", markup, err)
		}
		callAll(v, elm, elm, key, 1, 2, 1)
	})
}

// callAll runs every method on v, with and without a cache.
func callAll(v Value, a, b, key string, lo, hi, level int) {
	for _, e := range []*Evaluator{nil, {Cache: NewCache(0)}} {
		e.GetElm(v, a, b, key, level)
		e.FindKeyInElm(v, a, key)
		e.GetElmIndex(v, a, b, lo, hi)
		e.Unnest(v, a)
		e.InnerText(v)
	}
	v.Text()
}

// FuzzScanVsTree holds the scanner and the table readers to the tree
// oracle. The scanner never panics; it accepts every value the encoders
// write for a parsed fragment, in every format, with the table they
// write; and whenever a value passes Check, Nodes accepts it too and the
// four methods and the inner text are identical to the tree evaluator's,
// byte for byte. Every method on each reference Unnest returns answers
// as on its materialised bytes.
func FuzzScanVsTree(f *testing.F) {
	for _, s := range []string{
		"<a>hello &amp; goodbye</a>", "<a><b k=\"v\">x&#65;y</b><b>z</b></a>",
		"<a>text &#x3C;tag&#x3E; more</a>", "<a/><a>two</a>", "<a><a>nested</a></a>",
		"<e>\xff\xfe</e>", speechFrag, "plain <a>x</a> text",
		`<S><SPEAKER>x</SPEAKER><LINE>one</LINE><NOTE>n</NOTE><LINE>two</LINE></S>`,
	} {
		f.Add(s, "a", "b", "x", uint8(1), uint8(2), int8(0))
	}
	play := datagen.GeneratePlays(datagen.PlayConfig{Plays: 1, Seed: 1})[0].Root
	for _, sp := range play.Descendants("SPEECH")[:4] {
		f.Add(xmltree.SerializeAll(sp.Children), "LINE", "STAGEDIR", "love", uint8(2), uint8(2), int8(0))
	}
	sigmod := datagen.GenerateSigmod(datagen.SigmodConfig{
		Documents: 1, Seed: 1, SectionsPerDoc: [2]int{2, 2}, ArticlesPerSection: [2]int{2, 3}, AuthorsPerArticle: [2]int{1, 3},
	})[0].Root
	for _, tu := range sigmod.Descendants("sListTuple")[:2] {
		f.Add(xmltree.Serialize(tu), "sListTuple", "author", "a", uint8(1), uint8(2), int8(2))
		f.Add(xmltree.Serialize(tu), "authors", "author", "", uint8(2), uint8(2), int8(-1))
	}
	// Multi-byte letters, digits of other scripts, invalid UTF-8.
	f.Add("<LINE>καλημέρα ٣٤ 東京</LINE><LINE>x\xffy \xe2\x82 z<S>\xed\xa0\x80</S></LINE>", "LINE", "S", "٣٤", uint8(1), uint8(2), int8(0))
	f.Fuzz(func(t *testing.T, markup, a, b, key string, lo, hi uint8, level int8) {
		vals := []Value{FromBytes([]byte(markup))}
		for _, fm := range allFormats {
			vals = append(vals, withTable(append([]byte{byte(fm), 0}, markup...)))
		}
		if nodes, err := xmltree.ParseFragment(markup); err == nil {
			for _, fm := range allFormats {
				v := Encode(nodes, fm)
				var k Walker
				if err := k.Check(v.Bytes()); err != nil {
					t.Fatalf("Check rejects the %v encoding of %q: %v", fm, markup, err)
				}
				vals = append(vals, v)
			}
		}
		for _, v := range vals {
			callAll(v, a, b, key, int(lo), int(hi), int(level))
			agreeWithTree(t, v, a, b, key, int(lo), int(hi), int(level))
		}
	})
}

func agreeWithTree(t *testing.T, v Value, a, b, key string, lo, hi, level int) {
	t.Helper()
	var k Walker
	if k.Check(v.Bytes()) != nil {
		return
	}
	nodes, err := v.Nodes()
	if err != nil {
		t.Fatalf("scanner accepts %q, Nodes rejects it: %v", v.Bytes(), err)
	}
	same := func(what string, got, want Value, gerr, werr error) {
		t.Helper()
		if gerr != nil || werr != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s on %q: scan %q (%v), tree %q (%v)", what, v.Bytes(), got.Bytes(), gerr, want.Bytes(), werr)
		}
	}
	if text, err := v.Text(); err != nil || text != xmltree.SerializeAll(nodes) {
		t.Fatalf("Text of %q = %q, %v; want %q", v.Bytes(), text, err, xmltree.SerializeAll(nodes))
	}
	// Walk reports the elements of the Nodes preorder, with their depths,
	// and the concatenated InnerText.
	var want []string
	var visit func(n *xmltree.Node, depth int)
	visit = func(n *xmltree.Node, depth int) {
		if n.IsElement() {
			want = append(want, fmt.Sprintf("%d %s", depth, n.Name))
			for _, c := range n.Children {
				visit(c, depth+1)
			}
		}
	}
	for _, n := range nodes {
		visit(n, 1)
	}
	wtext, _ := treeInnerText(v)
	for pass := 0; pass < 2; pass++ { // the second pass reuses the Walker
		var got []string
		text, err := k.Walk(v.Bytes(), nil, func(name []byte, depth int) {
			got = append(got, fmt.Sprintf("%d %s", depth, name))
		})
		if err != nil || !slices.Equal(got, want) || string(text) != wtext {
			t.Fatalf("Walk of %q = %q, %q, %v; want %q, %q", v.Bytes(), got, text, err, want, wtext)
		}
	}
	for _, e := range []*Evaluator{nil, {Cache: NewCache(0)}} {
		for pass := 0; pass < 2; pass++ { // the second pass hits the cache
			got, gerr := e.GetElm(v, a, b, key, level)
			want, werr := treeGetElm(v, a, b, key, level)
			same("GetElm", got, want, gerr, werr)
			if b != "" {
				got, gerr = e.GetElmIndex(v, a, b, lo, hi)
				want, werr = treeGetElmIndex(v, a, b, lo, hi)
				same("GetElmIndex", got, want, gerr, werr)
			}
			if a != "" || key != "" {
				found, gerr := e.FindKeyInElm(v, a, key)
				wfound, werr := treeFindKeyInElm(v, a, key)
				if gerr != nil || werr != nil || found != wfound {
					t.Fatalf("FindKeyInElm(%q, %q) on %q: scan %v (%v), tree %v (%v)", a, key, v.Bytes(), found, gerr, wfound, werr)
				}
			}
			gotU, gerr := e.Unnest(v, a)
			wantU, werr := treeUnnest(v, a)
			if len(gotU) != len(wantU) {
				t.Fatalf("Unnest(%q) on %q: %d values, tree %d", a, v.Bytes(), len(gotU), len(wantU))
			}
			for i := range gotU {
				same("Unnest", gotU[i], wantU[i], gerr, werr)
				agreeWithMaterialized(t, gotU[i], e)
			}
			text, gerr := e.InnerText(v)
			wtext, werr := treeInnerText(v)
			if gerr != nil || werr != nil || text != wtext {
				t.Fatalf("InnerText of %q: scan %q (%v), tree %q (%v)", v.Bytes(), text, gerr, wtext, werr)
			}
		}
	}
}

// withTable returns the value data, whose element table is empty, with
// the table the scanner builds from its text in place of the empty one,
// or data unchanged when the scanner rejects it.
func withTable(data []byte) Value {
	var w scratch
	if w.scan(data, &w.t) != nil {
		return FromBytes(data)
	}
	var tab []byte
	for _, e := range w.t.elems {
		tab = binary.AppendUvarint(tab, uint64(e.name))
	}
	out := appendBytes([]byte{data[0]}, tab)
	return FromBytes(append(out, data[2:]...))
}
