package xadt

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/testutil"
	"repro/internal/xmltree"
)

var allFormats = []Format{Raw, Compressed}

// storedFragments encodes every testutil.Fragments() value in every
// format.
func storedFragments() []Value {
	var out []Value
	for _, nodes := range testutil.Fragments() {
		for _, f := range allFormats {
			out = append(out, Encode(nodes, f))
		}
	}
	return out
}

// scanned returns an evaluator whose cache slot holds the table the
// scanner builds from v's text, so that the methods read v through it
// rather than through v's stored table.
func scanned(t *testing.T, v Value) *Evaluator {
	t.Helper()
	c := NewCache(0)
	if err := c.w.scan(v.data, &c.t); err != nil {
		t.Fatalf("scanner rejects %q: %v", v.data, err)
	}
	c.data = v.data
	return &Evaluator{Cache: c}
}

// The element table is each value's header: the tests named for headers
// hold the table a value stores to the table its text scans to without
// one (the headerless read).

// TestHeaderedDecodesLikeHeaderless holds the decoded table of every
// testutil.Fragments() value, Raw and Compressed, to the scanned one:
// format, text bounds, names and every element's offsets. Check accepts
// each value.
func TestHeaderedDecodesLikeHeaderless(t *testing.T) {
	vals := storedFragments()
	for _, v := range vals {
		var w scratch
		var decoded, scan table
		if err := w.read(v.data, &decoded); err != nil {
			t.Fatalf("%q: table does not decode: %v", v.data, err)
		}
		if err := w.scan(v.data, &scan); err != nil {
			t.Fatalf("%q: text does not scan: %v", v.data, err)
		}
		if !reflect.DeepEqual(decoded, scan) {
			t.Fatalf("%q: decoded table %+v, scanned %+v", v.data, decoded, scan)
		}
		var k Walker
		if err := k.Check(v.data); err != nil {
			t.Fatalf("%q: Check: %v", v.data, err)
		}
	}
	if len(vals) < 500 {
		t.Errorf("only %d values", len(vals))
	}
}

// TestMethodParityHeaderedVsHeaderless runs every method on stored
// fragments through the stored table and through the scanned one, and
// holds both to the tree evaluator: every output, table included, is
// Encode of the oracle's nodes.
func TestMethodParityHeaderedVsHeaderless(t *testing.T) {
	vals := storedFragments()
	for i := 0; i < len(vals); i += 7 {
		v := vals[i]
		if got, want := results(scanned(t, v), v), results(nil, v); got != want {
			t.Fatalf("%q: results through the scanned table:\n%s\nthrough the stored one:\n%s", v.data, got, want)
		}
		for _, a := range []string{"LINE", "SPEAKER", "sListTuple", "author", "authors"} {
			agreeWithTree(t, v, a, "author", "e", 1, 2, 0)
			agreeWithTree(t, v, "", a, "", 2, 2, 1)
		}
	}
}

// TestCorruptHeaderFallsBackToPayloadError alters each byte of the table
// of stored values in turn: no reader panics, and Check reports every
// alteration, as the scan of the payload disagrees with the table or the
// table no longer reads.
func TestCorruptHeaderFallsBackToPayloadError(t *testing.T) {
	for _, f := range allFormats {
		good := Encode(fragment(t, `<SPEECH><SPEAKER>A</SPEAKER><LINE n="1">x &amp; y</LINE></SPEECH><LINE>z</LINE>`), f).Bytes()
		_, hi, err := new(table).readHeader(good)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < hi; i++ {
			bad := bytes.Clone(good)
			bad[i] ^= 1
			callAll(FromBytes(bad), "LINE", "SPEAKER", "x", 1, 2, 0)
			var k Walker
			if k.Check(bad) == nil {
				t.Errorf("%v: table byte %d altered (%x): Check accepts it", f, i, bad)
			}
		}
	}
}

// resultNames and resultKeys are the arguments results calls the methods
// with: names of the paper's datasets and the empty name, and keys that
// match often, never, or always.
var (
	resultNames = []string{"", "LINE", "SPEECH", "SPEAKER", "STAGEDIR", "author", "sListTuple"}
	resultKeys  = []string{"", "e", "night"}
)

// results renders the output of every method on v, over resultNames and
// resultKeys, and the element walk, as one string.
func results(e *Evaluator, v Value) string {
	var b strings.Builder
	for _, x := range resultNames {
		for _, y := range resultNames {
			for _, key := range resultKeys {
				out, err := e.GetElm(v, x, y, key, len(key)%2)
				fmt.Fprintf(&b, "GetElm(%s,%s,%s) %x %v\n", x, y, key, out.Bytes(), err)
			}
			out, err := e.GetElmIndex(v, x, y, 1, 2)
			fmt.Fprintf(&b, "GetElmIndex(%s,%s) %x %v\n", x, y, out.Bytes(), err)
		}
		for _, key := range resultKeys {
			found, err := e.FindKeyInElm(v, x, key)
			fmt.Fprintf(&b, "FindKeyInElm(%s,%s) %v %v\n", x, key, found, err)
		}
		outs, err := e.Unnest(v, x)
		fmt.Fprintf(&b, "Unnest(%s) %v", x, err)
		for _, out := range outs {
			fmt.Fprintf(&b, " %x", out.Bytes())
		}
		b.WriteByte('\n')
	}
	text, err := e.InnerText(v)
	fmt.Fprintf(&b, "InnerText %q %v\nWalk", text, err)
	var k Walker
	walked, err := k.Walk(v.Bytes(), nil, func(name []byte, depth int) { fmt.Fprintf(&b, " %d:%s", depth, name) })
	fmt.Fprintf(&b, " %q %v\n", walked, err)
	return b.String()
}

// The element table took over from the Directory format, which stored
// the byte ranges of a value's top-level elements in front of its text:
// every value now carries the ranges of all its elements. The tests
// named for the directory hold the table to what the directory offered.

// TestDirectoryRoundTrip: a value keeps its text and nodes, and its
// table lists every element with its name and depth.
func TestDirectoryRoundTrip(t *testing.T) {
	src := `<LINE attr="v">first &amp; second</LINE><STAGEDIR>Exit</STAGEDIR><LINE>third<EMPH>x</EMPH></LINE>`
	for _, f := range allFormats {
		v := Encode(fragment(t, src), f)
		if v.Format() != f {
			t.Fatalf("format = %v, want %v", v.Format(), f)
		}
		if text, err := v.Text(); err != nil || text != src {
			t.Errorf("%v: Text = %q, %v", f, text, err)
		}
		if nodes, err := v.Nodes(); err != nil || xmltree.SerializeAll(nodes) != src {
			t.Errorf("%v: Nodes round-trip failed: %v", f, err)
		}
		var got []string
		var k Walker
		if _, err := k.Walk(v.Bytes(), nil, func(name []byte, depth int) { got = append(got, fmt.Sprint(depth, string(name))) }); err != nil {
			t.Fatal(err)
		}
		if want := "[1LINE 1STAGEDIR 1LINE 2EMPH]"; fmt.Sprint(got) != want {
			t.Errorf("%v: table walks %v, want %v", f, got, want)
		}
	}
}

// TestDirectoryGetElmIndex: order access picks top-level elements by
// their position among same-named siblings.
func TestDirectoryGetElmIndex(t *testing.T) {
	for _, f := range allFormats {
		v := Encode(fragment(t, `<LINE>one</LINE><NOTE>n</NOTE><LINE>two</LINE><LINE>three</LINE>`), f)
		out, err := GetElmIndex(v, "", "LINE", 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		if text, _ := out.Text(); text != `<LINE>two</LINE>` {
			t.Errorf("%v: LINE[2] = %q", f, text)
		}
		out, err = GetElmIndex(v, "", "LINE", 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if text, _ := out.Text(); text != `<LINE>one</LINE><LINE>two</LINE><LINE>three</LINE>` {
			t.Errorf("%v: range = %q", f, text)
		}
	}
}

// TestDirectoryMatchesTreePaths checks every XADT method agrees across
// the storage formats.
func TestDirectoryMatchesTreePaths(t *testing.T) {
	src := `<SPEECH><SPEAKER>HAMLET</SPEAKER><LINE>a friend</LINE><LINE>two</LINE></SPEECH>` +
		`<SPEECH><SPEAKER>GHOST</SPEAKER><LINE>swear</LINE></SPEECH>`
	type result struct {
		get, idx string
		found    bool
		unnested int
	}
	results := map[Format]result{}
	for _, f := range allFormats {
		v := Encode(fragment(t, src), f)
		g, err := GetElm(v, "SPEECH", "SPEAKER", "GHOST", 0)
		if err != nil {
			t.Fatal(err)
		}
		gt, _ := g.Text()
		i, err := GetElmIndex(v, "", "SPEECH", 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		it, _ := i.Text()
		found, err := FindKeyInElm(v, "LINE", "friend")
		if err != nil {
			t.Fatal(err)
		}
		u, err := Unnest(v, "LINE")
		if err != nil {
			t.Fatal(err)
		}
		results[f] = result{get: gt, idx: it, found: found, unnested: len(u)}
	}
	base := results[Raw]
	if r := results[Compressed]; r != base {
		t.Errorf("compressed disagrees with raw: %+v vs %+v", r, base)
	}
	if base.unnested != 3 || !base.found {
		t.Errorf("base results wrong: %+v", base)
	}
	if !strings.Contains(base.get, "GHOST") || !strings.Contains(base.idx, "GHOST") {
		t.Errorf("unexpected contents: %+v", base)
	}
}

// TestDirectoryUnnestNestedSameTag: elements nested in elements of the
// same name are all reported, as the tree evaluator reports them.
func TestDirectoryUnnestNestedSameTag(t *testing.T) {
	for _, f := range allFormats {
		v := Encode(fragment(t, `<d>outer<d>inner</d></d><x>no</x>`), f)
		out, err := Unnest(v, "d")
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 {
			t.Errorf("%v: unnested %d, want 2", f, len(out))
		}
	}
}

// TestDirectoryEmpty: the empty fragment has an empty table and costs
// two bytes in Raw.
func TestDirectoryEmpty(t *testing.T) {
	for _, f := range allFormats {
		v := Encode(nil, f)
		if !v.IsEmpty() || f == Raw && v.Len() != 2 {
			t.Errorf("%v: empty value = %x (empty %v)", f, v.Bytes(), v.IsEmpty())
		}
		out, err := Unnest(v, "x")
		if err != nil || len(out) != 0 {
			t.Errorf("%v: unnest empty = %v, %v", f, out, err)
		}
	}
}

// TestDirectoryFindKeyUsesScanner: findKeyInElm answers from the stored
// table as it does from the table the scanner builds.
func TestDirectoryFindKeyUsesScanner(t *testing.T) {
	for _, f := range allFormats {
		v := Encode(fragment(t, `<LINE>some <EMPH>friend</EMPH> here</LINE><LINE>other</LINE>`), f)
		for _, e := range []*Evaluator{nil, scanned(t, v)} {
			found, err := e.FindKeyInElm(v, "LINE", "friend")
			if err != nil || !found {
				t.Errorf("%v: found = %v, %v", f, found, err)
			}
			found, err = e.FindKeyInElm(v, "EMPH", "other")
			if err != nil || found {
				t.Errorf("%v: EMPH other found = %v, %v", f, found, err)
			}
		}
	}
}

// TestDirectoryCorrupt: a truncated value is an error for every reader.
func TestDirectoryCorrupt(t *testing.T) {
	for _, f := range allFormats {
		good := Encode(fragment(t, `<a>x</a>`), f).Bytes()
		v := FromBytes(good[:len(good)-2])
		if _, err := v.Nodes(); err == nil {
			t.Errorf("%v: truncated value decodes", f)
		}
		if _, err := GetElm(v, "a", "", "", 0); err == nil {
			t.Errorf("%v: getElm on a truncated value succeeds", f)
		}
	}
}

// TestDirectoryTextSizeComparable: the table adds a byte per element, so
// a value of many short elements grows by a few percent: a Raw value is
// its text plus the format byte, the table's length and one byte per
// element.
func TestDirectoryTextSizeComparable(t *testing.T) {
	nodes := fragment(t, strings.Repeat(`<LINE>some text content goes here</LINE>`, 50))
	text := len(xmltree.SerializeAll(nodes))
	for _, f := range allFormats {
		overhead := Encode(nodes, f).Len() - text
		if f == Raw && overhead != 2+50 || overhead > text/20 {
			t.Errorf("%v: table adds %d bytes to %d", f, overhead, text)
		}
	}
}

// FuzzHeaderDecode hammers the header readers — the format byte, the
// element table and a Compressed value's dictionary — with truncated and
// corrupt inputs. Decoding must never panic, a table that decodes must
// nest its elements within each other and the value, and every XADT
// method must degrade to an error — never a crash — on garbage bytes.
func FuzzHeaderDecode(f *testing.F) {
	frag := []*xmltree.Node{
		xmltree.NewElement("LINE").AppendText("rising and falling"),
		xmltree.NewElement("STAGEDIR").AppendText("Exit, pursued by a bear"),
	}
	frag[0].Append(xmltree.NewElement("EMPH").AppendText("rising"))
	for _, format := range allFormats {
		stored := Encode(frag, format).Bytes()
		f.Add(stored)
		long := bytes.Clone(stored)
		long[1]++
		f.Add(long)
		// Truncations of a valid value hit every partial-read branch.
		for _, n := range []int{1, 2, 3, 5, 8} {
			f.Add(stored[:n])
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xF8})
	f.Add([]byte{0xF8, 0x01})
	f.Add([]byte{0xF8, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(append([]byte{0xF8, 0x01, 0x40}, make([]byte, 16)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w scratch
		var tb table
		if lo, hi, err := tb.readHeader(data); err == nil && (lo > hi || hi > tb.body || tb.body > len(data)) {
			t.Fatalf("header of %q: entries [%d,%d), text at %d", data, lo, hi, tb.body)
		}
		if w.read(data, &tb) == nil {
			var open []element
			for _, e := range tb.elems {
				for len(open) > 0 && open[len(open)-1].close <= e.open {
					open = open[:len(open)-1]
				}
				limit := int32(len(data))
				if len(open) > 0 {
					limit = open[len(open)-1].end
				}
				if e.depth != int32(len(open)+1) || e.open < int32(tb.body) || e.open >= e.start || e.start > e.end || e.end >= e.close || e.close > limit {
					t.Fatalf("table of %q: element %+v within %v", data, e, open)
				}
				open = append(open, e)
			}
		}
		v := FromBytes(data)
		v.Format()
		v.IsEmpty()
		v.Text()
		if nodes, err := v.Nodes(); err == nil {
			var k Walker
			if err := k.Check(Encode(nodes, v.Format()).Bytes()); err != nil {
				t.Fatalf("Encode of the nodes of %q fails Check: %v", data, err)
			}
		}
		FindKeyInElm(v, "LINE", "rising")
		GetElm(v, "", "LINE", "", -1)
		GetElmIndex(v, "", "LINE", 1, 2)
		Unnest(v, "LINE")
	})
}

// FuzzTableRead runs every method on arbitrary bytes: each returns a
// value or an error and never panics, and on bytes that pass Check the
// results agree with the tree evaluator over Nodes.
func FuzzTableRead(f *testing.F) {
	for _, nodes := range testutil.Fragments()[:12] {
		for _, format := range allFormats {
			stored := Encode(nodes, format).Bytes()
			f.Add(stored, "LINE", "e", uint8(1), uint8(2))
			bad := bytes.Clone(stored)
			bad[len(bad)/3] ^= 0x40
			f.Add(bad, "SPEAKER", "", uint8(2), uint8(2))
		}
	}
	f.Add(mustParse(speechFrag, Compressed).Bytes(), "SPEECH", "night", uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, name, key string, lo, hi uint8) {
		v := FromBytes(data)
		callAll(v, name, name, key, int(lo), int(hi), 1)
		agreeWithTree(t, v, name, "LINE", key, int(lo), int(hi), 1)
		agreeWithTree(t, v, "", name, "", int(lo), int(hi), 0)
	})
}

// BenchmarkMethodsOnStored runs the XADT calls of QS6 (getElmIndex) and
// QS2 (findKeyInElm, then getElm on the rows it keeps) over generated
// speech_line values, through one cache as an execution worker does.
func BenchmarkMethodsOnStored(b *testing.B) {
	var vals []Value
	for _, doc := range datagen.GeneratePlays(datagen.PlayConfig{Plays: 2, Seed: 1}) {
		for _, sp := range doc.Root.Descendants("SPEECH") {
			vals = append(vals, Encode(sp.ChildrenNamed("LINE"), Raw))
		}
	}
	e := &Evaluator{Cache: NewCache(0)}
	b.Run("QS6", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, v := range vals {
				e.GetElmIndex(v, "", "LINE", 2, 2)
			}
		}
	})
	b.Run("QS2", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, v := range vals {
				if found, _ := e.FindKeyInElm(v, "STAGEDIR", ""); found {
					e.GetElm(v, "LINE", "STAGEDIR", "", 0)
				}
			}
		}
	})
}
