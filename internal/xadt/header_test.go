package xadt

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// testdata/headered_v1.golden holds stored values as the loader wrote
// them before values were stored headerless: each of v1Fragments in each
// format behind a v1 header. It was written by that encoder and is never
// regenerated.
const v1FixturePath = "testdata/headered_v1.golden"

// v1Fragments are the fragments of the fixture, by the name it lists
// them under.
var v1Fragments = []struct{ name, src string }{
	{"empty", ""},
	{"line", "<LINE>lone element</LINE>"},
	{"speech", speechFrag},
	{"authors", `<author AuthorPosition="1">Gray</author><author AuthorPosition="2">Codd</author>`},
	{"text", "plain text only"},
}

var allFormats = []Format{Raw, Compressed, Directory}

// v1Value is one stored value of the fixture.
type v1Value struct {
	name, src string
	format    Format
	data      []byte
}

// readV1Fixture parses the fixture: one value a line,
// "<fragment> <format> <hex bytes>", after '#' comment lines.
func readV1Fixture(t *testing.T) []v1Value {
	t.Helper()
	raw, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{}
	for _, fr := range v1Fragments {
		srcs[fr.name] = fr.src
	}
	var out []v1Value
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("fixture line %q: want 3 fields", line)
		}
		src, ok := srcs[fields[0]]
		if !ok {
			t.Fatalf("fixture line %q: unknown fragment", line)
		}
		format := Format(255)
		for _, f := range allFormats {
			if f.String() == fields[1] {
				format = f
			}
		}
		data, err := hex.DecodeString(fields[2])
		if err != nil || format == 255 {
			t.Fatalf("fixture line %q: bad format or bytes (%v)", line, err)
		}
		out = append(out, v1Value{fields[0], src, format, data})
	}
	if len(out) != len(v1Fragments)*len(allFormats) {
		t.Fatalf("fixture holds %d values, want %d", len(out), len(v1Fragments)*len(allFormats))
	}
	return out
}

// TestHeaderedDecodesLikeHeaderless holds every value of the v1 fixture
// to the headerless encoding of the same nodes: payload, format,
// emptiness, text and nodes are identical.
func TestHeaderedDecodesLikeHeaderless(t *testing.T) {
	for _, fx := range readV1Fixture(t) {
		name := fx.name + " " + fx.format.String()
		stored, plain := FromBytes(fx.data), Encode(fragment(t, fx.src), fx.format)
		if payloadOffset(fx.data) == 0 || !bytes.Equal(stored.payloadBytes(), plain.Bytes()) {
			t.Errorf("%s: payload %x, want %x behind a header", name, stored.payloadBytes(), plain.Bytes())
		}
		if stored.Format() != plain.Format() || stored.IsEmpty() != plain.IsEmpty() {
			t.Errorf("%s: format %v empty %v, headerless %v %v", name, stored.Format(), stored.IsEmpty(), plain.Format(), plain.IsEmpty())
		}
		if got, want := mustText(t, stored), mustText(t, plain); got != want {
			t.Errorf("%s: text %q, headerless %q", name, got, want)
		}
		hn, err := stored.Nodes()
		if err != nil {
			t.Fatalf("%s: Nodes: %v", name, err)
		}
		if got, want := xmltree.SerializeAll(hn), fx.src; got != want {
			t.Errorf("%s: nodes serialize to %q, want %q", name, got, want)
		}
	}
}

// TestMethodParityHeaderedVsHeaderless holds method results on every
// value of the v1 fixture, with and without a cache, to the results on
// the headerless encoding of the same nodes, match or not: every method's
// output, the inner text and the element walk are identical.
func TestMethodParityHeaderedVsHeaderless(t *testing.T) {
	for _, fx := range readV1Fixture(t) {
		name := fx.name + " " + fx.format.String()
		stored, plain := FromBytes(fx.data), Encode(fragment(t, fx.src), fx.format)
		want := results(nil, plain)
		for _, e := range []*Evaluator{nil, {Cache: NewCache(0)}} {
			if got := results(e, stored); got != want {
				t.Errorf("%s: results differ\nheadered:\n%s\nheaderless:\n%s", name, got, want)
			}
		}
	}
}

func TestCorruptHeaderFallsBackToPayloadError(t *testing.T) {
	// A truncated header must not panic; payloadOffset rejects it and the
	// payload decoder sees the whole value.
	if off := payloadOffset([]byte{headerMarker, 1, 0x20, 1}); off != 0 {
		t.Errorf("corrupt header parsed as valid: payload at %d", off)
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
