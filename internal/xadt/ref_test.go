package xadt

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/testutil"
	"repro/internal/xmltree"
)

// TestReferencesMatchMaterialized is the oracle of references: for every
// fragment of testutil.Fragments() in every format and every element
// name in it, Unnest returns references whose bytes are Encode of the
// tree evaluator's nodes, table included, and every method on a
// reference answers what it answers on those bytes. Each reference is
// read three ways: through the cache that split its parent (a view of
// the table in its slot), through a cache that never saw the parent and
// through a nil Evaluator (both decode the parent's table), one way per
// reference in turn.
func TestReferencesMatchMaterialized(t *testing.T) {
	n := 0
	for _, nodes := range testutil.Fragments() {
		names := elementNames(nodes)
		for _, f := range allFormats {
			for _, v := range []Value{Encode(nodes, f)} {
				split := &Evaluator{Cache: NewCache(0)}
				for _, name := range names {
					want, err := treeUnnest(v, name)
					if err != nil {
						t.Fatal(err)
					}
					refs, err := split.Unnest(v, name)
					if err != nil || len(refs) != len(want) {
						t.Fatalf("%v Unnest(%q): %d values (%v), tree %d", f, name, len(refs), err, len(want))
					}
					for i, r := range refs {
						if _, span := r.Parts(); span == 0 {
							t.Fatalf("%v Unnest(%q)[%d] is not a reference", f, name, i)
						}
						if !bytes.Equal(r.Bytes(), want[i].Bytes()) {
							t.Fatalf("%v Unnest(%q)[%d] = %q, Encode %q", f, name, i, r.Bytes(), want[i].Bytes())
						}
						n++
						switch n % 3 {
						case 0:
							agreeWithMaterialized(t, r, split)
						case 1:
							agreeWithMaterialized(t, r, nil)
						default:
							agreeWithMaterialized(t, r, &Evaluator{Cache: NewCache(0)})
						}
					}
				}
			}
		}
	}
}

// elementNames lists the element names of a fragment once each, in
// document order.
func elementNames(nodes []*xmltree.Node) []string {
	var names []string
	forEachElement(nodes, func(n *xmltree.Node) {
		if !slices.Contains(names, n.Name) {
			names = append(names, n.Name)
		}
	})
	return names
}

// agreeWithMaterialized holds every method on the reference r, through
// each evaluator in evals, to the same method on r's bytes: getElm, getElmIndex,
// findKeyInElm and unnest over the element names in r (and "" and an
// absent name), with a key taken from r's text, and the inner text.
// Unnest's outputs, references again, must materialise to the same bytes
// and have the same inner text.
func agreeWithMaterialized(t *testing.T, r Value, evals ...*Evaluator) {
	t.Helper()
	p := FromBytes(r.Bytes())
	nodes, err := p.Nodes()
	if err != nil {
		t.Fatalf("reference bytes %q do not decode: %v", p.Bytes(), err)
	}
	text, _ := (*Evaluator)(nil).InnerText(p)
	key := strings.TrimSpace(text[len(text)/2:])
	if len(key) > 3 {
		key = key[:3]
	}
	names := elementNames(nodes)
	last := names[len(names)-1]
	// calls lists every answer on v, in one order.
	calls := func(e *Evaluator, v Value) []string {
		var out []string
		add := func(what string, val Value, err error) {
			out = append(out, what+": "+string(val.Bytes())+" "+fmt.Sprint(err))
		}
		for _, a := range append(names, "", "GHOST") {
			for _, b := range []string{"", a, last} {
				g, err := e.GetElm(v, a, b, key, 0)
				add("GetElm "+a+" "+b, g, err)
				if b != "" {
					g, err = e.GetElmIndex(v, a, b, 1, 2)
					add("GetElmIndex "+a+" "+b, g, err)
				}
			}
			g, err := e.GetElm(v, a, last, "", 1)
			add("GetElm level 1 "+a, g, err)
			found, err := e.FindKeyInElm(v, a, key)
			out = append(out, fmt.Sprint("FindKeyInElm ", a, found, err))
			us, err := e.Unnest(v, a)
			out = append(out, fmt.Sprint("Unnest ", a, len(us), err))
			for _, u := range us {
				s, err := e.InnerText(u)
				add("Unnest "+a+" "+s, u, err)
			}
		}
		s, err := e.InnerText(v)
		return append(out, "InnerText "+s+" "+fmt.Sprint(err))
	}
	want := calls(nil, p)
	for i, e := range evals {
		if got := calls(e, r); !slices.Equal(got, want) {
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("evaluator %d on reference %q: %s, materialised: %s", i, p.Bytes(), got[k], want[k])
				}
			}
			t.Fatalf("evaluator %d on reference %q: %d answers, want %d", i, p.Bytes(), len(got), len(want))
		}
	}
}

// TestUnnestOfReferenceNarrows pins the reference chain: Unnest of a
// reference returns references into the same parent bytes, and a cache
// that split the parent reads them from its slot without decoding
// again.
func TestUnnestOfReferenceNarrows(t *testing.T) {
	v := Encode(fragment(t, speechFrag), Compressed)
	e := &Evaluator{Cache: NewCache(0)}
	speeches, err := e.Unnest(v, "SPEECH")
	if err != nil || len(speeches) != 1 {
		t.Fatalf("Unnest(SPEECH) = %d values, %v", len(speeches), err)
	}
	lines, err := e.Unnest(speeches[0], "LINE")
	if err != nil || len(lines) != 3 {
		t.Fatalf("Unnest(LINE) of a reference = %d values, %v", len(lines), err)
	}
	for _, l := range lines {
		if data, span := l.Parts(); span == 0 || &data[0] != &v.Bytes()[0] {
			t.Fatalf("Unnest of a reference returned %q, not a reference into the parent", l.Bytes())
		}
	}
	if got := testing.AllocsPerRun(100, func() { e.FindKeyInElm(speeches[0], "LINE", "night") }); got != 0 {
		t.Errorf("FindKeyInElm on a reference: %.1f allocations per call, want 0", got)
	}
	if st := e.Cache.Stats(); st.Misses != 1 {
		t.Errorf("cache stats %+v: want only the parent's table decoded", st)
	}
}

// BenchmarkUnnestChain runs the chains of QG4 and QG5 on stored SIGMOD
// fragments in the Compressed format, through one cache as an execution
// worker does: unnest each fragment into its sListTuples, then on each
// one findKeyInElm, and unnest its authors and section names to take
// their inner text.
func BenchmarkUnnestChain(b *testing.B) {
	cfg := datagen.DefaultSigmodConfig()
	cfg.Documents = 40
	var vals []Value
	for _, d := range datagen.GenerateSigmod(cfg) {
		vals = append(vals, Encode(d.Root.Descendants("sListTuple"), Compressed))
	}
	e := &Evaluator{Cache: NewCache(0)}
	texts := func(in Value, tag string) {
		outs, _ := e.Unnest(in, tag)
		for _, o := range outs {
			e.InnerText(o)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, v := range vals {
			tuples, _ := e.Unnest(v, "sListTuple")
			for _, s := range tuples {
				e.FindKeyInElm(s, "author", "Bird")
				texts(s, "author")
				texts(s, "sectionName")
			}
		}
	}
}
