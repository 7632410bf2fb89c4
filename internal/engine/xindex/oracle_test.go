package xindex

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/testutil"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

// refAddRow is AddRow as it was built on decoded nodes, the reference the
// build from the scanner's element table is held to. It covers rows that
// arrive at increasing RIDs.
func refAddRow(fi *FragmentIndex, rid storage.RID, v types.Value) {
	fi.rows++
	fi.maxKey, fi.anyKey = ridKey(rid), true
	if fi.invalid || v.IsNull() {
		return
	}
	nodes, err := xadt.FromBytes(v.XADT()).Nodes()
	if err != nil {
		fi.invalid = true
		return
	}
	var sb strings.Builder
	for _, n := range nodes {
		sb.WriteString(n.InnerText())
	}
	terms := map[string]bool{}
	for _, tok := range refTokenize(sb.String()) {
		if terms[tok] {
			continue
		}
		terms[tok] = true
		pl := fi.kw.terms[tok]
		if pl == nil {
			pl = &PostingList{}
			fi.kw.terms[tok] = pl
		}
		pl.Append(ridKey(rid))
	}
	seen := map[string]bool{}
	var walk func(n *xmltree.Node, prefix string)
	walk = func(n *xmltree.Node, prefix string) {
		if !n.IsElement() {
			return
		}
		p := n.Name
		if prefix != "" {
			p = prefix + "/" + n.Name
		}
		if !seen[p] {
			seen[p] = true
			fi.path.Add(rid, []byte(p))
		}
		for _, c := range n.Children {
			walk(c, p)
		}
	}
	for _, n := range nodes {
		walk(n, "")
	}
}

// TestIndexMatchesNodeOracle builds each fragment index twice over the
// same rows, once through AddRow and once through the node-walking
// reference, for every storage format with and without a v1 header,
// and requires identical contents: path dictionary and
// per-path postings, keyword terms and postings, Rows and Valid.
func TestIndexMatchesNodeOracle(t *testing.T) {
	frags := testutil.Fragments()
	for _, f := range []xadt.Format{xadt.Raw, xadt.Compressed, xadt.Directory} {
		for _, headered := range []bool{false, true} {
			got := NewFragmentIndex("t", "c", 0)
			want := NewFragmentIndex("t", "c", 0)
			for i, nodes := range frags {
				enc := xadt.Encode(nodes, f).Bytes()
				if headered {
					enc = testutil.WithV1Header(enc)
				}
				v := types.NewXADT(enc)
				if i%17 == 0 {
					v = types.Null
				}
				r := rid(int32(i/50), int32(i%50))
				got.AddRow(r, v)
				refAddRow(want, r, v)
			}
			name := fmt.Sprintf("%v headered=%v", f, headered)
			if d := got.Diff(want); d != "" {
				t.Fatalf("%s: index differs from the node oracle: %s", name, d)
			}
			if !got.Valid() || got.Rows() != len(frags) || got.path.Paths() == 0 || got.kw.Terms() == 0 {
				t.Fatalf("%s: Valid=%v Rows=%d paths=%d terms=%d", name, got.Valid(), got.Rows(), got.path.Paths(), got.kw.Terms())
			}
		}
	}
}

// TestAddRowAllocations guards the write path's allocation budget: a
// fragment whose paths and terms are all indexed already adds postings
// without allocating, apart from amortized posting and B+tree growth.
func TestAddRowAllocations(t *testing.T) {
	frag := fragValue(t, `<LINE>my only love sprung from my only hate</LINE>`+
		`<LINE>Too early seen unknown, and known too late!</LINE><LINE><STAGEDIR>Aside</STAGEDIR>prodigious</LINE>`)
	fi := NewFragmentIndex("speech", "speech_line", 0)
	slot := int32(0)
	add := func() {
		fi.AddRow(rid(0, slot), frag)
		slot++
	}
	add()
	if got := testing.AllocsPerRun(200, add); got > 1 {
		t.Errorf("AddRow of an indexed fragment: %.1f allocations, want <= 1", got)
	}
	if !fi.Valid() || fi.Rows() != int(slot) {
		t.Fatalf("Valid=%v Rows=%d after %d rows", fi.Valid(), fi.Rows(), slot)
	}
}
