package xindex

import (
	"slices"
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
	for _, tok := range refTokenize(sb.String()) {
		fi.words.add(ridKey(rid), []byte(tok))
	}
	for name := range elementNames(nodes) {
		fi.names.add(ridKey(rid), []byte(name))
	}
}

// elementNames returns the names of every element in the forest.
func elementNames(nodes []*xmltree.Node) map[string]bool {
	names := map[string]bool{}
	var walk func(n *xmltree.Node)
	walk = func(n *xmltree.Node) {
		if !n.IsElement() {
			return
		}
		names[n.Name] = true
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range nodes {
		walk(n)
	}
	return names
}

// TestIndexMatchesNodeOracle builds each fragment index twice over the
// same rows, once through AddRow and once through the node-walking
// reference, for every storage format, and requires identical contents:
// name postings, word postings, Rows and Valid. It also holds every element-name probe to the rows whose
// decoded nodes contain an element of that name.
func TestIndexMatchesNodeOracle(t *testing.T) {
	frags := testutil.Fragments()
	for _, f := range []xadt.Format{xadt.Raw, xadt.Compressed} {
		got := NewFragmentIndex("t", "c", 0)
		want := NewFragmentIndex("t", "c", 0)
		rowsWith := map[string][]storage.RID{} // element name → rows holding it
		for i, nodes := range frags {
			v := types.NewXADT(xadt.Encode(nodes, f).Bytes())
			r := rid(int32(i/50), int32(i%50))
			if i%17 == 0 {
				v = types.Null
			} else {
				for name := range elementNames(nodes) {
					rowsWith[name] = append(rowsWith[name], r)
				}
			}
			got.AddRow(r, v)
			refAddRow(want, r, v)
		}
		name := f.String()
		if d := got.Diff(want); d != "" {
			t.Fatalf("%s: index differs from the node oracle: %s", name, d)
		}
		if !got.Valid() || got.Rows() != len(frags) || len(got.names) == 0 || len(got.words) == 0 {
			t.Fatalf("%s: Valid=%v Rows=%d names=%d terms=%d", name, got.Valid(), got.Rows(), len(got.names), len(got.words))
		}
		if len(rowsWith) != len(got.names) {
			t.Fatalf("%s: %d element names in the nodes, %d in the index", name, len(rowsWith), len(got.names))
		}
		for elm, want := range rowsWith {
			if rids, ok := got.LookupFindKey(elm, ""); !ok || !slices.Equal(rids, want) {
				t.Fatalf("%s: LookupFindKey(%q) = %v,%v, want %v", name, elm, rids, ok, want)
			}
		}
	}
}

// TestAddRowAllocations guards the write path's allocation budget: a
// fragment whose element names and text terms all have posting lists
// already adds its postings without allocating, apart from the lists'
// amortized growth.
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
