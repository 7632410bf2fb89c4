package xadt

import (
	"bytes"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/xmltree"
)

// The format round-trip guarantee: a headered value decodes identically
// to its headerless twin across every format, including empty and
// single-node fragments.
func TestHeaderedDecodesLikeHeaderless(t *testing.T) {
	fragments := []string{
		"",
		"<LINE>lone element</LINE>",
		speechFrag,
		`<author AuthorPosition="1">Gray</author><author AuthorPosition="2">Codd</author>`,
		"plain text only",
	}
	for _, src := range fragments {
		for _, f := range []Format{Raw, Compressed, Directory} {
			nodes := fragment(t, src)
			plain := Encode(nodes, f)
			stored := EncodeStored(nodes, f)

			if _, ok := stored.Header(); !ok {
				t.Fatalf("%v %q: EncodeStored value has no header", f, src)
			}
			if _, ok := plain.Header(); ok {
				t.Fatalf("%v %q: Encode value unexpectedly has a header", f, src)
			}
			if stored.Format() != plain.Format() {
				t.Errorf("%v %q: headered format %v != %v", f, src, stored.Format(), plain.Format())
			}
			if stored.IsEmpty() != plain.IsEmpty() {
				t.Errorf("%v %q: IsEmpty %v != %v", f, src, stored.IsEmpty(), plain.IsEmpty())
			}
			if got, want := mustText(t, stored), mustText(t, plain); got != want {
				t.Errorf("%v %q: headered text %q != headerless %q", f, src, got, want)
			}
			hn, err := stored.Nodes()
			if err != nil {
				t.Fatalf("%v %q: headered Nodes: %v", f, src, err)
			}
			pn, err := plain.Nodes()
			if err != nil {
				t.Fatalf("%v %q: headerless Nodes: %v", f, src, err)
			}
			if xmltree.SerializeAll(hn) != xmltree.SerializeAll(pn) {
				t.Errorf("%v %q: node trees differ", f, src)
			}
			if !bytes.Equal(stored.payloadBytes(), plain.Bytes()) {
				t.Errorf("%v %q: headered payload != headerless encoding", f, src)
			}
		}
	}
}

func TestHeaderFilterAndDepth(t *testing.T) {
	v := EncodeStored(fragment(t, speechFrag), Raw)
	h, ok := v.Header()
	if !ok {
		t.Fatal("no header")
	}
	for _, name := range []string{"SPEECH", "SPEAKER", "LINE"} {
		if !h.MayContain(name) {
			t.Errorf("MayContain(%q) = false for a present element", name)
		}
	}
	// STAGEDIR is absent; with a ~5%-fp filter it is overwhelmingly
	// likely rejected, and deterministic for this fixed fragment.
	if h.MayContain("STAGEDIR") {
		t.Error("MayContain(STAGEDIR) = true; filter not rejecting")
	}
	if h.Depth != 2 {
		t.Errorf("Depth = %d, want 2", h.Depth)
	}

	empty := EncodeStored(nil, Raw)
	eh, ok := empty.Header()
	if !ok {
		t.Fatal("empty fragment: no header")
	}
	if eh.Depth != 0 {
		t.Errorf("empty Depth = %d, want 0", eh.Depth)
	}
	if eh.MayContain("LINE") {
		t.Error("empty fragment claims it may contain LINE")
	}
}

// Fast-reject must be invisible: method results on headered values are
// byte-identical to results on their headerless twins, match or not.
func TestMethodParityHeaderedVsHeaderless(t *testing.T) {
	srcs := []string{
		speechFrag,
		`<SPEECH><SPEAKER>GHOST</SPEAKER><LINE>swear <STAGEDIR>Beneath</STAGEDIR></LINE></SPEECH>`,
		"",
	}
	for _, src := range srcs {
		for _, f := range []Format{Raw, Compressed, Directory} {
			nodes := fragment(t, src)
			plain := Encode(nodes, f)
			stored := EncodeStored(nodes, f)
			eval := &Evaluator{Cache: NewCache(0)}

			for _, args := range [][2]string{
				{"SPEECH", "STAGEDIR"}, {"SPEECH", "LINE"}, {"NOPE", "LINE"}, {"LINE", ""},
			} {
				want, err1 := GetElm(plain, args[0], args[1], "", 0)
				got, err2 := eval.GetElm(stored, args[0], args[1], "", 0)
				if err1 != nil || err2 != nil {
					t.Fatalf("GetElm errs: %v / %v", err1, err2)
				}
				if !bytes.Equal(want.Bytes(), got.Bytes()) {
					t.Errorf("%v %q: GetElm(%q,%q) differs on headered value", f, src, args[0], args[1])
				}
			}
			for _, elm := range []string{"STAGEDIR", "LINE", "ABSENT"} {
				want, err1 := FindKeyInElm(plain, elm, "")
				got, err2 := eval.FindKeyInElm(stored, elm, "")
				if err1 != nil || err2 != nil {
					t.Fatalf("FindKeyInElm errs: %v / %v", err1, err2)
				}
				if want != got {
					t.Errorf("%v %q: FindKeyInElm(%q) = %v on headered, want %v", f, src, elm, got, want)
				}
			}
			want, err1 := GetElmIndex(plain, "SPEECH", "LINE", 1, 2)
			got, err2 := eval.GetElmIndex(stored, "SPEECH", "LINE", 1, 2)
			if err1 != nil || err2 != nil {
				t.Fatalf("GetElmIndex errs: %v / %v", err1, err2)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("%v %q: GetElmIndex differs on headered value", f, src)
			}
			wantU, err1 := Unnest(plain, "LINE")
			gotU, err2 := eval.Unnest(stored, "LINE")
			if err1 != nil || err2 != nil {
				t.Fatalf("Unnest errs: %v / %v", err1, err2)
			}
			if len(wantU) != len(gotU) {
				t.Fatalf("%v %q: Unnest count %d != %d", f, src, len(gotU), len(wantU))
			}
			for i := range wantU {
				if !bytes.Equal(wantU[i].Bytes(), gotU[i].Bytes()) {
					t.Errorf("%v %q: Unnest[%d] differs", f, src, i)
				}
			}
		}
	}
}

func TestCorruptHeaderFallsBackToPayloadError(t *testing.T) {
	// A truncated header must not panic; parseHeader rejects it and the
	// payload decoder reports the corruption.
	v := FromBytes([]byte{headerMarker, headerVersion, 0x20, 1})
	if _, ok := v.Header(); ok {
		t.Error("corrupt header parsed as valid")
	}
}

func TestCacheLRUAndStats(t *testing.T) {
	c := NewCache(2)
	a := Encode(fragment(t, "<A>x</A>"), Raw)
	b := Encode(fragment(t, "<B>y</B>"), Raw)
	d := Encode(fragment(t, "<D>z</D>"), Raw)

	for _, v := range []Value{a, b, a} {
		if _, err := c.table(v); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses", s)
	}
	// Insert d: b is LRU and must be evicted, a stays.
	if _, err := c.table(d); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	if _, err := c.table(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.table(b); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 4 {
		t.Errorf("stats = %+v, want 2 hits / 4 misses (b evicted)", s)
	}

	// Cached tables must agree with direct scans.
	cached, _ := c.table(a)
	var w scratch
	if err := w.scan(a.Bytes(), &w.t); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*cached, w.t) {
		t.Errorf("cached table %+v differs from direct scan %+v", *cached, w.t)
	}
}

// The inline FNV-1a behind the Bloom probes must equal hash/fnv, or
// stored fragment headers stop matching the names they were built from.
func TestFilterHashesMatchFNV(t *testing.T) {
	for _, name := range []string{"", "LINE", "SPEECH", "sListTuple", "a", "\xff\x00", "AuthorPosition"} {
		f := fnv.New64a()
		f.Write([]byte(name))
		h := f.Sum64()
		if h1, h2 := filterHashes(name); h1 != uint32(h) || h2 != uint32(h>>32) {
			t.Errorf("filterHashes(%q) = %#x, %#x; want %#x, %#x", name, h1, h2, uint32(h), uint32(h>>32))
		}
	}
}

func TestCachePoolFlushesStats(t *testing.T) {
	p := NewCachePool(4)
	c := p.Get()
	v := Encode(fragment(t, "<A>x</A>"), Compressed)
	for i := 0; i < 3; i++ {
		if _, err := c.table(v); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Hits != 0 && s.Misses != 0 {
		t.Errorf("pool stats flushed early: %+v", s)
	}
	p.Put(c)
	if s := p.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Errorf("pool stats = %+v, want 2 hits / 1 miss", s)
	}
}
