package xindex

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"hello", []string{"hello"}},
		{"hello world", []string{"hello", "world"}},
		{"don't stop", []string{"don", "t", "stop"}},
		{"ACT1scene2", []string{"ACT1scene2"}},
		{"a-b_c", []string{"a", "b", "c"}},
		{"Ünïcodé über", []string{"Ünïcodé", "über"}},
		{"42 4two", []string{"42", "4two"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenSetDedups(t *testing.T) {
	got := TokenSet("love love LOVE love")
	if !reflect.DeepEqual(got, []string{"love", "LOVE"}) {
		t.Errorf("TokenSet = %v", got)
	}
}

func TestPostingListEmpty(t *testing.T) {
	p := &PostingList{}
	if p.Len() != 0 {
		t.Fatalf("empty Len = %d", p.Len())
	}
	if vs := p.Values(); len(vs) != 0 {
		t.Fatalf("empty Values = %v", vs)
	}
	it := p.Iterator()
	if _, ok := it.Next(); ok {
		t.Fatal("empty iterator yielded a value")
	}
	if got := Intersect([]*PostingList{p, p}); len(got) != 0 {
		t.Fatalf("empty intersect = %v", got)
	}
}

func TestPostingListSingle(t *testing.T) {
	p := &PostingList{}
	if !p.Append(7) {
		t.Fatal("Append failed")
	}
	if got := p.Values(); !reflect.DeepEqual(got, []uint64{7}) {
		t.Fatalf("Values = %v", got)
	}
	it := p.Iterator()
	if v, ok := it.SeekGE(7); !ok || v != 7 {
		t.Fatalf("SeekGE(7) = %d,%v", v, ok)
	}
	it = p.Iterator()
	if _, ok := it.SeekGE(8); ok {
		t.Fatal("SeekGE(8) found a value past the end")
	}
}

func TestPostingListRejectsNonIncreasing(t *testing.T) {
	p := &PostingList{}
	p.Append(5)
	if p.Append(5) {
		t.Fatal("accepted a duplicate")
	}
	if p.Append(4) {
		t.Fatal("accepted a regression")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d after rejected appends", p.Len())
	}
}

// TestPostingListSkipBoundaries exercises lists whose lengths straddle
// the skip interval, seeking to values at and around every block edge.
func TestPostingListSkipBoundaries(t *testing.T) {
	for _, n := range []int{SkipInterval - 1, SkipInterval, SkipInterval + 1, 2 * SkipInterval, 2*SkipInterval + 1} {
		vals := make([]uint64, n)
		p := &PostingList{}
		for i := 0; i < n; i++ {
			vals[i] = uint64(3*i + 1) // stride 3 so gaps exist to seek into
			if !p.Append(vals[i]) {
				t.Fatalf("n=%d: Append(%d) failed", n, vals[i])
			}
		}
		if got := p.Values(); !reflect.DeepEqual(got, vals) {
			t.Fatalf("n=%d: roundtrip mismatch", n)
		}
		for _, target := range []uint64{0, 1, 2, vals[n/2], vals[n/2] + 1, vals[n-1], vals[n-1] + 1} {
			it := p.Iterator()
			got, ok := it.SeekGE(target)
			want, wok := refSeekGE(vals, target)
			if ok != wok || (ok && got != want) {
				t.Fatalf("n=%d: SeekGE(%d) = %d,%v want %d,%v", n, target, got, ok, want, wok)
			}
		}
	}
}

func refSeekGE(vals []uint64, target uint64) (uint64, bool) {
	for _, v := range vals {
		if v >= target {
			return v, true
		}
	}
	return 0, false
}

// TestIntersectAcrossBlocks intersects lists sized around the skip
// interval so the skip-based SeekGE crosses block boundaries mid-walk.
func TestIntersectAcrossBlocks(t *testing.T) {
	a, b := &PostingList{}, &PostingList{}
	var want []uint64
	for i := uint64(0); i < uint64(3*SkipInterval); i++ {
		a.Append(2 * i) // evens
		b.Append(3 * i) // multiples of 3
		if 3*i%2 == 0 && 3*i < 2*uint64(3*SkipInterval) {
			want = append(want, 3*i) // multiples of 6 within a's range
		}
	}
	got := Intersect([]*PostingList{a, b})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Intersect = %v..., want %v...", head(got), head(want))
	}
}

func head(v []uint64) []uint64 {
	if len(v) > 8 {
		return v[:8]
	}
	return v
}

func TestKeywordCandidatesSubstringTerms(t *testing.T) {
	kw := NewKeywordIndex()
	kw.add(1, []byte("STAGEDIR Rising"))
	kw.add(2, []byte("uprising, noise"))
	kw.add(3, []byte("quiet"))
	// "Rising" must match both the exact term and "upRising"? No —
	// matching is case-sensitive substring: "Rising" ⊄ "uprising", but
	// "rising" ⊂ "uprising". Candidates("rising") should hit row 2 only.
	got, ok := kw.Candidates([]string{"rising"})
	if !ok || !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("Candidates(rising) = %v,%v", got, ok)
	}
	got, ok = kw.Candidates([]string{"Rising"})
	if !ok || !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("Candidates(Rising) = %v,%v", got, ok)
	}
	// A token matching no dictionary term is a definitive empty set.
	got, ok = kw.Candidates([]string{"zzz"})
	if !ok || got == nil || len(got) != 0 {
		t.Fatalf("Candidates(zzz) = %v,%v", got, ok)
	}
	// Empty token list: cannot answer.
	if _, ok := kw.Candidates(nil); ok {
		t.Fatal("Candidates(nil) claimed to answer")
	}
}

func rid(page, slot int32) storage.RID { return storage.RID{Page: page, Slot: slot} }

func fragValue(t *testing.T, xml string) types.Value {
	t.Helper()
	nodes, err := xmltree.ParseFragment(xml)
	if err != nil {
		t.Fatal(err)
	}
	return types.NewXADT(xadt.Encode(nodes, xadt.Raw).Bytes())
}

// TestDuplicatePathsOneDocument: a document repeating the same path many
// times must contribute each path posting once per row, keeping the
// structural postings strictly increasing and Append from failing.
func TestDuplicatePathsOneDocument(t *testing.T) {
	fi := NewFragmentIndex("speech", "speech_line", 0)
	fi.AddRow(rid(0, 0), fragValue(t,
		`<LINE>one</LINE><LINE>two</LINE><LINE><STAGEDIR>Rising</STAGEDIR></LINE><LINE>four</LINE>`))
	fi.AddRow(rid(0, 1), fragValue(t, `<LINE>five</LINE><LINE>six</LINE>`))
	if !fi.Valid() {
		t.Fatal("index invalidated by duplicate paths")
	}
	rids, ok := fi.LookupFindKey("LINE", "")
	if !ok || len(rids) != 2 {
		t.Fatalf("LookupFindKey(LINE) = %v,%v", rids, ok)
	}
	rids, ok = fi.LookupFindKey("STAGEDIR", "")
	if !ok || !reflect.DeepEqual(rids, []storage.RID{rid(0, 0)}) {
		t.Fatalf("LookupFindKey(STAGEDIR) = %v,%v", rids, ok)
	}
}

// TestLookupSuperset: every row whose fragment text contains the key
// must appear in the candidate set (the index may over-approximate but
// never under-approximate).
func TestLookupSuperset(t *testing.T) {
	frags := []string{
		`<LINE>O Romeo, Romeo! wherefore art thou Romeo?</LINE>`,
		`<LINE>my only love sprung from my only hate</LINE>`,
		`<LINE><STAGEDIR>Rising slowly</STAGEDIR>soft, what light</LINE>`,
		`<LINE>It is the east</LINE><LINE>and Juliet is the sun</LINE>`,
	}
	fi := NewFragmentIndex("speech", "speech_line", 0)
	texts := make([]string, len(frags))
	for i, f := range frags {
		nodes, err := xmltree.ParseFragment(f)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, n := range nodes {
			sb.WriteString(n.InnerText())
		}
		texts[i] = sb.String()
		fi.AddRow(rid(0, int32(i)), fragValue(t, f))
	}
	for _, key := range []string{"Romeo", "love", "Rising", "the", "light", "Juliet is", "o Romeo", "absent"} {
		cands, ok := fi.LookupFindKey("", key)
		if !ok {
			t.Fatalf("LookupFindKey(%q) could not answer", key)
		}
		in := map[storage.RID]bool{}
		for _, r := range cands {
			in[r] = true
		}
		for i, text := range texts {
			if strings.Contains(text, key) && !in[rid(0, int32(i))] {
				t.Errorf("key %q: row %d contains it but is missing from candidates", key, i)
			}
		}
	}
}

// TestLookupDegenerate: empty element and no word-shaped tokens means
// the index cannot answer and must say so.
func TestLookupDegenerate(t *testing.T) {
	fi := NewFragmentIndex("speech", "speech_line", 0)
	fi.AddRow(rid(0, 0), fragValue(t, `<LINE>text</LINE>`))
	if _, ok := fi.LookupFindKey("", ""); ok {
		t.Fatal("answered an unanswerable probe")
	}
	if _, ok := fi.LookupFindKey("", "!!!"); ok {
		t.Fatal("answered a punctuation-only key")
	}
}

// TestNullAndInvalidRows: NULLs count toward coverage without postings;
// an undecodable fragment invalidates the index permanently.
func TestNullAndInvalidRows(t *testing.T) {
	fi := NewFragmentIndex("speech", "speech_line", 0)
	fi.AddRow(rid(0, 0), types.Null)
	fi.AddRow(rid(0, 1), fragValue(t, `<LINE>ok</LINE>`))
	if fi.Rows() != 2 || !fi.Valid() {
		t.Fatalf("Rows=%d Valid=%v after NULL", fi.Rows(), fi.Valid())
	}
	fi.AddRow(rid(0, 2), types.NewXADT([]byte{byte(xadt.Compressed), 0xff, 0xff, 0xff}))
	if fi.Valid() {
		t.Fatal("still valid after an undecodable fragment")
	}
	if _, ok := fi.LookupFindKey("LINE", ""); ok {
		t.Fatal("invalid index answered a lookup")
	}
}

func TestPathIndexLookupName(t *testing.T) {
	p := NewPathIndex()
	p.Add(rid(0, 1), []byte("SPEECH/LINE"))
	p.Add(rid(0, 0), []byte("SPEECH/LINE/STAGEDIR"))
	p.Add(rid(0, 1), []byte("SPEECH/SPEAKER"))
	got := p.LookupName("LINE")
	if !reflect.DeepEqual(got, []uint64{ridKey(rid(0, 0)), ridKey(rid(0, 1))}) {
		t.Fatalf("LookupName(LINE) = %v", got)
	}
	if got := p.LookupName("SPEAKER"); !reflect.DeepEqual(got, []uint64{ridKey(rid(0, 1))}) {
		t.Fatalf("LookupName(SPEAKER) = %v", got)
	}
	if got := p.LookupName("NOPE"); len(got) != 0 {
		t.Fatalf("LookupName(NOPE) = %v", got)
	}
}

func TestRIDKeyOrder(t *testing.T) {
	rids := []storage.RID{
		{Page: 0, Slot: 0}, {Page: 0, Slot: 1}, {Page: 0, Slot: 1000},
		{Page: 1, Slot: 0}, {Page: 2, Slot: 5}, {Page: 1000, Slot: 0},
	}
	for i := 1; i < len(rids); i++ {
		a, b := ridKey(rids[i-1]), ridKey(rids[i])
		if a >= b {
			t.Fatalf("ridKey not monotone: %v=%d >= %v=%d", rids[i-1], a, rids[i], b)
		}
		if keyRID(b) != rids[i] {
			t.Fatalf("keyRID(ridKey(%v)) = %v", rids[i], keyRID(b))
		}
	}
}

// TestDeleteAfterRIDReuseStaysDead covers the postings → dead → overlay
// → dead cycle: a row indexed in the postings is deleted, its RID is
// reused by a new row (overlay), and that row is deleted too. The
// second delete must tombstone the key — merely dropping the overlay
// entry would resurrect the original postings occupant as a candidate
// pointing at a freed heap slot.
func TestDeleteAfterRIDReuseStaysDead(t *testing.T) {
	fi := NewFragmentIndex("speech", "speech_line", 0)
	fi.AddRow(rid(0, 0), fragValue(t, `<LINE>Romeo</LINE>`))
	fi.AddRow(rid(0, 1), fragValue(t, `<LINE>Juliet</LINE>`))
	fi.DeleteRow(rid(0, 0))
	fi.AddRow(rid(0, 0), fragValue(t, `<LINE>Tybalt</LINE>`)) // reused RID: overlay
	fi.DeleteRow(rid(0, 0))                                   // must stay dead
	cands, ok := fi.LookupFindKey("LINE", "Romeo")
	if !ok {
		t.Fatal("lookup could not answer")
	}
	for _, r := range cands {
		if r == rid(0, 0) {
			t.Fatalf("deleted RID %v resurrected as a candidate: %v", r, cands)
		}
	}
	if got := fi.Rows(); got != 1 {
		t.Fatalf("Rows() = %d, want 1", got)
	}
}
