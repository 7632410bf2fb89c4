package xindex

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
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
}

func TestPostingListSingle(t *testing.T) {
	p := &PostingList{}
	if !p.Append(7) {
		t.Fatal("Append failed")
	}
	if got := p.Values(); !reflect.DeepEqual(got, []uint64{7}) {
		t.Fatalf("Values = %v", got)
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

func TestKeywordCandidatesSubstringTerms(t *testing.T) {
	kw := postings{}
	for key, text := range []string{1: "STAGEDIR Rising", 2: "uprising, noise", 3: "quiet"} {
		for _, tok := range Tokenize(text) {
			kw.add(uint64(key), []byte(tok))
		}
	}
	// "Rising" must match both the exact term and "upRising"? No —
	// matching is case-sensitive substring: "Rising" ⊄ "uprising", but
	// "rising" ⊂ "uprising". Candidates("rising") should hit row 2 only.
	got, ok := kw.candidates([]string{"rising"})
	if !ok || !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("candidates(rising) = %v,%v", got, ok)
	}
	got, ok = kw.candidates([]string{"Rising"})
	if !ok || !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("candidates(Rising) = %v,%v", got, ok)
	}
	// A token matching no dictionary term is a definitive empty set.
	got, ok = kw.candidates([]string{"zzz"})
	if !ok || got == nil || len(got) != 0 {
		t.Fatalf("candidates(zzz) = %v,%v", got, ok)
	}
	// Empty token list: cannot answer.
	if _, ok := kw.candidates(nil); ok {
		t.Fatal("candidates(nil) claimed to answer")
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

// TestDuplicatePathsOneDocument: a document repeating the same element
// name many times must contribute each name posting once per row,
// keeping the name postings strictly increasing and Append from failing.
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

// TestPathIndexLookupName: an element-name probe finds the rows with an
// element of that name at any depth, nested or not, and no others.
func TestPathIndexLookupName(t *testing.T) {
	fi := NewFragmentIndex("speech", "speech", 0)
	fi.AddRow(rid(0, 0), fragValue(t, `<SPEECH><LINE><STAGEDIR>Aside</STAGEDIR></LINE></SPEECH>`))
	fi.AddRow(rid(0, 1), fragValue(t, `<SPEECH><SPEAKER>ROMEO</SPEAKER><LINE>soft</LINE></SPEECH>`))
	got, ok := fi.LookupFindKey("LINE", "")
	if !ok || !reflect.DeepEqual(got, []storage.RID{rid(0, 0), rid(0, 1)}) {
		t.Fatalf("LookupFindKey(LINE) = %v,%v", got, ok)
	}
	if got, ok := fi.LookupFindKey("SPEAKER", ""); !ok || !reflect.DeepEqual(got, []storage.RID{rid(0, 1)}) {
		t.Fatalf("LookupFindKey(SPEAKER) = %v,%v", got, ok)
	}
	if got, ok := fi.LookupFindKey("NOPE", ""); !ok || len(got) != 0 {
		t.Fatalf("LookupFindKey(NOPE) = %v,%v", got, ok)
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

// BenchmarkLookupFindKey probes a speech_line index over three generated
// plays the way the paper's QS1 and QS2 do: an element name alone, and
// an element name with a key.
func BenchmarkLookupFindKey(b *testing.B) {
	fi := NewFragmentIndex("speech", "speech_line", 0)
	n := 0
	for _, doc := range datagen.GeneratePlays(datagen.PlayConfig{Plays: 3, Seed: 1}) {
		for _, sp := range doc.Root.Descendants("SPEECH") {
			fi.AddRow(rid(int32(n/64), int32(n%64)), types.NewXADT(xadt.Encode(sp.ChildrenNamed("LINE"), xadt.Raw).Bytes()))
			n++
		}
	}
	for _, bc := range []struct{ name, elm, key string }{
		{"name", "STAGEDIR", ""},
		{"name+key", "STAGEDIR", "Rising"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := fi.LookupFindKey(bc.elm, bc.key); !ok {
					b.Fatal("lookup could not answer")
				}
			}
		})
	}
}
