package xindex

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// FuzzPostingCodec drives the delta/skip codec with arbitrary gap
// sequences: append must round-trip exactly, SeekGE must agree with a
// linear reference walk from any starting point, and intersecting the
// two halves of the sequence must match a map-based reference.
func FuzzPostingCodec(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add(make([]byte, 3*SkipInterval))
	f.Add([]byte{255, 255, 0, 0, 1, 128, 7})
	f.Fuzz(func(t *testing.T, gaps []byte) {
		vals := make([]uint64, 0, len(gaps))
		p := &PostingList{}
		cur := uint64(0)
		for _, g := range gaps {
			cur += uint64(g) + 1 // strictly increasing
			vals = append(vals, cur)
			if !p.Append(cur) {
				t.Fatalf("Append(%d) rejected an increasing value", cur)
			}
		}
		if p.Len() != len(vals) {
			t.Fatalf("Len = %d, want %d", p.Len(), len(vals))
		}
		got := p.Values()
		for i, v := range got {
			if v != vals[i] {
				t.Fatalf("Values[%d] = %d, want %d", i, v, vals[i])
			}
		}
		// SeekGE from a fresh iterator for a spread of targets, including
		// exact hits, gap interiors, zero, and past-the-end.
		targets := []uint64{0, cur, cur + 1}
		for i := 0; i < len(vals); i += 1 + len(vals)/8 {
			targets = append(targets, vals[i], vals[i]+1)
		}
		for _, target := range targets {
			it := p.Iterator()
			g, ok := it.SeekGE(target)
			w, wok := refSeekGE(vals, target)
			if ok != wok || (ok && g != w) {
				t.Fatalf("SeekGE(%d) = %d,%v want %d,%v", target, g, ok, w, wok)
			}
		}
		// Resumed seeks must never move backwards.
		it := p.Iterator()
		prev := uint64(0)
		for _, target := range targets {
			if target < prev {
				target = prev
			}
			g, ok := it.SeekGE(target)
			if !ok {
				break
			}
			if g < prev {
				t.Fatalf("SeekGE went backwards: %d after %d", g, prev)
			}
			prev = g
		}
		// Intersect the halves against a reference set intersection.
		a, b := &PostingList{}, &PostingList{}
		inA := map[uint64]bool{}
		for i, v := range vals {
			if i%2 == 0 || i%3 == 0 {
				a.Append(v)
				inA[v] = true
			}
			if i%2 == 1 || i%3 == 0 {
				b.Append(v)
			}
		}
		var want []uint64
		for _, v := range b.Values() {
			if inA[v] {
				want = append(want, v)
			}
		}
		gotI := Intersect([]*PostingList{a, b})
		if len(gotI) != len(want) {
			t.Fatalf("Intersect len = %d, want %d", len(gotI), len(want))
		}
		for i := range want {
			if gotI[i] != want[i] {
				t.Fatalf("Intersect[%d] = %d, want %d", i, gotI[i], want[i])
			}
		}
	})
}

// refTokenize is the rune-loop tokenizer the byte tokenizer replaced:
// the reference nextToken must split exactly like, invalid UTF-8
// included.
func refTokenize(s string) []string {
	var out []string
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// FuzzTokenizeSuperset checks the property the keyword index's
// correctness rests on: if key occurs as a substring of text, then every
// token of the key must be a substring of some token of the text — so
// unioning postings of dictionary terms that contain a key token can
// never miss a truly matching row. It also holds the byte tokenizer to
// the rune-loop reference on arbitrary bytes.
func FuzzTokenizeSuperset(f *testing.F) {
	f.Add("O Romeo, Romeo! wherefore art thou", "Romeo")
	f.Add("soft, what light through yonder window", "what light")
	f.Add("a1b2c3", "1b2")
	f.Add("  spaced   out  ", " ")
	f.Add("Ünïcodé über alles", "über")
	f.Add("", "")
	f.Add("καλημέρα κόσμε, 東京タワー and Ωmega", "κόσμε")      // multi-byte letters
	f.Add("٣٤ ४२ ௰ ½ x²y ⅷ", "४२")                         // digits (and numbers that are not) of other scripts
	f.Add("ab\xffcd \xe2\x82 x\xed\xa0\x80y �z", "\xffcd") // invalid UTF-8 and U+FFFD
	f.Fuzz(func(t *testing.T, text, key string) {
		for _, s := range []string{text, key} {
			if got, want := Tokenize(s), refTokenize(s); !slices.Equal(got, want) {
				t.Fatalf("Tokenize(%q) = %q, rune loop %q", s, got, want)
			}
		}
		ttoks := Tokenize(text)
		for _, tok := range ttoks {
			if tok == "" {
				t.Fatal("Tokenize produced an empty token")
			}
			if !strings.Contains(text, tok) {
				t.Fatalf("token %q not a substring of its text", tok)
			}
		}
		set := TokenSet(text)
		seen := map[string]bool{}
		for _, tok := range set {
			if seen[tok] {
				t.Fatalf("TokenSet repeated %q", tok)
			}
			seen[tok] = true
		}
		if !strings.Contains(text, key) {
			return
		}
		for _, ktok := range Tokenize(key) {
			found := false
			for _, ttok := range ttoks {
				if strings.Contains(ttok, ktok) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("text contains key %q but key token %q is in no text token %v", key, ktok, ttoks)
			}
		}
	})
}
