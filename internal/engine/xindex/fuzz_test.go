package xindex

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"unicode"

	"repro/internal/engine/storage"
	"repro/internal/engine/types"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

// FuzzPostingCodec drives the delta codec with arbitrary gap sequences:
// append must round-trip exactly.
func FuzzPostingCodec(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add(make([]byte, 192))
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
		if got := p.Values(); !slices.Equal(got, vals) {
			t.Fatalf("Values = %v, want %v", got, vals)
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

// FuzzTokenizeSuperset checks the property the word postings'
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

// FuzzFragmentIndexOps drives AddRow/DeleteRow sequences over a small
// fragment pool the way a heap hands out RIDs: fresh RIDs past every
// posting, and freed RIDs again (the overlay path), so one RID can cycle
// postings → deleted → re-added → deleted. Each op byte picks its kind
// from the low two bits (0 insert at a fresh RID, 1 insert at a freed
// RID, 2 and 3 delete a live row) and its fragment or victim from the
// rest. After every op, each probe's candidates must hold every live row
// xadt.FindKeyInElm accepts and no RID that is not live, and Rows must
// count the live rows.
func FuzzFragmentIndexOps(f *testing.F) {
	pool := []types.Value{types.Null}
	for _, s := range []string{
		`<LINE>O Romeo, Romeo! wherefore art thou Romeo?</LINE>`,
		`<LINE><STAGEDIR>Aside</STAGEDIR>soft, what light</LINE>`,
		`<SPEAKER>ROMEO</SPEAKER><LINE>my only love sprung from my only hate</LINE>`,
		`<LINE>It is the east</LINE><LINE>and Juliet is the sun</LINE>`,
	} {
		nodes, err := xmltree.ParseFragment(s)
		if err != nil {
			f.Fatal(err)
		}
		pool = append(pool, types.NewXADT(xadt.Encode(nodes, xadt.Raw).Bytes()))
	}
	probes := [][2]string{
		{"LINE", ""}, {"STAGEDIR", ""}, {"SPEAKER", ""}, {"NOPE", ""}, {"", "Romeo"},
		{"LINE", "love"}, {"STAGEDIR", "Aside"}, {"SPEAKER", "ROMEO"}, {"LINE", "Juliet is"},
	}
	f.Add([]byte{0x04, 0x08, 0x0C, 0x10})
	// Delete the first row, reuse its RID, delete it again, then grow.
	f.Add([]byte{0x04, 0x08, 0x0C, 0x10, 0x02, 0x09, 0x02, 0x04})
	// Reuse every freed RID with a different fragment, NULLs included.
	f.Add([]byte{0x04, 0x08, 0x0C, 0x10, 0x00, 0x06, 0x07, 0x0B, 0x01, 0x05, 0x0D, 0x11, 0x03})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fi := NewFragmentIndex("speech", "speech_line", 0)
		live := map[storage.RID]types.Value{}
		var order, free []storage.RID // live rows in heap order; freed RIDs
		fresh := 0
		for step, op := range ops {
			arg := int(op >> 2)
			switch {
			case op&3 < 2:
				r := rid(int32(fresh/4), int32(fresh%4))
				if op&3 == 1 && len(free) > 0 {
					i := arg % len(free)
					r = free[i]
					free = slices.Delete(free, i, i+1)
				} else {
					fresh++
				}
				v := pool[arg%len(pool)]
				fi.AddRow(r, v)
				live[r] = v
				order = append(order, r)
				slices.SortFunc(order, func(a, b storage.RID) int { return cmp.Compare(ridKey(a), ridKey(b)) })
			case len(order) > 0:
				i := arg % len(order)
				r := order[i]
				fi.DeleteRow(r)
				delete(live, r)
				order = slices.Delete(order, i, i+1)
				free = append(free, r)
			}
			if fi.Rows() != len(live) || !fi.Valid() {
				t.Fatalf("step %d: Rows=%d Valid=%v, want %d live rows", step, fi.Rows(), fi.Valid(), len(live))
			}
			for _, p := range probes {
				cands, ok := fi.LookupFindKey(p[0], p[1])
				if !ok {
					t.Fatalf("step %d: LookupFindKey(%q, %q) could not answer", step, p[0], p[1])
				}
				in := map[storage.RID]bool{}
				for _, r := range cands {
					if _, ok := live[r]; !ok {
						t.Fatalf("step %d: LookupFindKey(%q, %q) = %v holds %v, which is not live", step, p[0], p[1], cands, r)
					}
					in[r] = true
				}
				for _, r := range order {
					v := live[r]
					if v.IsNull() || in[r] {
						continue
					}
					if hit, err := xadt.FindKeyInElm(xadt.FromBytes(v.XADT()), p[0], p[1]); err != nil || hit {
						t.Fatalf("step %d: LookupFindKey(%q, %q) = %v misses %v (FindKeyInElm %v, %v)", step, p[0], p[1], cands, r, hit, err)
					}
				}
			}
		}
	})
}
