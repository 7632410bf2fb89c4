// Package xindex provides the secondary index over stored XADT columns:
// delta-encoded posting lists keyed by element name (the name the XADT
// methods take) and by the tokens of the fragment text. It feeds the
// planner's IndexedFragScan rewrite and is strictly candidate-generating
// — the scan re-verifies the original predicate on every fetched row, so
// the index only has to guarantee a superset of the matching rows, never
// the exact set.
package xindex

import (
	"unicode"
	"unicode/utf8"
)

// asciiWord marks the ASCII letters and digits.
var asciiWord = func() (t [utf8.RuneSelf]bool) {
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = true, true
	}
	return t
}()

// nextToken returns the bounds of the first token of s at or after
// offset i: a maximal run of letters and digits. Bytes from 0x80 up
// decode as UTF-8, and an invalid byte is a one-character non-letter,
// exactly as ranging over string(s) decodes them. lo == hi == len(s)
// when no token is left.
//
// The tokens of a text are the word-shaped islands the XADT substring
// predicates can land on, which gives the word postings their superset
// guarantee: if strings.Contains(text, key) holds, then every token of
// key is a substring of some token of text — a key token is a maximal
// word run inside key, and wherever key occurs in text that run sits
// inside text's maximal word run covering the same positions. Query keys
// and stored text are split by this one function.
func nextToken(s []byte, i int) (lo, hi int) {
	lo = len(s)
	for i < len(s) {
		c, n := s[i], 1
		word := c < utf8.RuneSelf && asciiWord[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, n = utf8.DecodeRune(s[i:])
			word = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		switch {
		case word && lo == len(s):
			lo = i
		case !word && lo < len(s):
			return lo, i
		}
		i += n
	}
	return lo, len(s)
}

// Tokenize splits s into its maximal runs of letters and digits.
func Tokenize(s string) []string {
	var out []string
	b := []byte(s)
	for lo, hi := nextToken(b, 0); lo < hi; lo, hi = nextToken(b, hi) {
		out = append(out, s[lo:hi])
	}
	return out
}

// TokenSet returns the distinct tokens of s.
func TokenSet(s string) []string {
	toks := Tokenize(s)
	seen := make(map[string]bool, len(toks))
	out := toks[:0]
	for _, t := range toks {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
