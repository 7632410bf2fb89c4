package xindex

import "strings"

// KeywordIndex is the inverted index over fragment text: each distinct
// token of a row's concatenated character data gets the row's posting
// appended to its term list. Because the XADT predicates match by
// substring (strings.Contains), a query key is answered by taking, per
// key token, the union of the postings of every dictionary term that
// contains the token as a substring, then intersecting those unions —
// a guaranteed superset of the rows whose text contains the key.
type KeywordIndex struct {
	terms map[string]*PostingList
}

// NewKeywordIndex returns an empty index.
func NewKeywordIndex() *KeywordIndex {
	return &KeywordIndex{terms: map[string]*PostingList{}}
}

// Terms reports the dictionary size.
func (k *KeywordIndex) Terms() int { return len(k.terms) }

// SizeBytes reports the posting footprint plus dictionary strings.
func (k *KeywordIndex) SizeBytes() int64 {
	var n int64
	for t, pl := range k.terms {
		n += int64(len(t)) + pl.SizeBytes()
	}
	return n
}

// add appends rid to the posting list of each token of text, once per
// term: rids arrive in increasing order, so a list already ending at rid
// has this row. A new term's key is a copy, so the index never pins a
// row's text. It reports false if an append would break posting order.
func (k *KeywordIndex) add(rid uint64, text []byte) bool {
	for lo, hi := nextToken(text, 0); lo < hi; lo, hi = nextToken(text, hi) {
		pl := k.terms[string(text[lo:hi])]
		if pl == nil {
			pl = &PostingList{}
			k.terms[string(text[lo:hi])] = pl
		}
		if pl.n > 0 && pl.last == rid {
			continue
		}
		if !pl.Append(rid) {
			return false
		}
	}
	return true
}

// Candidates returns the sorted posting union-intersection for the key
// tokens: rows where every token is a substring of at least one of the
// row's terms. ok is false when tokens is empty (nothing to index on).
// An empty (non-nil) result means no row can match.
func (k *KeywordIndex) Candidates(tokens []string) (rids []uint64, ok bool) {
	if len(tokens) == 0 {
		return nil, false
	}
	var acc []uint64
	for i, tok := range tokens {
		var lists []*PostingList
		for term, pl := range k.terms {
			if strings.Contains(term, tok) {
				lists = append(lists, pl)
			}
		}
		if len(lists) == 0 {
			return []uint64{}, true
		}
		u := Union(lists)
		if i == 0 {
			acc = u
		} else {
			acc = IntersectSorted(acc, u)
		}
		if len(acc) == 0 {
			return []uint64{}, true
		}
	}
	return acc, true
}
