package xindex

import (
	"slices"
	"strings"

	"repro/internal/engine/index"
	"repro/internal/engine/storage"
	"repro/internal/engine/types"
)

// PathIndex is the structural index: every distinct root-to-element path
// of a stored fragment ("SPEECH/LINE/STAGEDIR") maps to the postings of
// the rows containing it. Paths live in the engine's B+tree keyed by the
// path string, so the per-path RID lists come back in insertion (= heap)
// order; the small distinct-path dictionary is kept alongside for
// segment-membership lookups.
type PathIndex struct {
	tree  *index.BTree
	paths map[string]*pathEntry
}

// pathEntry is one distinct path of the dictionary.
type pathEntry struct {
	key  types.Value // the path as the B+tree key
	segs []string    // its element-name segments
	last storage.RID // the row recorded last
}

// NewPathIndex returns an empty index.
func NewPathIndex() *PathIndex {
	return &PathIndex{tree: index.New(), paths: map[string]*pathEntry{}}
}

// Paths reports the distinct path count.
func (p *PathIndex) Paths() int { return len(p.paths) }

// SizeBytes reports the B+tree footprint.
func (p *PathIndex) SizeBytes() int64 { return p.tree.SizeBytes() }

// Add records that the row at rid contains path. Rows are added one at a
// time, so a path the row at rid already recorded — a document may
// repeat a path many times — adds nothing. Only a new path allocates.
func (p *PathIndex) Add(rid storage.RID, path []byte) {
	e := p.paths[string(path)]
	if e == nil {
		s := string(path)
		e = &pathEntry{key: types.NewString(s), segs: strings.Split(s, "/")}
		p.paths[s] = e
	} else if e.last == rid {
		return
	}
	e.last = rid
	p.tree.Insert(e.key, rid)
}

// LookupName returns the sorted, deduplicated posting keys of the rows
// whose fragments contain an element with the given name at any depth,
// by unioning the postings of every dictionary path with that segment.
func (p *PathIndex) LookupName(name string) []uint64 {
	var all []uint64
	var rids []storage.RID
	for _, e := range p.paths {
		if !containsSeg(e.segs, name) {
			continue
		}
		rids = p.tree.Lookup(e.key, rids[:0]...)
		for _, rid := range rids {
			all = append(all, ridKey(rid))
		}
	}
	slices.Sort(all)
	return slices.Compact(all)
}

func containsSeg(segs []string, name string) bool {
	for _, s := range segs {
		if s == name {
			return true
		}
	}
	return false
}
