package testutil

import (
	"repro/internal/datagen"
	"repro/internal/xmltree"
)

// Fragments returns XML fragments of the kinds the XORator mapping
// stores in XADT columns, from small generated corpora: the LINE and
// SPEAKER children and the whole content of each Shakespeare speech, and
// each SIGMOD sListTuple. Index and statistics tests build the same
// structure two ways over them.
func Fragments() [][]*xmltree.Node {
	var out [][]*xmltree.Node
	for _, doc := range datagen.GeneratePlays(datagen.PlayConfig{Plays: 1, Seed: 1}) {
		for _, sp := range doc.Root.Descendants("SPEECH") {
			out = append(out, sp.ChildrenNamed("LINE"), sp.ChildrenNamed("SPEAKER"), sp.Children)
		}
	}
	sigmod := datagen.GenerateSigmod(datagen.SigmodConfig{
		Documents: 4, Seed: 1, SectionsPerDoc: [2]int{2, 3}, ArticlesPerSection: [2]int{2, 4}, AuthorsPerArticle: [2]int{1, 4},
	})
	for _, doc := range sigmod {
		for _, tu := range doc.Root.Descendants("sListTuple") {
			out = append(out, []*xmltree.Node{tu})
		}
	}
	return out
}
