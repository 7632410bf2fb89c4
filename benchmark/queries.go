package main

import (
	"strings"

	"repro/internal/xmltree"
)

// query is one of the paper's workload queries in its two formulations:
// SQL over the Hybrid relational schema, and SQL over the XORator
// object-relational schema using the XADT methods. The benchmark keeps
// its own copy so that its inputs do not change when the engine's other
// harnesses do.
type query struct {
	ID      string
	Hybrid  string
	XORator string
}

// shakespeareQueries is the paper's §4.3 workload, QS1-QS6.
var shakespeareQueries = []query{
	{
		ID: "QS1", // flattening: speakers and the lines they speak
		Hybrid: `SELECT speaker_value, line_value FROM speaker, line, speech
WHERE speaker_parentID = speechID AND line_parentID = speechID`,
		XORator: `SELECT speech_speaker, speech_line FROM speech`,
	},
	{
		ID: "QS2", // full path expression: lines that have stage directions
		Hybrid: `SELECT line_value FROM line, stagedir
WHERE stagedir_parentID = lineID AND stagedir_parentCODE = 'LINE'`,
		XORator: `SELECT getElm(speech_line, 'LINE', 'STAGEDIR', '') FROM speech
WHERE findKeyInElm(speech_line, 'STAGEDIR', '') = 1`,
	},
	{
		ID: "QS3", // selection: lines whose stage direction contains 'Rising'
		Hybrid: `SELECT line_value FROM line, stagedir
WHERE stagedir_parentID = lineID AND stagedir_parentCODE = 'LINE'
AND stagedir_value LIKE '%Rising%'`,
		XORator: `SELECT getElm(speech_line, 'LINE', 'STAGEDIR', 'Rising') FROM speech
WHERE findKeyInElm(speech_line, 'STAGEDIR', 'Rising') = 1`,
	},
	{
		ID: "QS4", // multiple selections: speeches by ROMEO in 'Romeo and Juliet'
		Hybrid: `SELECT speechID FROM play, act, scene, speech, speaker
WHERE act_parentID = playID AND play_title = 'Romeo and Juliet'
AND scene_parentID = actID AND scene_parentCODE = 'ACT'
AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE'
AND speaker_parentID = speechID AND speaker_value = 'ROMEO'`,
		XORator: `SELECT speechID FROM play, act, scene, speech
WHERE act_parentID = playID AND play_title = 'Romeo and Juliet'
AND scene_parentID = actID AND scene_parentCODE = 'ACT'
AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE'
AND findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1`,
	},
	{
		ID: "QS5", // twig with selection: ROMEO's lines containing 'love'
		Hybrid: `SELECT line_value FROM play, act, scene, speech, speaker, line
WHERE act_parentID = playID AND play_title = 'Romeo and Juliet'
AND scene_parentID = actID AND scene_parentCODE = 'ACT'
AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE'
AND speaker_parentID = speechID AND speaker_value = 'ROMEO'
AND line_parentID = speechID AND line_value LIKE '%love%'`,
		XORator: `SELECT getElm(speech_line, 'LINE', 'LINE', 'love') FROM play, act, scene, speech
WHERE act_parentID = playID AND play_title = 'Romeo and Juliet'
AND scene_parentID = actID AND scene_parentCODE = 'ACT'
AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE'
AND findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1
AND findKeyInElm(speech_line, 'LINE', 'love') = 1`,
	},
	{
		ID: "QS6", // order access: the second line in each speech (Figure 8)
		Hybrid: `SELECT line_value FROM speech, line
WHERE line_parentID = speechID AND line_childOrder = 2`,
		XORator: `SELECT getElmIndex(speech_line, '', 'LINE', 2, 2) FROM speech`,
	},
}

// sigmodQueries is the paper's §4.4 workload, QG1-QG6.
var sigmodQueries = []query{
	{
		ID: "QG1", // selection and extraction: authors of papers with 'Join' in the title
		Hybrid: `SELECT author_value FROM atuple, authors, author
WHERE atuple_title LIKE '%Join%'
AND authors_parentID = atupleID AND author_parentID = authorsID`,
		XORator: `SELECT getElm(getElm(pp_slist, 'aTuple', 'title', 'Join'), 'author', '', '')
FROM pp WHERE findKeyInElm(pp_slist, 'title', 'Join') = 1`,
	},
	{
		ID: "QG2", // flattening: authors with the section names their papers appear in
		Hybrid: `SELECT slisttuple_sectionname, author_value
FROM slisttuple, articles, atuple, authors, author
WHERE articles_parentID = slisttupleID AND atuple_parentID = articlesID
AND authors_parentID = atupleID AND author_parentID = authorsID`,
		XORator: `SELECT getElm(s.out, 'sectionName', '', ''), getElm(s.out, 'author', '', '')
FROM pp, TABLE(unnest(pp_slist, 'sListTuple')) s`,
	},
	{
		ID: "QG3", // flattening with selection: sections with papers by authors named 'Worthy'
		Hybrid: `SELECT slisttuple_sectionname
FROM slisttuple, articles, atuple, authors, author
WHERE articles_parentID = slisttupleID AND atuple_parentID = articlesID
AND authors_parentID = atupleID AND author_parentID = authorsID
AND author_value LIKE '%Worthy%'`,
		XORator: `SELECT getElm(s.out, 'sectionName', '', '')
FROM pp, TABLE(unnest(pp_slist, 'sListTuple')) s
WHERE findKeyInElm(s.out, 'author', 'Worthy') = 1`,
	},
	{
		ID: "QG4", // aggregation: per author, the number of distinct sections with their papers
		Hybrid: `SELECT author_value, COUNT(DISTINCT slisttuple_sectionname) AS n
FROM slisttuple, articles, atuple, authors, author
WHERE articles_parentID = slisttupleID AND atuple_parentID = articlesID
AND authors_parentID = atupleID AND author_parentID = authorsID
GROUP BY author_value`,
		XORator: `SELECT xadtInnerText(a.out) AS author, COUNT(DISTINCT xadtInnerText(sn.out)) AS n
FROM pp, TABLE(unnest(pp_slist, 'sListTuple')) s,
     TABLE(unnest(s.out, 'author')) a, TABLE(unnest(s.out, 'sectionName')) sn
GROUP BY xadtInnerText(a.out)`,
	},
	{
		ID: "QG5", // aggregation with selection: sections with papers by authors named 'Bird'
		Hybrid: `SELECT COUNT(DISTINCT slisttuple_sectionname)
FROM slisttuple, articles, atuple, authors, author
WHERE articles_parentID = slisttupleID AND atuple_parentID = articlesID
AND authors_parentID = atupleID AND author_parentID = authorsID
AND author_value LIKE '%Bird%'`,
		XORator: `SELECT COUNT(DISTINCT xadtInnerText(sn.out))
FROM pp, TABLE(unnest(pp_slist, 'sListTuple')) s,
     TABLE(unnest(s.out, 'sectionName')) sn
WHERE findKeyInElm(s.out, 'author', 'Bird') = 1`,
	},
	{
		ID: "QG6", // order access with selection: second author of papers with 'Join' in the title
		Hybrid: `SELECT author_value FROM atuple, authors, author
WHERE atuple_title LIKE '%Join%'
AND authors_parentID = atupleID AND author_parentID = authorsID
AND author_childOrder = 2`,
		XORator: `SELECT getElmIndex(a.out, 'authors', 'author', 2, 2)
FROM pp, TABLE(unnest(pp_slist, 'aTuple')) a
WHERE findKeyInElm(a.out, 'title', 'Join') = 1`,
	},
}

// queryIDs lists the twelve queries in pass order.
var queryIDs = func() []string {
	var ids []string
	for _, q := range shakespeareQueries {
		ids = append(ids, q.ID)
	}
	for _, q := range sigmodQueries {
		ids = append(ids, q.ID)
	}
	return ids
}()

// rowCounts is how many rows the two formulations of a query return.
type rowCounts struct {
	Hybrid  int `json:"hybrid"`
	XORator int `json:"xorator"`
}

// oracle is what the queries must return on a corpus, worked out from
// the documents themselves without the engine.
type oracle struct {
	Rows map[string]rowCounts
	// QG5 returns one row under both mappings; Sections is its value.
	Sections int
}

func descendants(n *xmltree.Node, name string, visit func(*xmltree.Node)) {
	for _, c := range n.Children {
		if c.Name == name {
			visit(c)
		}
		if c.IsElement() {
			descendants(c, name, visit)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// expectedRows computes the oracle. Where the two counts of a query
// differ, the formulations answer at different granularity: XORator
// returns one row per stored fragment (a speech, a document, a section),
// Hybrid one row per matching leaf tuple (a line, an author).
func expectedRows(plays, proceedings []*xmltree.Document) oracle {
	r := map[string]rowCounts{}
	add := func(id string, hybrid, xorator int) {
		c := r[id]
		c.Hybrid += hybrid
		c.XORator += xorator
		r[id] = c
	}
	for _, doc := range plays {
		descendants(doc.Root, "SPEECH", func(sp *xmltree.Node) {
			lines := sp.ChildrenNamed("LINE")
			add("QS1", len(sp.ChildrenNamed("SPEAKER"))*len(lines), 1)
			dirs, rising := 0, 0
			for _, l := range lines {
				for _, sd := range l.ChildrenNamed("STAGEDIR") {
					dirs++
					rising += btoi(strings.Contains(sd.InnerText(), "Rising"))
				}
			}
			add("QS2", dirs, btoi(dirs > 0))
			add("QS3", rising, btoi(rising > 0))
			add("QS6", btoi(len(lines) >= 2), 1)
		})
		title := doc.Root.FirstChildNamed("TITLE")
		if title == nil || title.InnerText() != "Romeo and Juliet" {
			continue
		}
		for _, act := range doc.Root.ChildrenNamed("ACT") {
			for _, scene := range act.ChildrenNamed("SCENE") {
				for _, sp := range scene.ChildrenNamed("SPEECH") {
					romeos := 0
					for _, s := range sp.ChildrenNamed("SPEAKER") {
						romeos += btoi(s.InnerText() == "ROMEO")
					}
					love := 0
					for _, l := range sp.ChildrenNamed("LINE") {
						love += btoi(strings.Contains(l.InnerText(), "love"))
					}
					add("QS4", romeos, btoi(romeos > 0))
					add("QS5", romeos*love, btoi(romeos > 0 && love > 0))
				}
			}
		}
	}
	authors := map[string]bool{}
	birdSections := map[string]bool{}
	for _, doc := range proceedings {
		joinDoc := false
		descendants(doc.Root, "sListTuple", func(sec *xmltree.Node) {
			name := ""
			if sn := sec.FirstChildNamed("sectionName"); sn != nil {
				name = sn.InnerText()
			}
			total, worthy, bird := 0, 0, 0
			descendants(sec, "aTuple", func(art *xmltree.Node) {
				var names []string
				descendants(art, "author", func(a *xmltree.Node) { names = append(names, a.InnerText()) })
				for _, a := range names {
					authors[a] = true
					worthy += btoi(strings.Contains(a, "Worthy"))
					bird += btoi(strings.Contains(a, "Bird"))
				}
				total += len(names)
				if t := art.FirstChildNamed("title"); t != nil && strings.Contains(t.InnerText(), "Join") {
					joinDoc = true
					add("QG1", len(names), 0)
					add("QG6", btoi(len(names) >= 2), 1)
				}
			})
			add("QG2", total, 1)
			add("QG3", worthy, btoi(worthy > 0))
			if bird > 0 {
				birdSections[name] = true
			}
		})
		add("QG1", 0, btoi(joinDoc))
	}
	add("QG4", len(authors), len(authors))
	add("QG5", 1, 1)
	return oracle{Rows: r, Sections: len(birdSections)}
}
