package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/sql"
	"repro/internal/engine/types"
	"repro/internal/xadt"
	"repro/internal/xmltree"
)

// fragFixture builds the XORator shape of the Shakespeare corpus:
// play–act–scene–speech, where speech keeps its speakers and lines as
// XADT fragments (200 speeches, every fifth by ROMEO, every third line
// about love). withIndexes adds fragment indexes on both XADT columns.
func fragFixture(t *testing.T, withIndexes bool) *Planner {
	t.Helper()
	cat := catalog.New(nil)
	mk := func(name string, cols []catalog.Column, rows int, gen func(i int) []types.Value) {
		t.Helper()
		tbl, err := cat.CreateTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := tbl.Insert(gen(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	col := func(name string, k types.Kind) catalog.Column { return catalog.Column{Name: name, Type: k} }
	frag := func(xml string) types.Value {
		t.Helper()
		nodes, err := xmltree.ParseFragment(xml)
		if err != nil {
			t.Fatal(err)
		}
		return types.NewXADT(xadt.EncodeStored(nodes, xadt.Raw).Bytes())
	}
	id := func(i int) types.Value { return types.NewInt(int64(i)) }
	titles := []string{"Romeo and Juliet", "Hamlet"}
	mk("play", []catalog.Column{col("playID", types.KindInt), col("play_title", types.KindString)}, 2,
		func(i int) []types.Value { return []types.Value{id(i), types.NewString(titles[i])} })
	mk("act", []catalog.Column{col("actID", types.KindInt), col("act_parentID", types.KindInt)}, 4,
		func(i int) []types.Value { return []types.Value{id(i), id(i % 2)} })
	mk("scene", []catalog.Column{col("sceneID", types.KindInt), col("scene_parentID", types.KindInt),
		col("scene_parentCODE", types.KindString)}, 8,
		func(i int) []types.Value { return []types.Value{id(i), id(i % 4), types.NewString("ACT")} })
	mk("speech", []catalog.Column{col("speechID", types.KindInt), col("speech_parentID", types.KindInt),
		col("speech_parentCODE", types.KindString), col("speech_speaker", types.KindXADT),
		col("speech_line", types.KindXADT)}, 200,
		func(i int) []types.Value {
			speaker, line := "JULIET", "It is the east"
			if i%5 == 0 {
				speaker = "ROMEO"
			}
			if i%3 == 0 {
				line = "my only love sprung from my only hate"
			}
			return []types.Value{id(i), id(i % 8), types.NewString("SCENE"),
				frag("<SPEAKER>" + speaker + "</SPEAKER>"), frag("<LINE>" + line + "</LINE>")}
		})
	if withIndexes {
		for _, c := range []string{"speech_speaker", "speech_line"} {
			if _, err := cat.CreateXADTIndex("speech", c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cat.RunStatsAll(); err != nil {
		t.Fatal(err)
	}
	reg := expr.NewRegistry()
	if err := reg.RegisterScalar(&expr.ScalarFunc{
		Name: "findKeyInElm", MinArgs: 3, MaxArgs: 3, ReadOnly: true,
		Fn: func(args []types.Value) (types.Value, error) {
			found, err := xadt.FindKeyInElm(xadt.FromBytes(args[0].XADT()), args[1].Str(), args[2].Str())
			if err != nil || !found {
				return types.NewInt(0), err
			}
			return types.NewInt(1), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return New(cat, reg)
}

// qs5Shape is QS5's XORator join: four relations, two indexable
// findKeyInElm conjuncts on speech.
const qs5Shape = `SELECT speechID FROM play, act, scene, speech
WHERE act_parentID = playID AND play_title = 'Romeo and Juliet'
AND scene_parentID = actID AND scene_parentCODE = 'ACT'
AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE'
AND findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1
AND findKeyInElm(speech_line, 'LINE', 'love') = 1`

// TestPlanProbesEachFragmentIndexOnce guards against planning work that
// grows with the join search: the estimate, every dynamic-programming
// step that adds speech, and the access path must share one
// LookupFindKey per indexable conjunct, with or without the cost model.
func TestPlanProbesEachFragmentIndexOnce(t *testing.T) {
	p := fragFixture(t, true)
	speech := p.Cat.Table("speech")
	lookups := func() uint64 {
		var n uint64
		for _, fi := range speech.FragIndexes {
			n += fi.Lookups()
		}
		return n
	}
	want := runQuery(t, &Planner{Cat: p.Cat, Reg: p.Reg, Opts: Options{DisableXADTIndexes: true}}, qs5Shape)
	if len(want) == 0 {
		t.Fatal("fixture query returns no rows")
	}
	for _, opts := range []Options{{}, {DisableCostModel: true}} {
		p.Opts = opts
		before := lookups()
		op := planFor(t, p, qs5Shape)
		if got := lookups() - before; got != 2 {
			t.Errorf("DisableCostModel=%v: %d LookupFindKey calls per Plan, want 2 (one per indexable conjunct)",
				opts.DisableCostModel, got)
		}
		if ex := Explain(op); !strings.Contains(ex, "IndexedFragScan") {
			t.Errorf("DisableCostModel=%v: no IndexedFragScan in plan:\n%s", opts.DisableCostModel, ex)
		}
		if got := runQuery(t, p, qs5Shape); len(got) != len(want) {
			t.Errorf("DisableCostModel=%v: %d rows through the index, %d through scans",
				opts.DisableCostModel, len(got), len(want))
		}
	}
}

// TestScannerRejectedFragmentDisablesIndex: a stored value the tree
// parser reads but the byte scanner rejects, such as a self-closing tag
// or a comment, invalidates its fragment index. The row still counts
// toward Rows, and the planner falls back to scans.
func TestScannerRejectedFragmentDisablesIndex(t *testing.T) {
	p := fragFixture(t, true)
	speech := p.Cat.Table("speech")
	stored := func(markup string) types.Value {
		t.Helper()
		v := xadt.FromBytes(append([]byte{byte(xadt.Raw)}, markup...))
		if _, err := v.Nodes(); err != nil {
			t.Fatalf("Nodes rejects %q: %v", markup, err)
		}
		return types.NewXADT(v.Bytes())
	}
	if err := speech.Insert([]types.Value{types.NewInt(200), types.NewInt(0), types.NewString("SCENE"),
		stored("<SPEAKER/>"), stored("<LINE>love<!-- aside --></LINE>")}); err != nil {
		t.Fatal(err)
	}
	for _, fi := range speech.FragIndexes {
		if fi.Valid() || fi.Rows() != speech.Rows() {
			t.Errorf("%s: Valid=%v Rows=%d, want an invalid index covering %d rows", fi.Column(), fi.Valid(), fi.Rows(), speech.Rows())
		}
	}
	if ex := Explain(planFor(t, p, qs5Shape)); strings.Contains(ex, "IndexedFragScan") {
		t.Errorf("plan uses an invalid fragment index:\n%s", ex)
	}
}

// TestUnanswerableFragmentProbePlansAsUnindexed: LookupFindKey's ok=false
// means the index cannot answer the key (no element name and no
// word-shaped token), not that no row matches. Such a conjunct must be
// estimated with the unindexed 5 % and offer no index access path, so
// the plan, its estimates and its cost equal those of a store without
// fragment indexes.
func TestUnanswerableFragmentProbePlansAsUnindexed(t *testing.T) {
	const q = `SELECT speechID FROM speech WHERE findKeyInElm(speech_line, '', '!!!') = 1`
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	var plans [2]string
	for i, indexed := range []bool{true, false} {
		op, sum, err := fragFixture(t, indexed).PlanSummary(stmt)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = fmt.Sprintf("%s%s\n", Explain(op), sum)
	}
	if plans[0] != plans[1] {
		t.Errorf("unanswerable probe plans differently from no index:\n%s\nvs\n%s", plans[0], plans[1])
	}
	// 200 rows × 0.05, not the one-row "provably absent" guess.
	if !strings.Contains(plans[0], "SeqScan(") || !strings.Contains(plans[0], " est=10\n") {
		t.Errorf("want a SeqScan estimated at 10 rows:\n%s", plans[0])
	}
}
