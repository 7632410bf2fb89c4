package plan

import (
	"strings"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/types"
)

// midFixture builds a table that morselizes (several pages) but is too
// small for the parallelism cost gate: 1000 rows with a cheap
// predicate, where four workers' startup outweighs the scan.
func midFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(nil)
	tbl, err := cat.CreateTable("mid", []catalog.Column{
		{Name: "id", Type: types.KindInt},
		{Name: "pad", Type: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		tbl.Insert([]types.Value{
			types.NewInt(int64(i)),
			types.NewString(strings.Repeat("p", 40)),
		})
	}
	if err := cat.RunStatsAll(); err != nil {
		t.Fatal(err)
	}
	if pages := tbl.Heap.DataPages(); pages < 2 {
		t.Fatalf("fixture must span more than one morsel: %d pages", pages)
	}
	return cat
}

func TestSmallInputGateSkipsParallelism(t *testing.T) {
	cat := midFixture(t)
	p := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DOP: 4, MorselPages: 1, CPUs: 4}}
	text := Explain(planFor(t, p, `SELECT id FROM mid WHERE id > 10`))
	if strings.Contains(text, "Gather") {
		t.Fatalf("small input should stay serial at DOP 4:\n%s", text)
	}
}

func TestSmallInputGateDisabled(t *testing.T) {
	cat := midFixture(t)
	p := &Planner{Cat: cat, Reg: expr.NewRegistry(),
		Opts: Options{DOP: 4, MorselPages: 1, ForceParallel: true}}
	text := Explain(planFor(t, p, `SELECT id FROM mid WHERE id > 10`))
	if !strings.Contains(text, "Gather(dop=4)") {
		t.Fatalf("ForceParallel should force the parallel plan:\n%s", text)
	}
}

func TestSmallInputGatePassesRowFloor(t *testing.T) {
	// bigFixture's fact table has few pages but 4000 rows: the gate's
	// per-row term alone should admit it.
	cat := bigFixture(t)
	p := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DOP: 4, MorselPages: 1, CPUs: 4}}
	text := Explain(planFor(t, p, `SELECT id FROM fact WHERE val > 500`))
	if !strings.Contains(text, "Gather(dop=4)") {
		t.Fatalf("4000-row table should pass the row floor:\n%s", text)
	}
}

// TestVectorizePassMarksPlan checks which planned operators exec.Batched
// reports as batch producers and that Explain marks exactly those [vec].
func TestVectorizePassMarksPlan(t *testing.T) {
	cat := bigFixture(t)
	serial := &Planner{Cat: cat, Reg: expr.NewRegistry()}

	// Scan → Project: batches all the way up, and Explain marks every
	// batch producer.
	q := `SELECT id, val FROM fact WHERE val > 500`
	op := planFor(t, serial, q)
	if !exec.Batched(op) {
		t.Fatalf("project over a heap scan does not produce batches:\n%s", Explain(op))
	}
	if text := Explain(op); strings.Count(text, "[vec]") != 2 {
		t.Fatalf("want Project and SeqScan marked:\n%s", text)
	}

	// A snapshot Source turns the scan, and everything batched only
	// through it, back into rows.
	scan := op.(*exec.Project).Child.(*exec.SeqScan)
	scan.Source = exec.Live
	if exec.Batched(op) || strings.Contains(Explain(op), "[vec]") {
		t.Fatalf("source scan still marked as batched:\n%s", Explain(op))
	}

	// Parallel plans produce batches inside the worker pipelines and
	// forward them through the exchange.
	par := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DOP: 4, MorselPages: 1, CPUs: 4}}
	parOp := planFor(t, par, q)
	if !exec.Batched(parOp) {
		t.Fatalf("parallel plan not batch-forwarding:\n%s", Explain(parOp))
	}
	if text := Explain(parOp); !strings.Contains(text, "Gather(dop=4) [vec]") || !strings.Contains(text, "MorselScan") {
		t.Fatalf("parallel plan not batch-forwarding:\n%s", text)
	}

	// Row-only operators above a batch scan: the scan is marked, the
	// TopN and the join are not.
	for _, q := range []string{
		`SELECT id, val FROM fact ORDER BY val LIMIT 5`,
		`SELECT id, label FROM fact, dim WHERE grp = grpID`,
	} {
		op := planFor(t, serial, q)
		text := Explain(op)
		if exec.Batched(op) || !strings.Contains(text, "SeqScan(fact as fact) [vec]") {
			t.Fatalf("%s: want only the scans batched:\n%s", q, text)
		}
		if strings.Contains(text, "TopN(5) [vec]") || strings.Contains(text, "Join(grp = grpID) [vec]") {
			t.Fatalf("%s: row-only operator marked as batched:\n%s", q, text)
		}
	}

	// HashAggregate consumes batches without producing them, and only
	// on its unbounded in-memory path.
	agg := `SELECT grp, COUNT(*) FROM fact GROUP BY grp`
	op = planFor(t, serial, agg)
	if exec.Batched(op) || !strings.Contains(Explain(op), "HashAggregate(1 groups keys, 1 aggs) [vec]") {
		t.Fatalf("aggregate should consume batches and emit rows:\n%s", Explain(op))
	}
	budget := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{MemBudgetBytes: 1 << 20}}
	if text := Explain(planFor(t, budget, agg)); strings.Contains(text, "HashAggregate(1 groups keys, 1 aggs) [vec]") {
		t.Fatalf("spillable aggregate marked as batched:\n%s", text)
	}
}
