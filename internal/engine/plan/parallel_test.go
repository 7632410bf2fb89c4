package plan

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sql"
	"repro/internal/engine/types"
)

// bigFixture builds fact(id, grp, val) with enough pages to morselize
// and dim(grpID, label) to join against.
func bigFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(nil)
	fact, err := cat.CreateTable("fact", []catalog.Column{
		{Name: "id", Type: types.KindInt},
		{Name: "grp", Type: types.KindInt},
		{Name: "val", Type: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		fact.Insert([]types.Value{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 7)),
			types.NewInt(int64((i * 37) % 1000)),
		})
	}
	dim, err := cat.CreateTable("dim", []catalog.Column{
		{Name: "grpID", Type: types.KindInt},
		{Name: "label", Type: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		dim.Insert([]types.Value{types.NewInt(int64(i)), types.NewString(strings.Repeat("x", i+1))})
	}
	if err := cat.RunStatsAll(); err != nil {
		t.Fatal(err)
	}
	if fact.Heap.DataPages() < 4 {
		t.Fatalf("fact table too small to morselize: %d pages", fact.Heap.DataPages())
	}
	return cat
}

func planFor(t *testing.T, p *Planner, q string) exec.Operator {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	op, err := p.Plan(stmt)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return op
}

func TestParallelPlanShape(t *testing.T) {
	cat := bigFixture(t)
	serial := &Planner{Cat: cat, Reg: expr.NewRegistry()}
	par := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DOP: 4, MorselPages: 1, CPUs: 4}}

	q := `SELECT id, val FROM fact WHERE val > 500`
	sText := Explain(planFor(t, serial, q))
	if strings.Contains(sText, "Gather") {
		t.Fatalf("serial plan contains Gather:\n%s", sText)
	}
	pText := Explain(planFor(t, par, q))
	if !strings.Contains(pText, "Gather(dop=4)") || !strings.Contains(pText, "MorselScan") {
		t.Fatalf("parallel plan missing Gather/MorselScan:\n%s", pText)
	}
	// The filter must run inside the workers, fused into each MorselScan
	// below the exchange.
	fused := strings.Index(pText, "MorselScan(fact as fact, filter: val > 500)")
	if fused < 0 || strings.Index(pText, "Gather") > fused {
		t.Fatalf("filter not pushed into worker pipelines:\n%s", pText)
	}
}

func TestParallelPlanSmallTableStaysSerial(t *testing.T) {
	cat := bigFixture(t)
	par := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DOP: 4, CPUs: 4}}
	// dim fits in one page: a Gather would only add overhead.
	text := Explain(planFor(t, par, `SELECT label FROM dim`))
	if strings.Contains(text, "Gather") {
		t.Fatalf("single-page table should not be parallelized:\n%s", text)
	}
}

func TestParallelJoinCountMatchesSerial(t *testing.T) {
	cat := bigFixture(t)
	serial := &Planner{Cat: cat, Reg: expr.NewRegistry()}
	par := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DOP: 4, MorselPages: 1, CPUs: 4}}
	q := `SELECT label FROM dim, fact WHERE grpID = grp`
	want := CountJoins(planFor(t, serial, q))
	got := CountJoins(planFor(t, par, q))
	if got != want {
		t.Errorf("parallel plan reports %d joins, serial %d", got, want)
	}
}

func TestParallelResultsIdentical(t *testing.T) {
	cat := bigFixture(t)
	queries := []string{
		`SELECT id, val FROM fact`,
		`SELECT id FROM fact WHERE val > 300`,
		`SELECT id, val FROM fact ORDER BY val, id`,
		`SELECT grp, COUNT(*), SUM(val) FROM fact GROUP BY grp`,
		`SELECT DISTINCT grp FROM fact`,
		`SELECT id FROM fact LIMIT 25`,
		`SELECT label, val FROM dim, fact WHERE grpID = grp`,
		`SELECT label, COUNT(*) FROM dim, fact WHERE grpID = grp GROUP BY label ORDER BY label`,
	}
	serial := &Planner{Cat: cat, Reg: expr.NewRegistry()}
	for _, q := range queries {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		want, err := exec.Drain(mustPlan(t, serial, stmt))
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		for _, dop := range []int{2, 4} {
			par := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DOP: dop, MorselPages: 1, CPUs: dop}}
			got, err := exec.Drain(mustPlan(t, par, stmt))
			if err != nil {
				t.Fatalf("dop=%d %q: %v", dop, q, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("dop=%d %q: %d rows differ from serial %d rows", dop, q, len(got), len(want))
			}
		}
	}
}

func mustPlan(t *testing.T, p *Planner, stmt *sql.SelectStmt) exec.Operator {
	t.Helper()
	op, err := p.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

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
