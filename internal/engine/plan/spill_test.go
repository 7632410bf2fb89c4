package plan

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine/exec"
	"repro/internal/engine/expr"
	"repro/internal/engine/sql"
	"repro/internal/engine/storage"
)

func TestTopNPlanShape(t *testing.T) {
	cat := bigFixture(t)
	q := `SELECT id, val FROM fact ORDER BY val LIMIT 5`

	p := &Planner{Cat: cat, Reg: expr.NewRegistry()}
	text := Explain(planFor(t, p, q))
	if !strings.Contains(text, "TopN(5)") {
		t.Fatalf("ORDER BY + LIMIT not fused into TopN:\n%s", text)
	}
	if strings.Contains(text, "Sort") || strings.Contains(text, "Limit(") {
		t.Fatalf("fused plan still contains Sort/Limit:\n%s", text)
	}

	// A bounded heap that would itself blow the memory budget plans the
	// spillable Sort + Limit instead.
	tight := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{MemBudgetBytes: 64}}
	text = Explain(planFor(t, tight, q))
	if strings.Contains(text, "TopN(") {
		t.Fatalf("over-budget plan contains TopN:\n%s", text)
	}
	if !strings.Contains(text, "Sort") || !strings.Contains(text, "Limit(5)") {
		t.Fatalf("over-budget plan missing Sort/Limit:\n%s", text)
	}

	// ORDER BY without LIMIT must not become a TopN.
	text = Explain(planFor(t, p, `SELECT id, val FROM fact ORDER BY val`))
	if strings.Contains(text, "TopN(") {
		t.Fatalf("ORDER BY without LIMIT fused into TopN:\n%s", text)
	}
}

func TestTopNPartialPushedBelowGather(t *testing.T) {
	cat := bigFixture(t)
	par := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DOP: 4, MorselPages: 1, CPUs: 4}}
	op := planFor(t, par, `SELECT id, val FROM fact ORDER BY val, id LIMIT 7`)

	top, ok := op.(*exec.TopN)
	if !ok {
		t.Fatalf("root is %T, want *exec.TopN:\n%s", op, Explain(op))
	}
	g, ok := top.Child.(*exec.Gather)
	if !ok {
		t.Fatalf("TopN child is %T, want *exec.Gather:\n%s", top.Child, Explain(op))
	}
	for i, pipe := range g.Pipes {
		partial, ok := pipe.Root.(*exec.TopN)
		if !ok {
			t.Fatalf("pipe %d root is %T, want partial TopN:\n%s", i, pipe.Root, Explain(op))
		}
		if partial.N != 7 {
			t.Fatalf("pipe %d partial TopN keeps %d rows, want 7", i, partial.N)
		}
	}
	// Both levels show up in the explain text too.
	if text := Explain(op); strings.Count(text, "TopN(7)") != 2 {
		t.Fatalf("explain should show outer and partial TopN:\n%s", text)
	}
}

func TestBudgetKeepsSpillableHashJoinAboveGather(t *testing.T) {
	cat := bigFixture(t)
	q := `SELECT label, val FROM dim, fact WHERE grpID = grp`

	free := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{DOP: 4, MorselPages: 1, CPUs: 4}}
	freeText := Explain(planFor(t, free, q))
	if !strings.Contains(freeText, "HashProbe") {
		t.Fatalf("without a budget the join should use the HashBuild/HashProbe fragments:\n%s", freeText)
	}

	// HashProbe has no spill path, so a memory budget must keep the
	// serial spilling HashJoin above the exchange.
	budget := &Planner{Cat: cat, Reg: expr.NewRegistry(), Opts: Options{
		DOP: 4, MorselPages: 1, CPUs: 4, MemBudgetBytes: 1 << 20, SpillVFS: storage.NewMemVFS()}}
	text := Explain(planFor(t, budget, q))
	if strings.Contains(text, "HashProbe") {
		t.Fatalf("budgeted plan still uses the unspillable HashProbe:\n%s", text)
	}
	if !strings.Contains(text, "HashJoin(") || !strings.Contains(text, "Gather") {
		t.Fatalf("budgeted plan should keep HashJoin above a Gather:\n%s", text)
	}
}

func TestBudgetedQueriesMatchUnbounded(t *testing.T) {
	cat := bigFixture(t)
	queries := []string{
		`SELECT id, val FROM fact ORDER BY val, id`,
		`SELECT grp, COUNT(*), SUM(val) FROM fact GROUP BY grp`,
		`SELECT label, val FROM dim, fact WHERE grpID = grp`,
		`SELECT id, val FROM fact ORDER BY val, id LIMIT 9`,
		`SELECT DISTINCT val FROM fact`,
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
		for _, dop := range []int{1, 4} {
			sink := &exec.SpillSink{}
			p := &Planner{Cat: cat, Reg: expr.NewRegistry(), Spill: sink, Opts: Options{
				// 256 bytes: even the 7-group aggregate state overflows.
				DOP: dop, MorselPages: 1, CPUs: dop, MemBudgetBytes: 256, SpillVFS: storage.NewMemVFS()}}
			got, err := exec.Drain(mustPlan(t, p, stmt))
			if err != nil {
				t.Fatalf("budgeted dop=%d %q: %v", dop, q, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dop=%d %q: budgeted rows differ from unbounded", dop, q)
			}
			if !strings.Contains(q, "LIMIT") && sink.Stats().Runs == 0 {
				t.Fatalf("dop=%d %q: 256-byte budget produced no spill runs", dop, q)
			}
		}
	}
}
