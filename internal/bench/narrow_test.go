package bench

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/exec"
	"repro/internal/engine/plan"
)

// accessColumns walks a plan and returns, per table alias, the column
// names each access operator emits: scans of every kind and the inner
// side of index nested loops. Parallel plans are read through the first
// worker pipeline; every clone carries the same column list.
func accessColumns(t *testing.T, op exec.Operator, out map[string][][]string) {
	t.Helper()
	switch n := op.(type) {
	case *exec.SeqScan:
		out[n.Alias] = append(out[n.Alias], n.Schema().Names())
	case *exec.MorselScan:
		out[n.Alias] = append(out[n.Alias], n.Schema().Names())
	case *exec.IndexScan:
		out[n.Alias] = append(out[n.Alias], n.Schema().Names())
	case *exec.IndexedFragScan:
		out[n.Alias] = append(out[n.Alias], n.Schema().Names())
	case *exec.IndexLoopJoin:
		lw := len(n.Left.Schema().Cols)
		out[n.Alias] = append(out[n.Alias], n.Schema().Names()[lw:])
		accessColumns(t, n.Left, out)
	case *exec.Filter:
		accessColumns(t, n.Child, out)
	case *exec.Project:
		accessColumns(t, n.Child, out)
	case *exec.HashAggregate:
		accessColumns(t, n.Child, out)
	case *exec.Sort:
		accessColumns(t, n.Child, out)
	case *exec.TopN:
		accessColumns(t, n.Child, out)
	case *exec.Distinct:
		accessColumns(t, n.Child, out)
	case *exec.Limit:
		accessColumns(t, n.Child, out)
	case *exec.TableFuncApply:
		accessColumns(t, n.Child, out)
	case *exec.HashJoin:
		accessColumns(t, n.Left, out)
		accessColumns(t, n.Right, out)
	case *exec.MergeJoin:
		accessColumns(t, n.Left, out)
		accessColumns(t, n.Right, out)
	case *exec.NestedLoopJoin:
		accessColumns(t, n.Left, out)
		accessColumns(t, n.Right, out)
	case *exec.HashProbe:
		accessColumns(t, n.Build.Input, out)
		accessColumns(t, n.Right, out)
	case *exec.Gather:
		accessColumns(t, n.Pipes[0].Root, out)
	default:
		t.Fatalf("accessColumns: unhandled operator %T", op)
	}
}

// TestAccessOperatorsDecodeNamedColumns holds the Hybrid QS1 plan to its
// column lists: every access operator, serial or parallel, emits exactly
// the stored columns the statement names. A table none of whose columns
// is named still yields every row.
func TestAccessOperatorsDecodeNamedColumns(t *testing.T) {
	st, _, err := buildStore(ShakespeareDataset(3), core.Config{Algorithm: core.Hybrid}, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs1 := ShakespeareQueries()[0]
	if qs1.ID != "QS1" {
		t.Fatalf("first Shakespeare query is %s", qs1.ID)
	}
	want := map[string][]string{
		"speech":  {"speechID"},
		"speaker": {"speaker_parentID", "speaker_value"},
		"line":    {"line_parentID", "line_value"},
	}
	cat := st.DB.Catalog
	rows := func(table string) string { return fmt.Sprint(cat.Table(table).Rows()) }
	for _, opts := range []plan.Options{
		{DOP: 1},
		{DOP: 4, MorselPages: 1, CPUs: 4, ForceParallel: true},
		{DOP: 1, Join: plan.JoinMerge},
	} {
		st.DB.SetPlannerOptions(opts)
		op, err := st.DB.Plan(qs1.Hybrid)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][][]string{}
		accessColumns(t, op, got)
		for alias, cols := range want {
			if len(got[alias]) == 0 {
				t.Errorf("%+v: no access operator for %s:\n%s", opts, alias, plan.Explain(op))
			}
			for _, g := range got[alias] {
				if !slices.Equal(g, cols) {
					t.Errorf("%+v: %s emits %v, want %v", opts, alias, g, cols)
				}
			}
		}
		if len(got) != len(want) {
			t.Errorf("%+v: access operators for %v, want %v", opts, reflect.ValueOf(got).MapKeys(), want)
		}

		for q, wantCount := range map[string]string{
			`SELECT COUNT(*) FROM line`:                                rows("line"),
			`SELECT COUNT(*) FROM play, act`:                           fmt.Sprint(cat.Table("play").Rows() * cat.Table("act").Rows()),
			`SELECT COUNT(*) FROM speech, speaker WHERE speakerID = 1`: rows("speech"),
		} {
			res, err := st.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].String() != wantCount {
				t.Errorf("%+v: %s = %v, want %s", opts, q, res.Rows, wantCount)
			}
		}
	}
}
