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

// fixture builds: dept(deptID, name), emp(empID, emp_deptID, emp_name).
func fixture(t *testing.T) (*catalog.Catalog, *Planner) {
	t.Helper()
	cat := catalog.New(nil)
	dept, err := cat.CreateTable("dept", []catalog.Column{
		{Name: "deptID", Type: types.KindInt},
		{Name: "dept_name", Type: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	emp, err := cat.CreateTable("emp", []catalog.Column{
		{Name: "empID", Type: types.KindInt},
		{Name: "emp_deptID", Type: types.KindInt},
		{Name: "emp_name", Type: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"eng", "sales", "hr"}
	for i := 0; i < 3; i++ {
		dept.Insert([]types.Value{types.NewInt(int64(i)), types.NewString(names[i])})
	}
	for i := 0; i < 60; i++ {
		emp.Insert([]types.Value{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 3)),
			types.NewString([]string{"ann", "bob", "cat", "dan"}[i%4]),
		})
	}
	if err := cat.RunStatsAll(); err != nil {
		t.Fatal(err)
	}
	return cat, New(cat, expr.NewRegistry())
}

func runQuery(t *testing.T, p *Planner, q string) [][]types.Value {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	op, err := p.Plan(stmt)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return rows
}

func TestPlanSimpleSelect(t *testing.T) {
	_, p := fixture(t)
	rows := runQuery(t, p, `SELECT dept_name FROM dept WHERE deptID = 1`)
	if len(rows) != 1 || rows[0][0].Str() != "sales" {
		t.Errorf("rows = %v", rows)
	}
}

func TestPlanJoin(t *testing.T) {
	_, p := fixture(t)
	rows := runQuery(t, p, `
SELECT emp_name, dept_name FROM emp, dept
WHERE emp_deptID = deptID AND dept_name = 'eng'`)
	if len(rows) != 20 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	for _, r := range rows {
		if r[1].Str() != "eng" {
			t.Fatalf("row = %v", r)
		}
	}
}

func TestPlanUsesIndexScan(t *testing.T) {
	cat, p := fixture(t)
	if _, err := cat.CreateIndex("emp", "empID"); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sql.Parse(`SELECT emp_name FROM emp WHERE empID = 7`)
	op, err := p.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Explain(op), "IndexScan") {
		t.Errorf("plan should use the index:\n%s", Explain(op))
	}
	rows, _ := exec.Drain(op)
	if len(rows) != 1 || rows[0][0].Str() != "dan" {
		t.Errorf("rows = %v", rows)
	}
	// Disabled index scan falls back to a sequential scan.
	p.Opts.DisableIndexScan = true
	op, _ = p.Plan(stmt)
	if strings.Contains(Explain(op), "IndexScan") {
		t.Error("index scan should be disabled")
	}
}

func TestPlanPushdown(t *testing.T) {
	_, p := fixture(t)
	stmt, _ := sql.Parse(`SELECT empID FROM emp, dept WHERE emp_deptID = deptID AND emp_name = 'ann'`)
	op, err := p.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	text := Explain(op)
	// The emp_name filter is fused into emp's scan, below the join.
	joinLine := strings.Index(text, "Join")
	filterLine := strings.Index(text, "SeqScan(emp as emp, filter: emp_name = 'ann')")
	if filterLine < 0 || joinLine < 0 || filterLine < joinLine {
		t.Errorf("pushdown missing:\n%s", text)
	}
}

func TestPlanCrossProductWhenDisconnected(t *testing.T) {
	_, p := fixture(t)
	rows := runQuery(t, p, `SELECT empID FROM emp, dept`)
	if len(rows) != 180 {
		t.Errorf("cross product = %d rows, want 180", len(rows))
	}
}

func TestPlanSelfJoin(t *testing.T) {
	_, p := fixture(t)
	rows := runQuery(t, p, `
SELECT a.empID FROM emp a, emp b
WHERE a.empID = b.empID AND b.emp_name = 'ann'`)
	if len(rows) != 15 {
		t.Errorf("self join = %d rows, want 15", len(rows))
	}
}

func TestPlanAggregates(t *testing.T) {
	_, p := fixture(t)
	rows := runQuery(t, p, `
SELECT emp_deptID, COUNT(*) AS n FROM emp GROUP BY emp_deptID ORDER BY emp_deptID`)
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) || r[1].Int() != 20 {
			t.Errorf("group %d = %v", i, r)
		}
	}
}

func TestPlanCountDistinct(t *testing.T) {
	_, p := fixture(t)
	rows := runQuery(t, p, `SELECT COUNT(DISTINCT emp_name) FROM emp`)
	if len(rows) != 1 || rows[0][0].Int() != 4 {
		t.Errorf("count distinct = %v", rows)
	}
}

func TestPlanDistinctAndOrder(t *testing.T) {
	_, p := fixture(t)
	rows := runQuery(t, p, `SELECT DISTINCT emp_name FROM emp ORDER BY emp_name DESC`)
	if len(rows) != 4 || rows[0][0].Str() != "dan" || rows[3][0].Str() != "ann" {
		t.Errorf("rows = %v", rows)
	}
}

func TestPlanGroupBySelectValidation(t *testing.T) {
	_, p := fixture(t)
	stmt, _ := sql.Parse(`SELECT emp_name, COUNT(*) FROM emp GROUP BY emp_deptID`)
	if _, err := p.Plan(stmt); err == nil {
		t.Error("selecting a non-grouped column should fail")
	}
}

func TestPlanErrors(t *testing.T) {
	_, p := fixture(t)
	cases := []string{
		`SELECT x FROM ghost`,
		`SELECT ghost FROM emp`,
		`SELECT empID FROM emp, emp`,            // duplicate alias
		`SELECT nosuch(empID) FROM emp`,         // unknown function
		`SELECT empID FROM emp WHERE q.x = 1`,   // unknown alias
		`SELECT e.empID FROM TABLE(nofn(1)) tf`, // unknown table function
	}
	for _, q := range cases {
		stmt, err := sql.Parse(q)
		if err != nil {
			continue
		}
		if _, err := p.Plan(stmt); err == nil {
			t.Errorf("Plan(%q) succeeded, want error", q)
		}
	}
}

func TestPlanAmbiguousColumn(t *testing.T) {
	_, p := fixture(t)
	stmt, _ := sql.Parse(`SELECT empID FROM emp a, emp b WHERE empID = 1`)
	if _, err := p.Plan(stmt); err == nil {
		t.Error("ambiguous unqualified column should fail")
	}
}

func TestPlanTableFunction(t *testing.T) {
	cat, p := fixture(t)
	_ = cat
	reg := expr.NewRegistry()
	reg.RegisterTable(&expr.TableFunc{
		Name: "splitName", Cols: []string{"out"}, Types: []types.Kind{types.KindString},
		MinArgs: 1, MaxArgs: 1,
		Fn: func(args []types.Value) ([][]types.Value, error) {
			s := args[0].Str()
			out := make([][]types.Value, len(s))
			for i := range s {
				out[i] = []types.Value{types.NewString(s[i : i+1])}
			}
			return out, nil
		},
	})
	p.Reg = reg
	rows := runQuery(t, p, `
SELECT DISTINCT letters.out AS letter
FROM emp, TABLE(splitName(emp_name)) letters
WHERE emp_name = 'bob'`)
	// "bob" → letters b, o.
	if len(rows) != 2 {
		t.Errorf("letters = %v", rows)
	}
}

func TestPlanPushdownIntoTableFunc(t *testing.T) {
	_, p := fixture(t)
	reg := expr.NewRegistry()
	reg.RegisterTable(&expr.TableFunc{
		Name: "splitName", Cols: []string{"out"}, Types: []types.Kind{types.KindString},
		MinArgs: 1, MaxArgs: 1,
		Fn: func(args []types.Value) ([][]types.Value, error) {
			s := args[0].Str()
			out := make([][]types.Value, len(s))
			for i := range s {
				out[i] = []types.Value{types.NewString(s[i : i+1])}
			}
			return out, nil
		},
	})
	p.Reg = reg
	q := `SELECT empID FROM emp, TABLE(splitName(emp_name)) letters WHERE letters.out = 'b'`
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	op, err := p.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	text := Explain(op)
	if !strings.Contains(text, "TableFuncApply(splitName as letters, filter: letters.out = 'b')") {
		t.Errorf("predicate on the function output should fuse into the apply:\n%s", text)
	}
	rows, err := exec.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	// 15 of the 60 employees are "bob", each contributing two b's.
	if len(rows) != 30 {
		t.Errorf("fused apply filter returned %d rows, want 30", len(rows))
	}
}

func TestCountJoins(t *testing.T) {
	_, p := fixture(t)
	for _, tc := range []struct {
		q    string
		want int
	}{
		{`SELECT empID FROM emp`, 0},
		{`SELECT empID FROM emp, dept WHERE emp_deptID = deptID`, 1},
		{`SELECT a.empID FROM emp a, emp b, dept WHERE a.empID = b.empID AND a.emp_deptID = deptID`, 2},
	} {
		stmt, _ := sql.Parse(tc.q)
		op, err := p.Plan(stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if got := CountJoins(op); got != tc.want {
			t.Errorf("CountJoins(%q) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestSmallestTableJoinsFirst(t *testing.T) {
	_, p := fixture(t)
	stmt, _ := sql.Parse(`SELECT empID FROM emp, dept WHERE emp_deptID = deptID`)
	op, err := p.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	text := Explain(op)
	// dept (3 rows) is the build side: its scan appears before emp's.
	di := strings.Index(text, "SeqScan(dept")
	ei := strings.Index(text, "SeqScan(emp")
	if di < 0 || ei < 0 || di > ei {
		t.Errorf("smallest table should lead:\n%s", text)
	}
}

func TestIndexLoopJoin(t *testing.T) {
	cat, p := fixture(t)
	if _, err := cat.CreateIndex("emp", "emp_deptID"); err != nil {
		t.Fatal(err)
	}
	// One eng department probing emp's index undercuts scanning emp.
	stmt, _ := sql.Parse(`SELECT emp_name FROM emp, dept WHERE emp_deptID = deptID AND dept_name = 'eng'`)
	op, err := p.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	text := Explain(op)
	if !strings.Contains(text, "IndexLoopJoin") {
		t.Fatalf("expected index loop join:\n%s", text)
	}
	rows, err := exec.Drain(op)
	if err != nil || len(rows) != 20 {
		t.Fatalf("rows = %d, %v", len(rows), err)
	}
	// With index access disabled the join hashes, and returns the same
	// rows in the same order.
	p.Opts.DisableIndexScan = true
	op, err = p.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if text := Explain(op); strings.Contains(text, "IndexLoopJoin") || !strings.Contains(text, "HashJoin") {
		t.Fatalf("expected a hash join with DisableIndexScan:\n%s", text)
	}
	hashRows, err := exec.Drain(op)
	if err != nil || !reflect.DeepEqual(hashRows, rows) {
		t.Errorf("hash join rows = %v (%v), index join rows = %v", hashRows, err, rows)
	}
}

func TestIndexLoopJoinSkippedWithoutIndex(t *testing.T) {
	_, p := fixture(t)
	stmt, _ := sql.Parse(`SELECT emp_name FROM emp, dept WHERE emp_deptID = deptID`)
	op, err := p.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(Explain(op), "IndexLoopJoin") {
		t.Error("index loop join chosen without an index")
	}
}

func TestIndexLoopJoinSkippedWithPushdown(t *testing.T) {
	cat, p := fixture(t)
	if _, err := cat.CreateIndex("emp", "emp_deptID"); err != nil {
		t.Fatal(err)
	}
	// emp has a pushed predicate, so it keeps its own access path.
	stmt, _ := sql.Parse(`SELECT emp_name FROM emp, dept WHERE emp_deptID = deptID AND emp_name = 'ann'`)
	op, err := p.Plan(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(Explain(op), "IndexLoopJoin") {
		t.Errorf("index loop join despite pushdown:\n%s", Explain(op))
	}
	rows, err := exec.Drain(op)
	if err != nil || len(rows) != 15 {
		t.Fatalf("rows = %d, %v", len(rows), err)
	}
}

func TestPlanHaving(t *testing.T) {
	_, p := fixture(t)
	rows := runQuery(t, p, `
SELECT emp_name, COUNT(*) AS n FROM emp GROUP BY emp_name HAVING n >= 15 ORDER BY emp_name`)
	// 60 employees over 4 names: ann gets 15, the rest also 15 each.
	if len(rows) != 4 {
		t.Fatalf("groups = %v", rows)
	}
	rows = runQuery(t, p, `
SELECT emp_name, COUNT(*) AS n FROM emp GROUP BY emp_name HAVING n > 15`)
	if len(rows) != 0 {
		t.Errorf("groups over 15 = %v", rows)
	}
}

func TestPlanHavingRequiresAggregation(t *testing.T) {
	_, p := fixture(t)
	stmt, err := sql.Parse(`SELECT empID FROM emp HAVING empID > 3`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(stmt); err == nil {
		t.Error("HAVING without aggregation accepted")
	}
}

func TestPlanLimit(t *testing.T) {
	_, p := fixture(t)
	rows := runQuery(t, p, `SELECT empID FROM emp ORDER BY empID LIMIT 7`)
	if len(rows) != 7 || rows[6][0].Int() != 6 {
		t.Errorf("rows = %v", rows)
	}
	rows = runQuery(t, p, `SELECT empID FROM emp LIMIT 0`)
	if len(rows) != 0 {
		t.Errorf("limit 0 rows = %v", rows)
	}
	// Limit larger than result.
	rows = runQuery(t, p, `SELECT DISTINCT emp_name FROM emp LIMIT 100`)
	if len(rows) != 4 {
		t.Errorf("rows = %v", rows)
	}
}
