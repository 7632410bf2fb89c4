package exec

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/types"
)

// buildTable creates a table of n rows: (id, grp string, val int).
func buildTable(t *testing.T, c *catalog.Catalog, name string, n int) *catalog.Table {
	t.Helper()
	tbl, err := c.CreateTable(name, []catalog.Column{
		{Name: "id", Type: types.KindInt},
		{Name: "grp", Type: types.KindString},
		{Name: "val", Type: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		err := tbl.Insert([]types.Value{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("g%d", i%3)),
			types.NewInt(int64(i * 10)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func col(schema *expr.RowSchema, q, n string, t *testing.T) *expr.Col {
	t.Helper()
	i, err := schema.Resolve(q, n)
	if err != nil {
		t.Fatalf("resolve %s.%s: %v", q, n, err)
	}
	return &expr.Col{Idx: i, Name: n}
}

func TestSeqScan(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 100)
	rows, err := Drain(NewSeqScan(tbl, "t", nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[7][0].Int() != 7 {
		t.Errorf("row 7 = %v", rows[7])
	}
}

func TestSeqScanReopen(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 10)
	scan := NewSeqScan(tbl, "t", nil)
	for round := 0; round < 2; round++ {
		rows, err := Drain(scan)
		if err != nil || len(rows) != 10 {
			t.Fatalf("round %d: %d rows, %v", round, len(rows), err)
		}
	}
}

func TestIndexScan(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 300)
	if _, err := c.CreateIndex("t", "grp"); err != nil {
		t.Fatal(err)
	}
	idx := tbl.IndexOn("grp")
	rows, err := Drain(NewIndexScan(tbl, "t", nil, idx, types.NewString("g1")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("got %d rows, want 100", len(rows))
	}
	for _, r := range rows {
		if r[1].Str() != "g1" {
			t.Fatalf("wrong group: %v", r)
		}
	}
}

func TestFilter(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 50)
	scan := NewSeqScan(tbl, "t", nil)
	pred := &expr.Cmp{Op: expr.LT, L: col(scan.Schema(), "t", "id", t), R: &expr.Const{Val: types.NewInt(5)}}
	rows, err := Drain(NewFilter(scan, pred))
	if err != nil || len(rows) != 5 {
		t.Fatalf("got %d rows, %v", len(rows), err)
	}
}

// TestVecBoundaries runs scan → filter → limit, with the predicate above
// the scan and fused into its column-major decode, at sizes and bounds
// on either side of the decode unit (scanBatchRows): the output is every
// row whose id passes, in heap order, cut at the bound.
func TestVecBoundaries(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 4096)
	unit := buildTable(t, c, "unit", scanBatchRows)
	empty := buildTable(t, c, "empty", 0)
	cases := []struct {
		name  string
		tbl   *catalog.Table
		n     int64 // the predicate is id > n; n < 0 means none
		limit int64 // < 0 means no Limit
		want  []int64
	}{
		{"empty-input", empty, -1, -1, nil},
		{"empty-input-limit", empty, -1, 10, nil},
		{"all-filtered", tbl, 1 << 50, -1, nil},
		{"limit-zero", tbl, -1, 0, nil},
		{"limit-1023", tbl, -1, 1023, ids(0, 1023)},
		{"limit-1024", tbl, -1, 1024, ids(0, 1024)},
		{"limit-1025", tbl, -1, 1025, ids(0, 1025)},
		{"limit-on-batch-exact", unit, -1, scanBatchRows, ids(0, scanBatchRows)},
		{"limit-beyond-input", tbl, -1, 5000, ids(0, 4096)},
		{"filtered-limit-crosses-batch", tbl, 1000, 1500, ids(1001, 2501)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want [][]types.Value
			for _, id := range tc.want {
				want = append(want, []types.Value{
					types.NewInt(id), types.NewString(fmt.Sprintf("g%d", id%3)), types.NewInt(id * 10),
				})
			}
			for _, fused := range []bool{false, true} {
				scan := NewSeqScan(tc.tbl, "t", nil)
				op := Operator(scan)
				if tc.n >= 0 {
					pred := &expr.Cmp{Op: expr.GT, L: col(scan.Schema(), "t", "id", t), R: &expr.Const{Val: types.NewInt(tc.n)}}
					if fused {
						scan.Pred = pred
					} else {
						op = NewFilter(op, pred)
					}
				}
				if tc.limit >= 0 {
					op = NewLimit(op, tc.limit)
				}
				rows, err := Drain(op)
				if err != nil {
					t.Fatalf("fused=%t: %v", fused, err)
				}
				if !reflect.DeepEqual(rows, want) {
					t.Fatalf("fused=%t: %d rows, want %d", fused, len(rows), len(want))
				}
			}
		})
	}
}

// ids returns lo, lo+1, ..., hi-1.
func ids(lo, hi int64) []int64 {
	var out []int64
	for id := lo; id < hi; id++ {
		out = append(out, id)
	}
	return out
}

// valuesRows returns n rows (k, v) of ints with k = i and v = i % 5,
// under the schema valuesSchema.
func valuesRows(n int) [][]types.Value {
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 5))}
	}
	return rows
}

func valuesSchema() *expr.RowSchema {
	return expr.NewRowSchema(expr.ColInfo{Name: "k"}, expr.ColInfo{Name: "v"})
}

// TestVecProjectComputedAndAliased projects a renamed bare column and a
// computed comparison over more rows than one decode unit.
func TestVecProjectComputedAndAliased(t *testing.T) {
	rows := valuesRows(2500)
	k := &expr.Col{Idx: 0, Name: "k"}
	v := &expr.Col{Idx: 1, Name: "v"}
	p := NewProject(NewValuesScan(valuesSchema(), rows),
		[]expr.Expr{v, &expr.Cmp{Op: expr.GT, L: k, R: v}}, []string{"w", "b"})
	got, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]types.Value, len(rows))
	for i, r := range rows {
		want[i] = []types.Value{r[1], types.NewBool(r[0].Int() > r[1].Int())}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("projected output differs: %d vs %d rows", len(got), len(want))
	}
	if names := p.Schema().Names(); !reflect.DeepEqual(names, []string{"w", "b"}) {
		t.Errorf("schema = %v", names)
	}
}

// TestVecAggregateMatchesRow groups 5000 rows, one argument in seven
// NULL, and holds every aggregate to a per-group tally: groups come out
// in first-appearance order, COUNT(*) counts every row, and the
// aggregates over the argument, COUNT(DISTINCT) included, skip NULLs.
func TestVecAggregateMatchesRow(t *testing.T) {
	const groups = 13
	rows := make([][]types.Value, 5000)
	type tally struct{ cnt, cntv, sum, min, max int64 }
	want := make([]tally, groups)
	for i := range want {
		want[i].min = -1
	}
	for i := range rows {
		g := int64(i % groups)
		v := types.NewInt(int64(i))
		w := &want[g]
		w.cnt++
		if i%7 == 0 {
			v = types.Null
		} else {
			w.cntv++
			w.sum += int64(i)
			if w.min < 0 {
				w.min = int64(i)
			}
			w.max = int64(i)
		}
		rows[i] = []types.Value{types.NewInt(g), v}
	}
	arg := &expr.Col{Idx: 1, Name: "v"}
	agg := NewHashAggregate(NewValuesScan(valuesSchema(), rows),
		[]expr.Expr{&expr.Col{Idx: 0, Name: "k"}}, []string{"k"},
		[]AggSpec{
			{Kind: AggCount, Name: "cnt"},
			{Kind: AggCount, Arg: arg, Name: "cntv"},
			{Kind: AggSum, Arg: arg, Name: "sum"},
			{Kind: AggMin, Arg: arg, Name: "min"},
			{Kind: AggMax, Arg: arg, Name: "max"},
			{Kind: AggCount, Arg: arg, Distinct: true, Name: "dcnt"},
		})
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	var wantRows [][]types.Value
	for g, w := range want {
		// The arguments are distinct, so COUNT(DISTINCT) equals COUNT.
		wantRows = append(wantRows, []types.Value{
			types.NewInt(int64(g)), types.NewInt(w.cnt), types.NewInt(w.cntv), types.NewInt(w.sum),
			types.NewInt(w.min), types.NewInt(w.max), types.NewInt(w.cntv),
		})
	}
	if !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("aggregate output differs:\n got %v\nwant %v", got, wantRows)
	}
}

// TestVecEqualKeyOrderStability sorts 4000 rows on a key with three
// values: Sort and TopN both keep rows with equal keys in input order.
func TestVecEqualKeyOrderStability(t *testing.T) {
	rows := make([][]types.Value, 4000)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 3))}
	}
	want := append([][]types.Value(nil), rows...)
	sort.SliceStable(want, func(a, b int) bool { return want[a][1].Int() < want[b][1].Int() })
	key := []expr.Expr{&expr.Col{Idx: 1, Name: "v"}}
	for _, topn := range []bool{true, false} {
		var op Operator = NewSort(NewValuesScan(valuesSchema(), rows), key, []bool{false})
		w := want
		if topn {
			op = NewTopN(NewValuesScan(valuesSchema(), rows), key, []bool{false}, 50)
			w = want[:50]
		}
		got, err := Drain(op)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("topn=%t: equal keys out of input order", topn)
		}
	}
}

func TestProject(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 3)
	scan := NewSeqScan(tbl, "t", nil)
	p := NewProject(scan, []expr.Expr{col(scan.Schema(), "t", "val", t)}, []string{"v"})
	rows, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || len(rows[0]) != 1 || rows[2][0].Int() != 20 {
		t.Fatalf("rows = %v", rows)
	}
	if p.Schema().Cols[0].Name != "v" {
		t.Errorf("schema = %v", p.Schema().Cols)
	}
}

func TestSortAscDesc(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 20)
	scan := NewSeqScan(tbl, "t", nil)
	key := col(scan.Schema(), "t", "id", t)
	rows, err := Drain(NewSort(scan, []expr.Expr{key}, []bool{true}))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 19 || rows[19][0].Int() != 0 {
		t.Errorf("desc sort: first=%v last=%v", rows[0][0], rows[19][0])
	}
}

func TestSortMultiKey(t *testing.T) {
	schema := expr.NewRowSchema(expr.ColInfo{Name: "a"}, expr.ColInfo{Name: "b"})
	rows := [][]types.Value{
		{types.NewString("x"), types.NewInt(2)},
		{types.NewString("x"), types.NewInt(1)},
		{types.NewString("a"), types.NewInt(9)},
	}
	s := NewSort(NewValuesScan(schema, rows),
		[]expr.Expr{&expr.Col{Idx: 0, Name: "a"}, &expr.Col{Idx: 1, Name: "b"}},
		[]bool{false, false})
	got, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Str() != "a" || got[1][1].Int() != 1 || got[2][1].Int() != 2 {
		t.Errorf("sorted = %v", got)
	}
}

// TestDistinct holds DISTINCT's plan shape, a HashAggregate grouping on
// every column with no aggregates, to duplicate elimination in
// first-appearance order.
func TestDistinct(t *testing.T) {
	schema := expr.NewRowSchema(expr.ColInfo{Name: "s"}, expr.ColInfo{Name: "n"})
	row := func(s string, n int64) []types.Value {
		return []types.Value{types.NewString(s), types.NewInt(n)}
	}
	rows := [][]types.Value{
		row("b", 2), row("a", 1), row("b", 2), row("a", 2), row("a", 1), row("c", 3), row("b", 2),
	}
	want := [][]types.Value{row("b", 2), row("a", 1), row("a", 2), row("c", 3)}
	keys := []expr.Expr{&expr.Col{Idx: 0, Name: "s"}, &expr.Col{Idx: 1, Name: "n"}}
	got, err := Drain(NewHashAggregate(NewValuesScan(schema, rows), keys, schema.Names(), nil))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("distinct = %v, %v; want %v", got, err, want)
	}
}

func joinKeys(t *testing.T, j Operator, lq, ln, rq, rn string) (expr.Expr, expr.Expr) {
	t.Helper()
	s := j.Schema()
	return col(s, lq, ln, t), col(s, rq, rn, t)
}

func TestJoinsAgree(t *testing.T) {
	c := catalog.New(nil)
	left := buildTable(t, c, "l", 60)
	right := buildTable(t, c, "r", 45)

	// Equi-join l.id = r.id: expect 45 matches.
	build := func(kind string) Operator {
		ls := NewSeqScan(left, "l", nil)
		rs := NewSeqScan(right, "r", nil)
		joined := expr.Concat(ls.Schema(), rs.Schema())
		lk := col(joined, "l", "id", t)
		rk := col(joined, "r", "id", t)
		switch kind {
		case "hash":
			return NewHashJoin(ls, rs, lk, rk)
		case "merge":
			return NewMergeJoin(ls, rs, lk, rk)
		default:
			return NewNestedLoopJoin(ls, rs, &expr.Cmp{Op: expr.EQ, L: lk, R: rk})
		}
	}
	var results [][][]types.Value
	for _, kind := range []string{"hash", "merge", "nlj"} {
		rows, err := Drain(build(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(rows) != 45 {
			t.Fatalf("%s: %d rows, want 45", kind, len(rows))
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a][0].Int() < rows[b][0].Int() })
		results = append(results, rows)
	}
	for i := range results[0] {
		for _, other := range results[1:] {
			if !rowsEqual(results[0][i], other[i]) {
				t.Fatalf("join algorithms disagree at row %d: %v vs %v", i, results[0][i], other[i])
			}
		}
	}
}

// BenchmarkHashJoin joins 20k rows to 20k rows on a unique int key
// through the serial in-memory build. Its B/op and allocs/op guard the
// single-pass build: a serial build needs no per-row side arrays.
func BenchmarkHashJoin(b *testing.B) {
	const n = 20000
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i))}
	}
	ls := expr.NewRowSchema(expr.ColInfo{Qualifier: "l", Name: "k", Type: types.KindInt})
	rs := expr.NewRowSchema(expr.ColInfo{Qualifier: "r", Name: "k", Type: types.KindInt})
	lk, rk := &expr.Col{Idx: 0, Name: "k"}, &expr.Col{Idx: 1, Name: "k"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Drain(NewHashJoin(NewValuesScan(ls, rows), NewValuesScan(rs, rows), lk, rk))
		if err != nil || len(out) != n {
			b.Fatalf("joined %d rows, %v; want %d", len(out), err, n)
		}
	}
}

func TestJoinDuplicateKeys(t *testing.T) {
	schema := expr.NewRowSchema(expr.ColInfo{Qualifier: "a", Name: "k"})
	schemaB := expr.NewRowSchema(expr.ColInfo{Qualifier: "b", Name: "k"})
	mk := func(vals ...int64) [][]types.Value {
		var out [][]types.Value
		for _, v := range vals {
			out = append(out, []types.Value{types.NewInt(v)})
		}
		return out
	}
	// 3 x 2 duplicates of key 1 → 6 output rows; plus 1 x 1 of key 2.
	l := NewValuesScan(schema, mk(1, 1, 1, 2))
	r := NewValuesScan(schemaB, mk(1, 1, 2))
	joined := expr.Concat(schema, schemaB)
	lk := col(joined, "a", "k", t)
	rk := col(joined, "b", "k", t)
	for _, j := range []Operator{
		NewHashJoin(l, r, lk, rk),
		NewMergeJoin(l, r, lk, rk),
	} {
		rows, err := Drain(j)
		if err != nil || len(rows) != 7 {
			t.Errorf("%T: %d rows, want 7 (%v)", j, len(rows), err)
		}
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	schema := expr.NewRowSchema(expr.ColInfo{Qualifier: "a", Name: "k"})
	schemaB := expr.NewRowSchema(expr.ColInfo{Qualifier: "b", Name: "k"})
	l := NewValuesScan(schema, [][]types.Value{{types.Null}, {types.NewInt(1)}})
	r := NewValuesScan(schemaB, [][]types.Value{{types.Null}, {types.NewInt(1)}})
	joined := expr.Concat(schema, schemaB)
	lk := col(joined, "a", "k", t)
	rk := col(joined, "b", "k", t)
	for _, j := range []Operator{
		NewHashJoin(l, r, lk, rk),
		NewMergeJoin(l, r, lk, rk),
	} {
		rows, err := Drain(j)
		if err != nil || len(rows) != 1 {
			t.Errorf("%T: %d rows, want 1 (%v)", j, len(rows), err)
		}
	}
}

func TestCrossProduct(t *testing.T) {
	s := expr.NewRowSchema(expr.ColInfo{Name: "x"})
	l := NewValuesScan(s, [][]types.Value{{types.NewInt(1)}, {types.NewInt(2)}})
	r := NewValuesScan(expr.NewRowSchema(expr.ColInfo{Name: "y"}),
		[][]types.Value{{types.NewInt(10)}, {types.NewInt(20)}, {types.NewInt(30)}})
	rows, err := Drain(NewNestedLoopJoin(l, r, nil))
	if err != nil || len(rows) != 6 {
		t.Fatalf("cross product = %d rows, %v", len(rows), err)
	}
}

func TestTableFuncApply(t *testing.T) {
	schema := expr.NewRowSchema(expr.ColInfo{Qualifier: "t", Name: "n"})
	input := NewValuesScan(schema, [][]types.Value{
		{types.NewInt(2)}, {types.NewInt(0)}, {types.NewInt(3)},
	})
	// repeat(n) emits n rows of n*100.
	repeat := &expr.TableFunc{
		Name: "repeat", Cols: []string{"out"}, Types: []types.Kind{types.KindInt},
		MinArgs: 1, MaxArgs: 1,
		Fn: func(args []types.Value) ([][]types.Value, error) {
			var out [][]types.Value
			for i := int64(0); i < args[0].Int(); i++ {
				out = append(out, []types.Value{types.NewInt(args[0].Int() * 100)})
			}
			return out, nil
		},
	}
	apply := NewTableFuncApply(input, repeat, []expr.Expr{&expr.Col{Idx: 0, Name: "n"}}, "r")
	rows, err := Drain(apply)
	if err != nil {
		t.Fatal(err)
	}
	// n=2 → 2 rows; n=0 → none; n=3 → 3 rows.
	if len(rows) != 5 {
		t.Fatalf("apply = %d rows, want 5", len(rows))
	}
	if rows[0][1].Int() != 200 || rows[4][1].Int() != 300 {
		t.Errorf("rows = %v", rows)
	}
	if got, err := apply.Schema().Resolve("r", "out"); err != nil || got != 1 {
		t.Errorf("schema resolve r.out = %d, %v", got, err)
	}
}

func TestHashAggregateGroups(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 30)
	scan := NewSeqScan(tbl, "t", nil)
	g := col(scan.Schema(), "t", "grp", t)
	v := col(scan.Schema(), "t", "val", t)
	agg := NewHashAggregate(scan,
		[]expr.Expr{g}, []string{"grp"},
		[]AggSpec{
			{Kind: AggCount, Name: "n"},
			{Kind: AggSum, Arg: v, Name: "total"},
			{Kind: AggMin, Arg: v, Name: "lo"},
			{Kind: AggMax, Arg: v, Name: "hi"},
		})
	rows, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	byGrp := map[string][]types.Value{}
	for _, r := range rows {
		byGrp[r[0].Str()] = r
	}
	g0 := byGrp["g0"] // ids 0,3,...,27 → vals 0,30,...,270
	if g0[1].Int() != 10 {
		t.Errorf("count = %v", g0[1])
	}
	if g0[2].Int() != 1350 {
		t.Errorf("sum = %v", g0[2])
	}
	if g0[3].Int() != 0 || g0[4].Int() != 270 {
		t.Errorf("min/max = %v/%v", g0[3], g0[4])
	}
}

func TestHashAggregateDistinctCount(t *testing.T) {
	schema := expr.NewRowSchema(expr.ColInfo{Name: "s"})
	rows := [][]types.Value{
		{types.NewString("a")}, {types.NewString("b")},
		{types.NewString("a")}, {types.Null},
	}
	agg := NewHashAggregate(NewValuesScan(schema, rows), nil, nil,
		[]AggSpec{{Kind: AggCount, Arg: &expr.Col{Idx: 0, Name: "s"}, Distinct: true, Name: "n"}})
	got, err := Drain(agg)
	if err != nil || len(got) != 1 {
		t.Fatalf("agg = %v, %v", got, err)
	}
	// NULLs don't count; distinct over {a, b}.
	if got[0][0].Int() != 2 {
		t.Errorf("count distinct = %v", got[0][0])
	}
}

func TestHashAggregateEmptyInput(t *testing.T) {
	schema := expr.NewRowSchema(expr.ColInfo{Name: "s"})
	agg := NewHashAggregate(NewValuesScan(schema, nil), nil, nil,
		[]AggSpec{{Kind: AggCount, Name: "n"}})
	got, err := Drain(agg)
	if err != nil || len(got) != 1 || got[0][0].Int() != 0 {
		t.Fatalf("COUNT(*) over empty = %v, %v", got, err)
	}
	// With GROUP BY, empty input yields no groups.
	agg2 := NewHashAggregate(NewValuesScan(schema, nil),
		[]expr.Expr{&expr.Col{Idx: 0, Name: "s"}}, []string{"s"},
		[]AggSpec{{Kind: AggCount, Name: "n"}})
	got2, err := Drain(agg2)
	if err != nil || len(got2) != 0 {
		t.Fatalf("grouped empty = %v, %v", got2, err)
	}
}
