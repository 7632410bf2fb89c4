package exec

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/types"
	"repro/internal/engine/vec"
)

// valuesSchema builds a two-column (k int, v int) schema for ValuesScan
// boundary tests.
func valuesSchema() *expr.RowSchema {
	return expr.NewRowSchema(expr.ColInfo{Name: "k"}, expr.ColInfo{Name: "v"})
}

func intRows(n int) [][]types.Value {
	rows := make([][]types.Value, n)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 5))}
	}
	return rows
}

func TestHashKeyColsMatchesHashRow(t *testing.T) {
	rows := [][]types.Value{
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(1), types.NewString("b")},
		{types.Null, types.NewString("a")},
		{types.NewInt(-9), types.Null},
	}
	cols := make([][]types.Value, 2)
	for j := range cols {
		cols[j] = make([]types.Value, len(rows))
		for i, r := range rows {
			cols[j][i] = r[j]
		}
	}
	hashes := make([]uint64, len(rows))
	hashKeyCols(cols, &vec.Batch{NRows: len(rows)}, hashes)
	for i, r := range rows {
		if hashes[i] != hashRow(r) {
			t.Errorf("row %d: hashKeyCols = %d, hashRow = %d", i, hashes[i], hashRow(r))
		}
	}
}

// rowsOnly hides its operator's NextBatch: Batched reports false for it,
// so the operators above take their row-at-a-time paths. Tests wrap a
// batch producer in it to compare both paths over the same input.
type rowsOnly struct{ Operator }

// valuesSource returns a ValuesScan over rows, hidden behind rowsOnly
// unless batches is set.
func valuesSource(rows [][]types.Value, batches bool) Operator {
	scan := NewValuesScan(valuesSchema(), rows)
	if !batches {
		return rowsOnly{scan}
	}
	return scan
}

// vecValuesPlan builds scan → filter(v-pred) → limit over rows, with or
// without the batch path engaged.
func vecValuesPlan(t *testing.T, rows [][]types.Value, pred expr.Expr, limit int64, vecOn bool) Operator {
	t.Helper()
	op := valuesSource(rows, vecOn)
	if pred != nil {
		op = NewFilter(op, pred)
	}
	if limit >= 0 {
		op = NewLimit(op, limit)
	}
	if Batched(op) != vecOn {
		t.Fatalf("Batched = %t, want %t", !vecOn, vecOn)
	}
	return op
}

func TestVecBoundaries(t *testing.T) {
	gt := func(n int64) expr.Expr {
		return &expr.Cmp{Op: expr.GT, L: &expr.Col{Idx: 0, Name: "k"}, R: &expr.Const{Val: types.NewInt(n)}}
	}
	cases := []struct {
		name  string
		nrows int
		pred  expr.Expr
		limit int64
	}{
		{"empty-input", 0, nil, -1},
		{"empty-input-limit", 0, nil, 10},
		{"all-filtered", 3000, gt(1 << 50), -1},
		{"limit-1023", 2048, nil, 1023},
		{"limit-1024", 2048, nil, 1024},
		{"limit-1025", 2048, nil, 1025},
		{"limit-on-batch-exact", 1024, nil, 1024},
		{"filtered-limit-crosses-batch", 4096, gt(1000), 1500},
		{"limit-zero", 100, nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := intRows(tc.nrows)
			base := vec.Outstanding()
			want, err := Drain(vecValuesPlan(t, rows, tc.pred, tc.limit, false))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Drain(vecValuesPlan(t, rows, tc.pred, tc.limit, true))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("vectorized output differs: %d vs %d rows", len(got), len(want))
			}
			if vec.Outstanding() != base {
				t.Fatalf("leaked %d batches", vec.Outstanding()-base)
			}
		})
	}
}

func TestVecProjectComputedAndAliased(t *testing.T) {
	rows := intRows(2500)
	build := func(vecOn bool) Operator {
		// One aliased column, one computed expression: exercises both
		// NextBatch paths.
		cmp := &expr.Cmp{Op: expr.GT, L: &expr.Col{Idx: 0, Name: "k"}, R: &expr.Col{Idx: 1, Name: "v"}}
		return NewProject(valuesSource(rows, vecOn), []expr.Expr{&expr.Col{Idx: 1, Name: "v"}, cmp}, []string{"v", "b"})
	}
	want, err := Drain(build(false))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(build(true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("projected output differs: %d vs %d rows", len(got), len(want))
	}
}

func TestVecAggregateMatchesRow(t *testing.T) {
	// Interleave NULL arguments so the skip logic is exercised, and use
	// enough rows that group state spans many batches.
	rows := make([][]types.Value, 5000)
	for i := range rows {
		v := types.NewInt(int64(i))
		if i%7 == 0 {
			v = types.Null
		}
		rows[i] = []types.Value{types.NewInt(int64(i % 13)), v}
	}
	build := func(vecOn bool) Operator {
		arg := &expr.Col{Idx: 1, Name: "v"}
		return NewHashAggregate(valuesSource(rows, vecOn),
			[]expr.Expr{&expr.Col{Idx: 0, Name: "k"}}, []string{"k"},
			[]AggSpec{
				{Kind: AggCount, Name: "cnt"},
				{Kind: AggCount, Arg: arg, Name: "cntv"},
				{Kind: AggSum, Arg: arg, Name: "sum"},
				{Kind: AggMin, Arg: arg, Name: "min"},
				{Kind: AggMax, Arg: arg, Name: "max"},
				{Kind: AggCount, Arg: arg, Distinct: true, Name: "dcnt"},
			})
	}
	want, err := Drain(build(false))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(build(true))
	if err != nil {
		t.Fatal(err)
	}
	// reflect.DeepEqual also checks group emission order: vectorized
	// grouping must preserve first-appearance order.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate output differs:\n got %v\nwant %v", got, want)
	}
}

func TestVecEqualKeyOrderStability(t *testing.T) {
	// Many duplicate sort keys: TopN and Sort must break ties by input
	// order identically whether fed by the shim or by rows.
	rows := make([][]types.Value, 4000)
	for i := range rows {
		rows[i] = []types.Value{types.NewInt(int64(i)), types.NewInt(int64(i % 3))}
	}
	key := []expr.Expr{&expr.Col{Idx: 1, Name: "v"}}
	build := func(vecOn bool, topn bool) Operator {
		scan := valuesSource(rows, vecOn)
		if topn {
			return NewTopN(scan, key, []bool{false}, 50)
		}
		return NewSort(scan, key, []bool{false})
	}
	for _, topn := range []bool{true, false} {
		want, err := Drain(build(false, topn))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Drain(build(true, topn))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("topn=%t: equal-key order differs between row and vec feeds", topn)
		}
	}
}

func TestGatherBatchForwardingMatchesRows(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 3000)
	pred := func(sch *expr.RowSchema) expr.Expr {
		i, err := sch.Resolve("t", "val")
		if err != nil {
			t.Fatal(err)
		}
		return &expr.Cmp{Op: expr.GT, L: &expr.Col{Idx: i, Name: "val"}, R: &expr.Const{Val: types.NewInt(4000)}}
	}
	rowGather := NewGather(scanPipes(tbl, "t", 4, func(op Operator) Operator {
		return NewFilter(rowsOnly{op}, pred(op.Schema()))
	}), 1, nil)
	if Batched(rowGather) {
		t.Fatal("Gather over row pipelines reports batches")
	}
	want, err := Drain(rowGather)
	if err != nil {
		t.Fatal(err)
	}

	base := vec.Outstanding()
	g := NewGather(scanPipes(tbl, "t", 4, func(op Operator) Operator {
		return NewFilter(op, pred(op.Schema()))
	}), 1, nil)
	if !Batched(g) {
		t.Fatal("Gather over batch pipelines reports rows")
	}
	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch-forwarding Gather differs from row Gather: %d vs %d rows", len(got), len(want))
	}
	if vec.Outstanding() != base {
		t.Fatalf("leaked %d batches after drain", vec.Outstanding()-base)
	}
}

func TestGatherBatchEarlyCloseReleasesAll(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 5000)
	for round := 0; round < 3; round++ {
		base := vec.Outstanding()
		g := NewGather(scanPipes(tbl, "t", 4, nil), 1, nil)
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		// Abandon the scan after a handful of rows: Close must release
		// in-flight channel batches, pending out-of-order morsels, and
		// the batch currently being served.
		for i := 0; i < 5*round+1; i++ {
			if _, err := g.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if vec.Outstanding() != base {
			t.Fatalf("round %d: %d batches still outstanding after early Close", round, vec.Outstanding()-base)
		}
	}
}

// The filter benchmarks compare the two predicate evaluation paths over
// the same batch-sized data: per-row Eval against the columnar
// FilterBatch kernel.
func BenchmarkFilterRow(b *testing.B) { benchmarkFilter(b, false) }
func BenchmarkFilterVec(b *testing.B) { benchmarkFilter(b, true) }

func benchmarkFilter(b *testing.B, vecOn bool) {
	const n = vec.DefaultBatchRows
	batch := vec.Get(2)
	defer vec.Release(batch)
	rows := make([][]types.Value, n)
	for i := 0; i < n; i++ {
		batch.Cols[0][i] = types.NewInt(int64(i))
		batch.Cols[1][i] = types.NewInt(int64((i * 7919) % n))
		rows[i] = []types.Value{batch.Cols[0][i], batch.Cols[1][i]}
	}
	batch.NRows = n
	pred := &expr.Cmp{Op: expr.GT, L: &expr.Col{Idx: 1, Name: "v"},
		R: &expr.Const{Val: types.NewInt(n / 2)}}
	var scratch expr.VecScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vecOn {
			batch.Sel = nil
			if err := expr.FilterBatch(pred, batch, &scratch); err != nil {
				b.Fatal(err)
			}
			if k := batch.Active(); k != n/2-1 {
				b.Fatalf("unexpected count %d", k)
			}
		} else {
			k := 0
			for _, r := range rows {
				v, err := pred.Eval(r)
				if err != nil {
					b.Fatal(err)
				}
				if v.Truthy() {
					k++
				}
			}
			if k != n/2-1 {
				b.Fatalf("unexpected count %d", k)
			}
		}
	}
}

func BenchmarkHashRow(b *testing.B) { benchmarkHash(b, false) }
func BenchmarkHashVec(b *testing.B) { benchmarkHash(b, true) }

func benchmarkHash(b *testing.B, vecOn bool) {
	const n = vec.DefaultBatchRows
	cols := [][]types.Value{make([]types.Value, n), make([]types.Value, n)}
	rows := make([][]types.Value, n)
	for i := 0; i < n; i++ {
		cols[0][i] = types.NewInt(int64(i % 64))
		cols[1][i] = types.NewString(fmt.Sprintf("g%d", i%64))
		rows[i] = []types.Value{cols[0][i], cols[1][i]}
	}
	hashes := make([]uint64, n)
	batch := &vec.Batch{NRows: n}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vecOn {
			hashKeyCols(cols, batch, hashes)
		} else {
			for r := 0; r < n; r++ {
				hashes[r] = hashRow(rows[r])
			}
		}
	}
}
