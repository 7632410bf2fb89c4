package exec

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/expr"
	"repro/internal/engine/types"
	"repro/internal/testutil"
)

// scanPipes builds dop identical SeqScan-rooted pipelines over tbl,
// optionally wrapping each scan with wrap.
func scanPipes(tbl *catalog.Table, alias string, dop int, wrap func(Operator) Operator) []Pipeline {
	pipes := make([]Pipeline, dop)
	for i := range pipes {
		leaf := NewSeqScan(tbl, alias, nil)
		root := Operator(leaf)
		if wrap != nil {
			root = wrap(root)
		}
		pipes[i] = Pipeline{Root: root, Leaf: leaf}
	}
	return pipes
}

func TestGatherMatchesSerialOrder(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 3000)
	if tbl.Heap.DataPages() < 4 {
		t.Fatalf("table too small to morselize: %d pages", tbl.Heap.DataPages())
	}
	want, err := Drain(NewSeqScan(tbl, "t", nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 2, 4, 7} {
		g := NewGather(scanPipes(tbl, "t", dop, nil), 1, nil)
		got, err := Drain(g)
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dop=%d: parallel scan order differs from serial (%d vs %d rows)",
				dop, len(got), len(want))
		}
	}
}

func TestGatherWithFilterMatchesSerial(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 2500)
	scan := NewSeqScan(tbl, "t", nil)
	pred := func(sch *expr.RowSchema) expr.Expr {
		return &expr.Cmp{Op: expr.GT, L: col(sch, "t", "val", t), R: &expr.Const{Val: types.NewInt(5000)}}
	}
	want, err := Drain(NewFilter(scan, pred(scan.Schema())))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGather(scanPipes(tbl, "t", 4, func(op Operator) Operator {
		return NewFilter(op, pred(op.Schema()))
	}), 2, nil)
	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered parallel scan differs from serial: %d vs %d rows", len(got), len(want))
	}
}

func TestGatherReopen(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 1200)
	g := NewGather(scanPipes(tbl, "t", 3, nil), 1, nil)
	var first [][]types.Value
	for round := 0; round < 3; round++ {
		rows, err := Drain(g)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 {
			first = rows
		} else if !reflect.DeepEqual(rows, first) {
			t.Fatalf("round %d differs from round 0", round)
		}
	}
	if len(first) != 1200 {
		t.Fatalf("got %d rows", len(first))
	}
}

// failAfter passes through until it has seen n rows, then errors.
type failAfter struct {
	Child Operator
	N     int
	seen  int
}

var errBoom = errors.New("boom")

func (f *failAfter) Schema() *expr.RowSchema { return f.Child.Schema() }
func (f *failAfter) Open() error             { return f.Child.Open() }
func (f *failAfter) Close() error            { return f.Child.Close() }
func (f *failAfter) Next() ([]types.Value, error) {
	row, err := f.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	f.seen++
	if f.seen > f.N {
		return nil, errBoom
	}
	return row, nil
}

// TestGatherPropagatesWorkerError also requires every worker to have
// exited once the failed Drain has closed the exchange.
func TestGatherPropagatesWorkerError(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 2000)
	g := NewGather(scanPipes(tbl, "t", 4, func(op Operator) Operator {
		return &failAfter{Child: op, N: 100}
	}), 1, nil)
	base := runtime.NumGoroutine()
	_, err := Drain(g)
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	testutil.WaitGoroutines(t, base)
	// The gather must still be reusable (and fail again) after an error.
	_, err = Drain(g)
	if !errors.Is(err, errBoom) {
		t.Fatalf("second run err = %v, want errBoom", err)
	}
	testutil.WaitGoroutines(t, base)
}

func TestGatherEarlyClose(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 2000)
	g := NewGather(scanPipes(tbl, "t", 4, nil), 1, nil)
	base := runtime.NumGoroutine()
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := g.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil { // must not deadlock or leak workers
		t.Fatal(err)
	}
	testutil.WaitGoroutines(t, base)
	// Reopen and drain fully.
	rows, err := Drain(g)
	if err != nil || len(rows) != 2000 {
		t.Fatalf("after early close: %d rows, %v", len(rows), err)
	}
}

// TestGatherBatchEarlyCloseReleasesAll abandons the exchange at three
// depths, with morsel batches still in the channel, out of order in the
// pending map and being served: each Close must stop every worker.
func TestGatherBatchEarlyCloseReleasesAll(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 5000)
	for round := 0; round < 3; round++ {
		base := runtime.NumGoroutine()
		g := NewGather(scanPipes(tbl, "t", 4, nil), 1, nil)
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5*round+1; i++ {
			if _, err := g.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		testutil.WaitGoroutines(t, base)
	}
}

// TestGatherBatchForwardingMatchesRows fuses the predicate into each
// worker's scan, so every morsel batch arrives already filtered, and
// holds the reassembled output to a serial Filter over the same table.
func TestGatherBatchForwardingMatchesRows(t *testing.T) {
	c := catalog.New(nil)
	tbl := buildTable(t, c, "t", 3000)
	pred := func(sch *expr.RowSchema) expr.Expr {
		return &expr.Cmp{Op: expr.GT, L: col(sch, "t", "val", t), R: &expr.Const{Val: types.NewInt(4000)}}
	}
	scan := NewSeqScan(tbl, "t", nil)
	want, err := Drain(NewFilter(scan, pred(scan.Schema())))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	g := NewGather(scanPipes(tbl, "t", 4, func(op Operator) Operator {
		op.(*SeqScan).Pred = pred(op.Schema())
		return op
	}), 1, nil)
	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fused parallel scan differs from serial filter: %d vs %d rows", len(got), len(want))
	}
	testutil.WaitGoroutines(t, base)
}

// opens counts Open calls on a child operator.
type opens struct {
	Child Operator
	n     int
}

func (o *opens) Schema() *expr.RowSchema      { return o.Child.Schema() }
func (o *opens) Open() error                  { o.n++; return o.Child.Open() }
func (o *opens) Next() ([]types.Value, error) { return o.Child.Next() }
func (o *opens) Close() error                 { return o.Child.Close() }

func TestHashBuildBuildsOnceAcrossProbes(t *testing.T) {
	c := catalog.New(nil)
	left := buildTable(t, c, "l", 2000)
	right := buildTable(t, c, "r", 2000)
	if right.Heap.DataPages() < 4 {
		t.Fatalf("probe table too small: %d pages", right.Heap.DataPages())
	}

	lscan := NewSeqScan(left, "l", nil)
	counted := &opens{Child: lscan}
	key := col(lscan.Schema(), "l", "id", t)
	build := &HashBuild{Input: counted, Key: key, BuildDOP: 4}

	pipes := scanPipes(right, "r", 4, nil)
	for i := range pipes {
		probe := pipes[i].Root
		joint := expr.Concat(lscan.Schema(), probe.Schema())
		lk := col(joint, "l", "id", t)
		rk := col(joint, "r", "id", t)
		clone := NewHashJoin(counted, probe, lk, rk)
		clone.Shared = build
		pipes[i].Root = clone
	}
	g := NewGather(pipes, 1, []Resettable{build})

	// Serial reference: HashJoin over the same inputs.
	ls2 := NewSeqScan(left, "l", nil)
	rs2 := NewSeqScan(right, "r", nil)
	joint := expr.Concat(ls2.Schema(), rs2.Schema())
	serial := NewHashJoin(ls2, rs2, col(joint, "l", "id", t), col(joint, "r", "id", t))
	want, err := Drain(serial)
	if err != nil {
		t.Fatal(err)
	}

	got, err := Drain(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel hash join differs from serial: %d vs %d rows", len(got), len(want))
	}
	if counted.n != 1 {
		t.Errorf("build input opened %d times, want 1 (shared build)", counted.n)
	}

	// Re-open: the Gather resets the build, which rebuilds exactly once.
	got, err = Drain(g)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("second run differs: %d rows, %v", len(got), err)
	}
	if counted.n != 2 {
		t.Errorf("build input opened %d times after reopen, want 2", counted.n)
	}
}

func TestNestedLoopJoinMaterializesInnerOnce(t *testing.T) {
	c := catalog.New(nil)
	outer := buildTable(t, c, "o", 50)
	inner := buildTable(t, c, "i", 50)
	oscan := NewSeqScan(outer, "o", nil)
	iscan := NewSeqScan(inner, "i", nil)
	counted := &opens{Child: iscan}
	joint := expr.Concat(oscan.Schema(), iscan.Schema())
	pred := &expr.Cmp{Op: expr.EQ, L: col(joint, "o", "id", t), R: col(joint, "i", "id", t)}
	j := NewNestedLoopJoin(oscan, counted, pred)
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("got %d rows, want 50", len(rows))
	}
	if counted.n != 1 {
		t.Errorf("inner side opened %d times, want 1 (materialized once at Open)", counted.n)
	}
}
