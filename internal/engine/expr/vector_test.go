package expr

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine/types"
	"repro/internal/engine/vec"
	"repro/internal/testutil"
)

// batchPredicates is the table of predicate shapes the batch kernels must
// agree with Eval on, over the four columns fillBatch writes: two ints,
// a string and a mixed int/string column, all with NULLs. It covers each
// specialized kernel (col/const, col/col, LIKE over a column, AND), the
// generic fallback (OR, NOT, reversed operands, UDF calls, bare columns
// and constants), and out-of-range column references.
func batchPredicates(t *testing.T) []Expr {
	t.Helper()
	c := func(i int) *Col { return &Col{Idx: i, Name: fmt.Sprintf("c%d", i)} }
	k := func(v types.Value) *Const { return &Const{Val: v} }
	i64 := func(n int64) *Const { return k(types.NewInt(n)) }

	reg := NewRegistry()
	halve := &ScalarFunc{Name: "halve", MinArgs: 1, MaxArgs: 1,
		Fn: func(args []types.Value) (types.Value, error) {
			if args[0].Kind() != types.KindInt {
				return types.Null, nil
			}
			return types.NewInt(args[0].Int() / 2), nil
		}}
	fail := &ScalarFunc{Name: "failOn7", MinArgs: 1, MaxArgs: 1,
		Fn: func(args []types.Value) (types.Value, error) {
			if args[0].Kind() == types.KindInt && args[0].Int() == 7 {
				return types.Null, errors.New("failOn7: got 7")
			}
			return types.NewBool(true), nil
		}}
	call := func(fn *ScalarFunc, arg Expr) *Call {
		if reg.Scalar(fn.Name) == nil {
			if err := reg.RegisterScalar(fn); err != nil {
				t.Fatal(err)
			}
		}
		cl, err := NewCall(reg, fn, []Expr{arg})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}

	var preds []Expr
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		preds = append(preds,
			&Cmp{Op: op, L: c(0), R: i64(3)},                  // col/const
			&Cmp{Op: op, L: c(0), R: c(1)},                    // col/col
			&Cmp{Op: op, L: c(3), R: i64(2)},                  // mixed kinds vs int
			&Cmp{Op: op, L: c(3), R: k(types.NewString("b"))}, // mixed kinds vs string
			&Cmp{Op: op, L: c(2), R: c(3)},                    // string vs mixed
			&Cmp{Op: op, L: i64(3), R: c(0)},                  // const/col: fallback
		)
	}
	ge1 := &Cmp{Op: GE, L: c(0), R: i64(1)}
	lt9 := &Cmp{Op: LT, L: c(1), R: i64(9)}
	like := NewLike(c(2), "%an%")
	preds = append(preds,
		&Cmp{Op: EQ, L: c(0), R: k(types.Null)},
		&Cmp{Op: NE, L: c(3), R: k(types.Null)},
		like,
		NewLike(c(3), "b_%"),
		NewLike(c(0), "%"), // non-string operand
		NewLike(call(fail, c(0)), "%"),
		&And{L: ge1, R: lt9},
		&And{L: like, R: &And{L: ge1, R: &Cmp{Op: NE, L: c(0), R: c(1)}}},
		&Or{L: ge1, R: like},
		&Or{L: &Not{E: lt9}, R: &And{L: like, R: ge1}},
		&Not{E: ge1},
		&Not{E: &And{L: ge1, R: lt9}},
		&Cmp{Op: GT, L: call(halve, c(0)), R: i64(2)},
		&And{L: &Cmp{Op: NE, L: c(0), R: i64(7)}, R: call(fail, c(0))}, // AND guards the error
		call(fail, c(0)),                                               // errors on any active 7
		c(0),                                                           // bare column: Truthy
		k(types.NewBool(true)),
		k(types.Null),
		&Cmp{Op: EQ, L: c(4), R: i64(1)},                // out of range, col/const
		&Cmp{Op: EQ, L: c(0), R: c(4)},                  // out of range, col/col right
		&Cmp{Op: EQ, L: c(9), R: c(0)},                  // out of range, col/col left
		NewLike(c(4), "%"),                              // out of range, LIKE
		&And{L: ge1, R: &Cmp{Op: LT, L: c(4), R: c(0)}}, // out of range behind AND
		&Or{L: ge1, R: c(4)},
	)
	return preds
}

// fillBatch writes n random rows into b: c0, c1 ints in [-5, 15), c2 a
// short word, c3 an int or a word; about one value in six is NULL.
func fillBatch(rng *rand.Rand, b *vec.Batch, n int) {
	words := []string{"", "a", "b", "ban", "bandit", "can", "zeta"}
	for i := 0; i < n; i++ {
		for j := range b.Cols {
			var v types.Value
			switch {
			case rng.Intn(6) == 0:
				v = types.Null
			case j == 2 || (j == 3 && rng.Intn(2) == 0):
				v = types.NewString(words[rng.Intn(len(words))])
			default:
				v = types.NewInt(int64(rng.Intn(20) - 5))
			}
			b.Cols[j][i] = v
		}
	}
	b.NRows = n
}

// TestBatchKernelsMatchRowEval holds FilterBatch and EvalBatch to per-row
// Eval over seeded batches, with and without an incoming selection
// vector: FilterBatch keeps exactly the active rows Eval finds truthy, in
// order; EvalBatch writes exactly Eval's value at every active row and
// leaves inactive rows untouched; and a predicate that errors on some
// active row errors on both paths.
func TestBatchKernelsMatchRowEval(t *testing.T) {
	seed := testutil.Seed(t, 1)
	rng := rand.New(rand.NewSource(seed))
	preds := batchPredicates(t)
	b := vec.Get(4)
	defer vec.Release(b)
	sentinel := types.NewString("untouched")
	out := make([]types.Value, b.Cap())
	var s VecScratch
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(b.Cap())
		fillBatch(rng, b, n)
		// Even trials run over all rows; odd ones over a random, ordered,
		// non-empty subset, the shape an upstream filter leaves behind.
		var active []int
		for i := 0; i < n; i++ {
			if trial%2 == 0 || rng.Intn(3) == 0 {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			active = append(active, rng.Intn(n))
		}
		setSel := func() {
			if trial%2 == 0 {
				b.Sel = nil
				return
			}
			// In the selection buffer, as operators leave it, so the
			// kernels narrow in place.
			b.Sel = b.SelBuf()[:len(active)]
			copy(b.Sel, active)
		}
		for _, pred := range preds {
			var wantKeep []int
			wantVals := map[int]types.Value{}
			wantErr := false
			for _, i := range active {
				row := make([]types.Value, len(b.Cols))
				for j := range b.Cols {
					row[j] = b.Cols[j][i]
				}
				v, err := pred.Eval(row)
				if err != nil {
					wantErr = true
					break
				}
				wantVals[i] = v
				if v.Truthy() {
					wantKeep = append(wantKeep, i)
				}
			}

			setSel()
			err := FilterBatch(pred, b, &s)
			if (err != nil) != wantErr {
				t.Fatalf("trial %d %s: FilterBatch error %v, row path error %t; %s",
					trial, pred, err, wantErr, testutil.ReproLine(t, seed))
			}
			if err == nil {
				var got []int
				for o := 0; o < b.Active(); o++ {
					got = append(got, b.RowIdx(o))
				}
				if !reflect.DeepEqual(got, wantKeep) {
					t.Fatalf("trial %d %s: FilterBatch kept %v, Eval keeps %v; %s",
						trial, pred, got, wantKeep, testutil.ReproLine(t, seed))
				}
			}

			setSel()
			for i := range out {
				out[i] = sentinel
			}
			err = EvalBatch(pred, b, out, &s)
			if (err != nil) != wantErr {
				t.Fatalf("trial %d %s: EvalBatch error %v, row path error %t; %s",
					trial, pred, err, wantErr, testutil.ReproLine(t, seed))
			}
			if err != nil {
				continue
			}
			for i := 0; i < n; i++ {
				want, isActive := wantVals[i]
				if !isActive {
					want = sentinel
				}
				if !reflect.DeepEqual(out[i], want) {
					t.Fatalf("trial %d %s: EvalBatch row %d = %v, want %v; %s",
						trial, pred, i, out[i], want, testutil.ReproLine(t, seed))
				}
			}
		}
	}
}
