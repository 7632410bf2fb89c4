package expr

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/engine/types"
)

func evalBool(t *testing.T, e Expr, row []types.Value) bool {
	t.Helper()
	v, err := e.Eval(row)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v.Truthy()
}

func TestRowSchemaResolve(t *testing.T) {
	s := NewRowSchema(
		ColInfo{Qualifier: "speech", Name: "speechID", Type: types.KindInt},
		ColInfo{Qualifier: "speech", Name: "speaker", Type: types.KindString},
		ColInfo{Qualifier: "act", Name: "actID", Type: types.KindInt},
	)
	if i, err := s.Resolve("", "speaker"); err != nil || i != 1 {
		t.Errorf("Resolve(speaker) = %d, %v", i, err)
	}
	if i, err := s.Resolve("act", "actID"); err != nil || i != 2 {
		t.Errorf("Resolve(act.actID) = %d, %v", i, err)
	}
	if _, err := s.Resolve("", "ghost"); err == nil {
		t.Error("missing column should error")
	}
	if _, err := s.Resolve("speech", "actID"); err == nil {
		t.Error("wrong qualifier should error")
	}
}

func TestRowSchemaAmbiguity(t *testing.T) {
	s := NewRowSchema(
		ColInfo{Qualifier: "a", Name: "id"},
		ColInfo{Qualifier: "b", Name: "id"},
	)
	if _, err := s.Resolve("", "id"); err == nil {
		t.Error("ambiguous reference should error")
	}
	if i, err := s.Resolve("b", "id"); err != nil || i != 1 {
		t.Errorf("qualified resolve = %d, %v", i, err)
	}
}

func TestConcatSchemas(t *testing.T) {
	a := NewRowSchema(ColInfo{Qualifier: "x", Name: "p"})
	b := NewRowSchema(ColInfo{Qualifier: "y", Name: "q"})
	c := Concat(a, b)
	if len(c.Cols) != 2 || c.Cols[1].Name != "q" {
		t.Errorf("Concat = %v", c.Cols)
	}
	if got := c.Names(); got[0] != "p" || got[1] != "q" {
		t.Errorf("Names = %v", got)
	}
}

func TestComparisons(t *testing.T) {
	row := []types.Value{types.NewInt(5), types.NewString("abc")}
	five := &Col{Idx: 0, Name: "n"}
	cases := []struct {
		op   CmpOp
		rhs  int64
		want bool
	}{
		{EQ, 5, true}, {EQ, 6, false},
		{NE, 6, true}, {NE, 5, false},
		{LT, 6, true}, {LT, 5, false},
		{LE, 5, true}, {LE, 4, false},
		{GT, 4, true}, {GT, 5, false},
		{GE, 5, true}, {GE, 6, false},
	}
	for _, tc := range cases {
		e := &Cmp{Op: tc.op, L: five, R: &Const{Val: types.NewInt(tc.rhs)}}
		if got := evalBool(t, e, row); got != tc.want {
			t.Errorf("5 %s %d = %v, want %v", tc.op, tc.rhs, got, tc.want)
		}
	}
}

// TestNullComparisonsAreFalse covers a NULL on either side and on both,
// from a column and from a constant, under every operator.
func TestNullComparisonsAreFalse(t *testing.T) {
	row := []types.Value{types.Null, types.NewInt(1)}
	null := &Col{Idx: 0, Name: "x"}
	one := &Col{Idx: 1, Name: "y"}
	nullConst := &Const{Val: types.Null}
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		for _, e := range []*Cmp{
			{Op: op, L: null, R: &Const{Val: types.NewInt(1)}},
			{Op: op, L: one, R: nullConst},
			{Op: op, L: one, R: null},
			{Op: op, L: null, R: null},
			{Op: op, L: null, R: nullConst},
		} {
			if evalBool(t, e, row) {
				t.Errorf("%s should be false", e)
			}
		}
	}
}

func TestLogicalOps(t *testing.T) {
	tr := &Const{Val: types.NewBool(true)}
	fa := &Const{Val: types.NewBool(false)}
	if !evalBool(t, &And{tr, tr}, nil) || evalBool(t, &And{tr, fa}, nil) {
		t.Error("AND truth table")
	}
	if !evalBool(t, &Or{fa, tr}, nil) || evalBool(t, &Or{fa, fa}, nil) {
		t.Error("OR truth table")
	}
	if evalBool(t, &Not{tr}, nil) || !evalBool(t, &Not{fa}, nil) {
		t.Error("NOT truth table")
	}
}

type errExpr struct{}

func (errExpr) Eval([]types.Value) (types.Value, error) {
	return types.Null, errors.New("boom")
}
func (errExpr) String() string { return "err" }

func TestShortCircuit(t *testing.T) {
	fa := &Const{Val: types.NewBool(false)}
	tr := &Const{Val: types.NewBool(true)}
	// AND short-circuits: the erroring right side is never evaluated.
	if evalBool(t, &And{fa, errExpr{}}, nil) {
		t.Error("false AND x should be false")
	}
	if !evalBool(t, &Or{tr, errExpr{}}, nil) {
		t.Error("true OR x should be true")
	}
	// Errors propagate when reached.
	if _, err := (&And{tr, errExpr{}}).Eval(nil); err == nil {
		t.Error("error should propagate")
	}
	// A left conjunct false on this row guards a right one that errors on
	// it, here a column reference past the end of the row.
	row := []types.Value{types.NewInt(7)}
	c := &Col{Idx: 0, Name: "c"}
	beyond := &Cmp{Op: EQ, L: &Col{Idx: 4, Name: "d"}, R: c}
	if _, err := beyond.Eval(row); err == nil {
		t.Error("out-of-range column should error")
	}
	if evalBool(t, &And{&Cmp{Op: NE, L: c, R: &Const{Val: types.NewInt(7)}}, beyond}, row) {
		t.Error("7 <> 7 AND x should be false")
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"%friend%", "my friend here", true},
		{"%friend%", "foe", false},
		{"Romeo%", "Romeo and Juliet", true},
		{"Romeo%", "and Romeo", false},
		{"%Juliet", "Romeo and Juliet", true},
		{"%Juliet", "Juliet rises", false},
		{"exact", "exact", true},
		{"exact", "exactly", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"a%c", "abbbc", true},
		{"a%c", "ab", false},
		{"%a%b%", "xaybz", true},
		{"%a%b%", "xbya", false},
		{"%", "anything", true},
		{"", "", true},
		{"", "x", false},
	}
	for _, tc := range cases {
		e := NewLike(&Col{Idx: 0, Name: "s"}, tc.pattern)
		got := evalBool(t, e, []types.Value{types.NewString(tc.s)})
		if got != tc.want {
			t.Errorf("%q LIKE %q = %v, want %v", tc.s, tc.pattern, got, tc.want)
		}
	}
}

func TestLikeOnNullAndNonString(t *testing.T) {
	e := NewLike(&Col{Idx: 0, Name: "s"}, "%x%")
	if evalBool(t, e, []types.Value{types.Null}) {
		t.Error("NULL LIKE should be false")
	}
	if evalBool(t, e, []types.Value{types.NewInt(5)}) {
		t.Error("int LIKE should be false")
	}
}

func TestLikeMatchesContainsProperty(t *testing.T) {
	f := func(s, key string) bool {
		if strings.ContainsAny(key, "%_") {
			return true
		}
		e := NewLike(&Col{Idx: 0, Name: "s"}, "%"+key+"%")
		v, err := e.Eval([]types.Value{types.NewString(s)})
		if err != nil {
			return false
		}
		return v.Truthy() == strings.Contains(s, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegistryAndCalls(t *testing.T) {
	reg := NewRegistry()
	double := &ScalarFunc{
		Name: "double", MinArgs: 1, MaxArgs: 1,
		Fn: func(args []types.Value) (types.Value, error) {
			return types.NewInt(args[0].Int() * 2), nil
		},
	}
	if err := reg.RegisterScalar(double); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterScalar(double); err == nil {
		t.Error("duplicate registration should fail")
	}
	call, err := NewCall(reg, double, []Expr{&Const{Val: types.NewInt(21)}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := call.Eval(nil)
	if err != nil || v.Int() != 42 {
		t.Errorf("double(21) = %v, %v", v, err)
	}
	// Arity check.
	if _, err := NewCall(reg, double, nil); err == nil {
		t.Error("arity violation should fail")
	}
}

func TestBuiltinAndUDFAgree(t *testing.T) {
	reg := NewRegistry()
	impl := func(args []types.Value) (types.Value, error) {
		return types.NewInt(int64(len(args[0].Str()))), nil
	}
	builtin := &ScalarFunc{Name: "length", Builtin: true, MinArgs: 1, MaxArgs: 1, Fn: impl}
	udf := &ScalarFunc{Name: "udf_length", MinArgs: 1, MaxArgs: 1, Fn: impl}
	reg.RegisterScalar(builtin)
	reg.RegisterScalar(udf)
	arg := []Expr{&Const{Val: types.NewString("HAMLET")}}
	cb, _ := NewCall(reg, builtin, arg)
	cu, _ := NewCall(reg, udf, arg)
	vb, err1 := cb.Eval(nil)
	vu, err2 := cu.Eval(nil)
	if err1 != nil || err2 != nil || vb.Int() != 6 || vu.Int() != 6 {
		t.Errorf("builtin=%v,%v udf=%v,%v", vb, err1, vu, err2)
	}
}

func TestFencedCalls(t *testing.T) {
	reg := NewRegistry()
	reg.Fenced = true
	fn := &ScalarFunc{
		Name: "inc", MinArgs: 1, MaxArgs: 1,
		Fn: func(args []types.Value) (types.Value, error) {
			return types.NewInt(args[0].Int() + 1), nil
		},
	}
	reg.RegisterScalar(fn)
	call, _ := NewCall(reg, fn, []Expr{&Const{Val: types.NewInt(1)}})
	for i := 0; i < 100; i++ {
		v, err := call.Eval(nil)
		if err != nil || v.Int() != 2 {
			t.Fatalf("fenced call = %v, %v", v, err)
		}
	}
}

func TestTableFuncRegistry(t *testing.T) {
	reg := NewRegistry()
	tf := &TableFunc{
		Name: "unnest", Cols: []string{"out"}, Types: []types.Kind{types.KindXADT},
		MinArgs: 2, MaxArgs: 2,
		Fn: func(args []types.Value) ([][]types.Value, error) { return nil, nil },
	}
	if err := reg.RegisterTable(tf); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterTable(tf); err == nil {
		t.Error("duplicate table function should fail")
	}
	if reg.Table("unnest") == nil || reg.Table("ghost") != nil {
		t.Error("table lookup")
	}
}

func TestExprStrings(t *testing.T) {
	e := &And{
		L: &Cmp{Op: EQ, L: &Col{Idx: 0, Name: "a"}, R: &Const{Val: types.NewString("x")}},
		R: NewLike(&Col{Idx: 1, Name: "b"}, "%y%"),
	}
	want := "(a = 'x' AND b LIKE '%y%')"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
