package types

import (
	"bytes"
	"hash/fnv"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/testutil"
	"repro/internal/xadt"
)

func TestKindsAndAccessors(t *testing.T) {
	if !Null.IsNull() || Null.Kind() != KindNull {
		t.Error("zero value should be NULL")
	}
	if NewInt(42).Int() != 42 {
		t.Error("Int round-trip")
	}
	if NewString("x").Str() != "x" {
		t.Error("Str round-trip")
	}
	if string(NewXADT([]byte("f")).XADT()) != "f" {
		t.Error("XADT round-trip")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool round-trip")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { Null.Int() },
		func() { NewInt(1).Str() },
		func() { NewString("s").XADT() },
		func() { NewInt(1).Bool() },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{NewBool(true), true},
		{NewBool(false), false},
		{NewInt(1), true},
		{NewInt(0), false},
		{Null, false},
		{NewString("true"), false},
	}
	for _, tc := range cases {
		if got := tc.v.Truthy(); got != tc.want {
			t.Errorf("Truthy(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewXADT([]byte{1}), NewXADT([]byte{1, 2}), -1},
		{NewXADT([]byte{2}), NewXADT([]byte{1, 2}), 1},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewInt(1), 0}, // booleans compare numerically
	}
	for _, tc := range cases {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareCrossKindTotalOrder(t *testing.T) {
	// Different kinds order deterministically and antisymmetrically.
	vals := []Value{Null, NewInt(5), NewString("5"), NewXADT([]byte("5"))}
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%v,%v) not antisymmetric", a, b)
			}
		}
	}
}

func TestHashEqualConsistency(t *testing.T) {
	pairs := [][2]Value{
		{NewInt(7), NewInt(7)},
		{NewString("abc"), NewString("abc")},
		{NewXADT([]byte("x")), NewXADT([]byte("x"))},
		{Null, Null},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Errorf("Equal(%v,%v) = false", p[0], p[1])
		}
		if Hash(p[0]) != Hash(p[1]) {
			t.Errorf("Hash mismatch for equal values %v", p[0])
		}
	}
	if Hash(NewInt(1)) == Hash(NewString("1")) {
		t.Error("int 1 and string \"1\" should hash differently")
	}
}

func TestCompareIntProperty(t *testing.T) {
	f := func(a, b int64) bool {
		got := Compare(NewInt(a), NewInt(b))
		switch {
		case a < b:
			return got == -1
		case a > b:
			return got == 1
		default:
			return got == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashStringProperty(t *testing.T) {
	f := func(s string) bool {
		return Hash(NewString(s)) == Hash(NewString(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fnvReference is what Hash computed before the direct-loop rewrite:
// hash/fnv over the tag byte plus the payload bytes. Hash must stay
// bit-identical to it: the distinct-value sketches that snapshots
// persist with the table statistics are built from it.
func fnvReference(v Value) uint64 {
	h := fnv.New64a()
	switch v.kind {
	case KindNull:
		h.Write([]byte{0})
	case KindInt, KindBool:
		var buf [9]byte
		buf[0] = 1
		for i := 0; i < 8; i++ {
			buf[i+1] = byte(v.i >> (8 * i))
		}
		h.Write(buf[:])
	case KindString:
		h.Write([]byte{2})
		h.Write([]byte(v.s))
	case KindXADT:
		h.Write([]byte{3})
		h.Write(v.XADT())
	}
	return h.Sum64()
}

func TestHashMatchesFNVReference(t *testing.T) {
	vals := []Value{
		NewInt(0), NewInt(-7), NewInt(1 << 40),
		NewString(""), NewString("hello"),
		NewBool(true), NewBool(false),
		NewXADT([]byte("<a>frag</a>")), NewXADT(nil),
		Null,
	}
	for _, v := range vals {
		if got, want := Hash(v), fnvReference(v); got != want {
			t.Errorf("Hash(%v) = %d, fnv reference = %d", v, got, want)
		}
	}
	f := func(i int64, s string) bool {
		return Hash(NewInt(i)) == fnvReference(NewInt(i)) &&
			Hash(NewString(s)) == fnvReference(NewString(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSize(t *testing.T) {
	if NewInt(1).Size() != 9 {
		t.Errorf("int size = %d", NewInt(1).Size())
	}
	if NewString("abcd").Size() != 9 {
		t.Errorf("string size = %d", NewString("abcd").Size())
	}
	if Null.Size() != 1 {
		t.Errorf("null size = %d", Null.Size())
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-3), "-3"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("String(%#v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// TestValueLayout pins the 32-byte layout: VARCHAR and XADT payloads
// share one string field, and building or reading either copies nothing.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("sizeof(Value) = %d, want 32", got)
	}
	b := []byte("<a>frag</a>")
	v, w := NewString("speaker"), NewXADT(b)
	var sinkV Value
	var sinkS string
	var sinkB []byte
	for name, fn := range map[string]func(){
		"NewString": func() { sinkV = NewString("speaker") },
		"NewXADT":   func() { sinkV = NewXADT(b) },
		"Str":       func() { sinkS = v.Str() },
		"XADT":      func() { sinkB = w.XADT() },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.0f times", name, n)
		}
	}
	_, _, _ = sinkV, sinkS, sinkB
	x := NewXADT(b).XADT()
	if &x[0] != &b[0] {
		t.Error("XADT() does not share the bytes passed to NewXADT")
	}
	if cap(x) != len(x) {
		t.Errorf("XADT() cap %d, len %d: appending would write past the payload", cap(x), len(x))
	}
}

// TestReferenceReadsMaterialize holds every reader of an XADT reference
// to the bytes it stands for: for the Unnest outputs of every fragment
// of testutil.Fragments() in every format, XADT(), Hash, Compare, Size
// and String equal those of the value holding Encode of the element's
// node, Compare orders references as it orders their bytes, and Plain
// leaves a value equal, field for field, to that twin.
func TestReferenceReadsMaterialize(t *testing.T) {
	var refs, twins []Value
	for _, nodes := range testutil.Fragments() {
		for _, f := range []xadt.Format{xadt.Raw, xadt.Compressed, xadt.Directory} {
			parent := xadt.Encode(nodes, f)
			for i, n := range nodes {
				if i > 0 && n.Name == nodes[i-1].Name {
					continue // Unnest already returned it
				}
				outs, err := xadt.Unnest(parent, n.Name)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range outs {
					r := FromXADT(o)
					nodes, err := o.Nodes()
					if err != nil || len(nodes) != 1 {
						t.Fatalf("reference decodes to %d nodes, %v", len(nodes), err)
					}
					want := NewXADT(xadt.Encode(nodes, f).Bytes())
					if !bytes.Equal(r.XADT(), want.XADT()) {
						t.Fatalf("XADT() of a reference = %q, Encode %q", r.XADT(), want.XADT())
					}
					if Hash(r) != Hash(want) || Compare(r, want) != 0 || Compare(want, r) != 0 ||
						r.Size() != want.Size() || r.String() != want.String() {
						t.Fatalf("reference of %q reads differently from its bytes", want.XADT())
					}
					refs, twins = append(refs, r), append(twins, want)
				}
			}
		}
	}
	for i := range refs {
		for _, j := range []int{(i + 1) % len(refs), (i * 7919) % len(refs)} {
			if got, want := Compare(refs[i], refs[j]), Compare(twins[i], twins[j]); got != want {
				t.Fatalf("Compare of references %d, of their bytes %d", got, want)
			}
		}
		for _, other := range []Value{Null, NewInt(1), NewString("x")} {
			if Compare(refs[i], other) != Compare(twins[i], other) || Compare(other, refs[i]) != Compare(other, twins[i]) {
				t.Fatalf("reference orders against %v unlike its bytes", other)
			}
		}
	}
	row := slices.Clone(refs)
	Plain(row)
	for i := range row {
		if row[i] != twins[i] {
			t.Fatalf("Plain left %#v, want %#v", row[i], twins[i])
		}
	}
}
