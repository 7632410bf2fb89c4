// Package types defines the value system of the engine: the three SQL
// types the mapped schemas use (INTEGER, VARCHAR, and the XADT fragment
// type), NULL handling, comparison, and hashing.
package types

import (
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/xadt"
)

// Kind enumerates the runtime types of a Value.
type Kind int

const (
	// KindNull is the SQL NULL of any type.
	KindNull Kind = iota
	// KindInt is a 64-bit integer.
	KindInt
	// KindString is a variable-length string.
	KindString
	// KindXADT is an XML fragment in its stored encoding.
	KindXADT
	// KindBool is a boolean, produced only by predicate evaluation.
	KindBool
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "integer"
	case KindString:
		return "string"
	case KindXADT:
		return "XADT"
	case KindBool:
		return "boolean"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single SQL value. The zero Value is NULL. It is 32 bytes:
// VARCHAR and XADT payloads share the string field, since a value holds
// at most one of them.
//
// An XADT value with a nonzero i is a reference (xadt.Value's Parts): s
// holds the bytes of the stored value it points into and i the span of
// its element. The XADT methods read a reference in place; every other
// reader of the bytes goes through bytes, which materialises it. No
// reference outlives its statement: exec.Drain materialises result rows,
// and the record codec writes what bytes returns.
type Value struct {
	s    string
	i    int64
	kind Kind
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewString returns a string value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewXADT returns an XADT value holding the stored fragment encoding. The
// value aliases b without copying, so the caller must never write to b
// again.
func NewXADT(b []byte) Value {
	return Value{kind: KindXADT, s: unsafe.String(unsafe.SliceData(b), len(b))}
}

// FromXADT returns the XADT value holding x, which stays a reference
// when it is one.
func FromXADT(x xadt.Value) Value {
	data, span := x.Parts()
	return Value{kind: KindXADT, s: unsafe.String(unsafe.SliceData(data), len(data)), i: span}
}

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind returns the runtime type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload; it panics on other kinds.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("types: Int() on " + v.kind.String())
	}
	return v.i
}

// Str returns the string payload; it panics on other kinds.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("types: Str() on " + v.kind.String())
	}
	return v.s
}

// XADT returns the fragment encoding; it panics on other kinds. The slice
// aliases the value's payload and must not be modified; its capacity
// equals its length, so appending to it copies. A reference is
// materialised, into fresh memory on every call.
func (v Value) XADT() []byte {
	if v.kind != KindXADT {
		panic("types: XADT() on " + v.kind.String())
	}
	s := v.bytes()
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// Fragment returns the XADT value without materialising a reference,
// for the XADT methods; it panics on other kinds.
func (v Value) Fragment() xadt.Value {
	if v.kind != KindXADT {
		panic("types: Fragment() on " + v.kind.String())
	}
	return xadt.FromParts(unsafe.Slice(unsafe.StringData(v.s), len(v.s)), v.i)
}

// bytes returns the payload of a string or XADT value, materialising a
// reference.
func (v Value) bytes() string {
	if v.i == 0 {
		return v.s
	}
	b := v.Fragment().Bytes()
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Plain replaces each XADT reference in row by a value holding its
// bytes, for rows that leave their statement.
func Plain(row []Value) {
	for k := range row {
		if v := &row[k]; v.kind == KindXADT && v.i != 0 {
			*v = Value{kind: KindXADT, s: v.bytes()}
		}
	}
}

// Bool returns the boolean payload; it panics on other kinds.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("types: Bool() on " + v.kind.String())
	}
	return v.i != 0
}

// Truthy reports whether the value acts as true in a WHERE clause: a true
// boolean or a nonzero integer. NULL and everything else are false.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0
	default:
		return false
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return v.s
	case KindXADT:
		return fmt.Sprintf("XADT(%d bytes)", len(v.bytes()))
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Compare orders two values: NULL sorts first; integers and booleans
// compare numerically; strings and XADT values bytewise. Comparing values
// of different non-null kinds orders by kind (strings before XADT), which
// gives sorting a total order without implicit casts.
func Compare(a, b Value) int {
	// One test sends NULL and XADT to compareRare, so the integer and
	// string paths never look for a reference.
	if (rareKinds>>uint(a.kind)|rareKinds>>uint(b.kind))&1 != 0 {
		return compareRare(a, b)
	}
	if sa, sb := a.kind == KindString, b.kind == KindString; sa != sb {
		if sb {
			return -1
		}
		return 1
	} else if sa {
		return strings.Compare(a.s, b.s)
	}
	switch {
	case a.i < b.i:
		return -1
	case a.i > b.i:
		return 1
	default:
		return 0
	}
}

// rareKinds is the bit set of the kinds Compare leaves to compareRare.
const rareKinds uint64 = 1<<KindNull | 1<<KindXADT

// compareRare is Compare when a or b is NULL or XADT.
func compareRare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	ka, kb := comparisonClass(a.kind), comparisonClass(b.kind)
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	return strings.Compare(a.bytes(), b.bytes())
}

const (
	classNumeric = iota
	classString
	classBytes
)

func comparisonClass(k Kind) int {
	switch k {
	case KindInt, KindBool:
		return classNumeric
	case KindString:
		return classString
	default:
		return classBytes
	}
}

// Equal reports whether two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-1a parameters, matching hash/fnv.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hash returns a hash of the value, consistent with Equal. It is FNV-1a
// over a tag byte plus the payload bytes, written out directly rather
// than through hash/fnv: the hasher interface forces a heap value and
// accessor indirection per call, and hashing sits on the hot path of
// joins and grouping.
func Hash(v Value) uint64 {
	h := fnvOffset
	switch v.kind {
	case KindNull:
		h = (h ^ 0) * fnvPrime
	case KindInt, KindBool:
		h = (h ^ 1) * fnvPrime
		p := uint64(v.i)
		for i := 0; i < 8; i++ {
			h = (h ^ (p >> (8 * i) & 0xff)) * fnvPrime
		}
	case KindString:
		h = hashBytes(h, KindString, v.s)
	case KindXADT:
		h = hashBytes(h, KindXADT, v.bytes())
	}
	return h
}

// hashBytes continues h over a payload, after a tag byte that is its
// kind: 2 for strings, 3 for XADT.
func hashBytes(h uint64, k Kind, s string) uint64 {
	h = (h ^ uint64(k)) * fnvPrime
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// Size returns the approximate in-record size of the value in bytes,
// matching the storage codec of package storage.
func (v Value) Size() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindInt, KindBool:
		return 9
	case KindString:
		return 5 + len(v.s)
	case KindXADT:
		return 5 + len(v.bytes())
	default:
		return 1
	}
}
