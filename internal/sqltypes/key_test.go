package sqltypes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// routingCase is one row of the routing golden table: a key row and
// the Hash and Partition values the routing function has always given
// it. Storage DistCol layouts, MPP shuffles and distprop's
// shuffle-elision license all assume these never change.
type routingCase struct {
	name       string
	row        Row
	hash       uint64
	p2, p4, p7 int
}

func negZero() Value { return NewFloat(math.Copysign(0, -1)) }

const two53 = int64(1) << 53

// routingCases was recorded before keys moved to the fixed-width
// layout; the new layout must reproduce every value.
var routingCases = []routingCase{
	{name: "int 0", row: Row{NewInt(0)},
		hash: 0xcd92cf54dc615e5, p2: 1, p4: 1, p7: 5},
	{name: "int 1", row: Row{NewInt(1)},
		hash: 0xde8ddf54eacc2d8, p2: 0, p4: 0, p7: 6},
	{name: "int -1", row: Row{NewInt(-1)},
		hash: 0xde85df54eabe958, p2: 0, p4: 0, p7: 5},
	{name: "int 42", row: Row{NewInt(42)},
		hash: 0xbee6ef54cfe6f18, p2: 0, p4: 0, p7: 3},
	{name: "int max", row: Row{NewInt(math.MaxInt64)},
		hash: 0xe1fa9f54edbacec, p2: 0, p4: 0, p7: 1},
	{name: "int 2^53", row: Row{NewInt(two53)},
		hash: 0xbff69f54d0cd9cc, p2: 0, p4: 0, p7: 5},
	{name: "int 2^53+1", row: Row{NewInt(two53 + 1)},
		hash: 0xbff69f54d0cd9cc, p2: 0, p4: 0, p7: 5},
	{name: "float 2^53", row: Row{NewFloat(float64(two53))},
		hash: 0xbff69f54d0cd9cc, p2: 0, p4: 0, p7: 5},
	{name: "float 1.0", row: Row{NewFloat(1)},
		hash: 0xde8ddf54eacc2d8, p2: 0, p4: 0, p7: 6},
	{name: "float 1.5", row: Row{NewFloat(1.5)},
		hash: 0xdcdddf54e95fb20, p2: 0, p4: 0, p7: 6},
	{name: "float -3.25", row: Row{NewFloat(-3.25)},
		hash: 0xcc408f54db37caf, p2: 1, p4: 3, p7: 6},
	{name: "float +0", row: Row{NewFloat(0)},
		hash: 0xcd92cf54dc615e5, p2: 1, p4: 1, p7: 5},
	{name: "float -0", row: Row{negZero()},
		hash: 0xcd92cf54dc615e5, p2: 1, p4: 1, p7: 5},
	{name: "float +inf", row: Row{NewFloat(math.Inf(1))},
		hash: 0xde89df54eac5618, p2: 0, p4: 0, p7: 3},
	{name: "float smallest", row: Row{NewFloat(math.SmallestNonzeroFloat64)},
		hash: 0xedde65ec42d6cbc4, p2: 0, p4: 0, p7: 1},
	{name: "bool true", row: Row{NewBool(true)},
		hash: 0x82f2307b4e88e77, p2: 0, p4: 0, p7: 0},
	{name: "bool false", row: Row{NewBool(false)},
		hash: 0x82f2207b4e88cc4, p2: 1, p4: 3, p7: 3},
	{name: "string empty", row: Row{NewString("")},
		hash: 0xaf63be4c8601b992, p2: 1, p4: 1, p7: 2},
	{name: "string a", row: Row{NewString("a")},
		hash: 0x8364f07b4eef7e9, p2: 0, p4: 0, p7: 5},
	{name: "string 1", row: Row{NewString("1")},
		hash: 0x835ff07b4ee6ff9, p2: 0, p4: 0, p7: 1},
	{name: "string hello", row: Row{NewString("hello, world")},
		hash: 0x3f4846b8532646a, p2: 1, p4: 1, p7: 4},
	{name: "null", row: Row{NullValue},
		hash: 0xaf63bd4c8601b7df, p2: 0, p4: 0, p7: 0},
	{name: "int,int", row: Row{NewInt(1), NewInt(2)},
		hash: 0xf258d29419345eee, p2: 0, p4: 2, p7: 4},
	{name: "float,int", row: Row{NewFloat(1), NewInt(2)},
		hash: 0xf258d29419345eee, p2: 0, p4: 2, p7: 4},
	{name: "-0,+0", row: Row{negZero(), NewFloat(0)},
		hash: 0x3ebb04aed7b59a25, p2: 1, p4: 1, p7: 3},
	{name: "+0,-0", row: Row{NewFloat(0), negZero()},
		hash: 0x3ebb04aed7b59a25, p2: 1, p4: 1, p7: 3},
	{name: "2^53,2^53+1", row: Row{NewInt(two53), NewInt(two53 + 1)},
		hash: 0x9e0421bb2fe47a17, p2: 1, p4: 3, p7: 0},
	{name: "ab,c", row: Row{NewString("ab"), NewString("c")},
		hash: 0x612e3d2a7faa822f, p2: 1, p4: 3, p7: 1},
	{name: "a,bc", row: Row{NewString("a"), NewString("bc")},
		hash: 0x994f742c52cf69d5, p2: 1, p4: 1, p7: 2},
	{name: "abc,empty", row: Row{NewString("abc"), NewString("")},
		hash: 0x619b5d2a80078a6f, p2: 1, p4: 3, p7: 1},
	{name: "empty,abc", row: Row{NewString(""), NewString("abc")},
		hash: 0x7ebc2f96f42f15d, p2: 1, p4: 1, p7: 0},
	{name: "int,string", row: Row{NewInt(7), NewString("x")},
		hash: 0x80322de19e0fca12, p2: 0, p4: 2, p7: 4},
	{name: "string,int", row: Row{NewString("x"), NewInt(7)},
		hash: 0x4b05554e1ef6f268, p2: 0, p4: 0, p7: 1},
	{name: "bool,string", row: Row{NewBool(true), NewString("x")},
		hash: 0xb5ca5b774c7826ec, p2: 0, p4: 0, p7: 6},
	{name: "int,null", row: Row{NewInt(1), NullValue},
		hash: 0x4f73ffd4af8f1508, p2: 0, p4: 0, p7: 0},
	{name: "null,null", row: Row{NullValue, NullValue},
		hash: 0x8328807b4eb6fed, p2: 0, p4: 0, p7: 0},
	{name: "int,float,bool", row: Row{NewInt(3), NewFloat(2.5), NewBool(false)},
		hash: 0x9999a4a61e542c68, p2: 0, p4: 0, p7: 2},
	{name: "int,string,float", row: Row{NewInt(1), NewString("a"), NewFloat(2.5)},
		hash: 0x5bd906992e75c882, p2: 0, p4: 2, p7: 0},
	{name: "ab,c,d", row: Row{NewString("ab"), NewString("c"), NewString("d")},
		hash: 0x815ade57a8139fe0, p2: 0, p4: 0, p7: 0},
	{name: "a,bc,d", row: Row{NewString("a"), NewString("bc"), NewString("d")},
		hash: 0xcbc2f62601bcf272, p2: 0, p4: 2, p7: 1},
	{name: "a,b,cd", row: Row{NewString("a"), NewString("b"), NewString("cd")},
		hash: 0xb54cd62563a71432, p2: 0, p4: 2, p7: 0},
	{name: "2^53,2^53+1,1.0", row: Row{NewInt(two53), NewInt(two53 + 1), NewFloat(1)},
		hash: 0x100eee90ad32346e, p2: 0, p4: 2, p7: 6},
	{name: "-0,string,true", row: Row{negZero(), NewString("z"), NewBool(true)},
		hash: 0xd0a8af9b83d868ae, p2: 0, p4: 2, p7: 1},
	{name: "string,null,int", row: Row{NewString("s"), NullValue, NewInt(9)},
		hash: 0x794ee6c7dcc7df43, p2: 0, p4: 0, p7: 0},
	{name: "4 ints", row: Row{NewInt(1), NewInt(2), NewInt(3), NewInt(4)},
		hash: 0x246c7a15304c40f2, p2: 0, p4: 2, p7: 4},
	{name: "4 mixed", row: Row{NewInt(1), NewFloat(2), NewString("x"), NewBool(true)},
		hash: 0x530c3364a8b87fca, p2: 0, p4: 2, p7: 6},
	{name: "4 with -0", row: Row{negZero(), NewInt(2), NewInt(3), NewFloat(1)},
		hash: 0xd02f2ad96ddb3dea, p2: 0, p4: 2, p7: 0},
	{name: "ab,c,d,e", row: Row{NewString("ab"), NewString("c"), NewString("d"), NewString("e")},
		hash: 0x81a94ea8c6240d58, p2: 0, p4: 0, p7: 5},
	{name: "a,bc,d,e", row: Row{NewString("a"), NewString("bc"), NewString("d"), NewString("e")},
		hash: 0xb1cf80292874b47a, p2: 0, p4: 2, p7: 6},
	{name: "4 with null", row: Row{NewInt(1), NullValue, NewString("x"), NewFloat(2.5)},
		hash: 0x97362f03e5f13a21, p2: 0, p4: 0, p7: 0},
	{name: "5 mixed", row: Row{NewInt(1), NewString("a"), NewBool(true), NewFloat(2.5), negZero()},
		hash: 0x21cee779cfc52c8f, p2: 1, p4: 3, p7: 6},
	{name: "5 strings", row: Row{NewString("x"), NewString("y"), NewString("z"), NewString("w"), NewString("v")},
		hash: 0x69835e47409743e8, p2: 0, p4: 0, p7: 6},
	{name: "5 big ints", row: Row{NewInt(two53), NewInt(two53 + 1), NewInt(-two53), NewInt(0), NewInt(math.MinInt64)},
		hash: 0xab67f7232f6b36d3, p2: 1, p4: 3, p7: 2},
	{name: "5 with null", row: Row{NullValue, NewInt(1), NewInt(2), NewInt(3), NewInt(4)},
		hash: 0x8fcda6e142a75664, p2: 0, p4: 0, p7: 0},
}

// TestRoutingGolden pins the routing function: for every key in the
// table, Hash and Partition(2|4|7) return the recorded values, whether
// the key comes from ValuesKey or RowKey.
func TestRoutingGolden(t *testing.T) {
	for _, c := range routingCases {
		cols := make([]int, len(c.row))
		for i := range cols {
			cols[i] = i
		}
		for _, k := range []CompositeKey{ValuesKey(c.row), RowKey(c.row, cols)} {
			if got := k.Hash(); got != c.hash {
				t.Errorf("%s: Hash = %#x, want %#x", c.name, got, c.hash)
			}
			for _, p := range []struct{ parts, want int }{{2, c.p2}, {4, c.p4}, {7, c.p7}} {
				if got := k.Partition(p.parts); got != p.want {
					t.Errorf("%s: Partition(%d) = %d, want %d", c.name, p.parts, got, p.want)
				}
			}
		}
	}
}

// keyDomain is a small value domain, so random rows often agree on a
// column: NULL, numbers that collide only under normalization, and
// strings whose concatenations collide.
var keyDomain = []Value{
	NullValue,
	NewInt(0), NewInt(1), NewInt(-2), NewInt(two53), NewInt(two53 + 1),
	NewFloat(0), negZero(), NewFloat(1), NewFloat(1.5), NewFloat(float64(two53)),
	NewBool(true), NewBool(false),
	NewString(""), NewString("a"), NewString("b"), NewString("ab"),
	NewString("bc"), NewString("c"), NewString("abc"), NewString("1"),
}

// nulDomain adds strings holding NUL bytes, the wide-key encoding's
// column terminator, to keyDomain for keys of four or more columns.
// Adjacent columns such as ("a", "b\x00sc") and ("a\x00sb", "c") must
// stay apart.
var nulDomain = append(append([]Value{}, keyDomain...),
	NewString("\x00"), NewString("\x00\x00"), NewString("\x00\x01"), NewString("s\x00"),
	NewString("a\x00sb"), NewString("b\x00sc"), NewString("a\x00"), NewString("\x00sa"))

// refKeyEqual is the key equality the fixed-width layout must
// reproduce: values share a kind and agree on the payload that kind
// keys on, comparing numbers as float64 (so 1 = 1.0, -0 = +0 and
// 2^53 = 2^53+1).
func refKeyEqual(a, b Value) bool {
	kind := func(v Value) int {
		switch v.T {
		case Int, Float:
			return int(Float)
		case Bool, String:
			return int(v.T)
		}
		return int(Null)
	}
	if kind(a) != kind(b) {
		return false
	}
	switch kind(a) {
	case int(Float):
		return a.Float() == b.Float()
	case int(Bool):
		return a.I == b.I
	case int(String):
		return a.S == b.S
	}
	return true
}

// TestKeyEqualityProperty: two rows get equal ValuesKey, and equal
// RowKey over any column list, exactly when the keyed columns are
// pairwise equal under refKeyEqual — at every width, including wide
// keys over NUL-bearing strings.
func TestKeyEqualityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 40000; iter++ {
		w := 1 + rng.Intn(5)
		domain := keyDomain
		if w > 3 {
			domain = nulDomain
		}
		pick := func() Value { return domain[rng.Intn(len(domain))] }
		a, b := make(Row, w), make(Row, w)
		for i := range a {
			a[i] = pick()
			if rng.Intn(3) == 0 {
				b[i] = pick()
			} else {
				b[i] = a[i]
			}
		}
		want := true
		for i := range a {
			want = want && refKeyEqual(a[i], b[i])
		}
		if got := ValuesKey(a) == ValuesKey(b); got != want {
			t.Fatalf("ValuesKey(%v) == ValuesKey(%v) is %v, want %v", a, b, got, want)
		}
		cols := rng.Perm(w)[:1+rng.Intn(w)]
		want = true
		for _, c := range cols {
			want = want && refKeyEqual(a[c], b[c])
		}
		if got := RowKey(a, cols) == RowKey(b, cols); got != want {
			t.Fatalf("RowKey over %v: %v vs %v equal is %v, want %v", cols, a, b, got, want)
		}
	}
}

// TestWideKeyNULStrings: wide keys whose strings hold NUL keep apart
// rows that differ only in where a NUL falls, and a string without NUL
// keys as before.
func TestWideKeyNULStrings(t *testing.T) {
	a := Row{NewString("a"), NewString("b\x00sc"), NewInt(1), NewInt(2)}
	b := Row{NewString("a\x00sb"), NewString("c"), NewInt(1), NewInt(2)}
	if ValuesKey(a) == ValuesKey(b) || RowKey(a, []int{0, 1, 2, 3}) == RowKey(b, []int{0, 1, 2, 3}) {
		t.Errorf("%q and %q share a wide key", a, b)
	}
	if ValuesKey(a) != ValuesKey(a.Clone()) {
		t.Errorf("%q keys apart from its copy", a)
	}
}

// TestNaNKeys pins NaN keying: every NaN bit pattern keys, hashes and
// routes as one value, apart from every number.
func TestNaNKeys(t *testing.T) {
	nans := []float64{
		math.NaN(),
		math.Float64frombits(0xfff8000000000000), // the x86 default NaN
		math.Float64frombits(0x7ff0000000000001), // a signalling NaN
	}
	ref := ValuesKey(Row{NewFloat(nans[0]), NewInt(1)})
	for _, f := range nans {
		if NewFloat(f).Key() != NewFloat(nans[0]).Key() {
			t.Errorf("NaN %#x keys apart from math.NaN()", math.Float64bits(f))
		}
		k := ValuesKey(Row{NewFloat(f), NewInt(1)})
		if k != ref || k.Hash() != ref.Hash() || k.Partition(7) != ref.Partition(7) {
			t.Errorf("NaN %#x: composite key, hash or partition differs", math.Float64bits(f))
		}
		if RowKey(Row{NewFloat(f)}, []int{0}).Partition(7) != RowKey(Row{NewFloat(nans[0])}, []int{0}).Partition(7) {
			t.Errorf("NaN %#x routes apart from math.NaN()", math.Float64bits(f))
		}
	}
	for _, v := range keyDomain {
		if v.Key() == NewFloat(math.NaN()).Key() {
			t.Errorf("NaN shares a key with %v", v)
		}
	}
}

// TestCompositeKeySize pins the fixed-width layout: up to three columns
// fit 48 bytes, well under the 128-byte limit above which Go maps
// store keys out of line.
func TestCompositeKeySize(t *testing.T) {
	if got := unsafe.Sizeof(CompositeKey{}); got != 48 {
		t.Errorf("CompositeKey is %d bytes, want 48", got)
	}
}

// BenchmarkCompositeKeyMap measures building a key and finding its
// group in a map, the per-row cost of grouping and hash joins, for
// 1-, 2- and 3-column numeric keys and a string key.
func BenchmarkCompositeKeyMap(b *testing.B) {
	const groups = 4096
	row := func(i int) Row {
		return Row{NewInt(int64(i)), NewFloat(float64(i) / 2), NewInt(int64(i % 7))}
	}
	cases := []struct {
		name string
		key  func(i int) Row
	}{
		{"1col", func(i int) Row { return row(i)[:1] }},
		{"2col", func(i int) Row { return row(i)[:2] }},
		{"3col", row},
		{"string", func(i int) Row { return Row{NewString(fmt.Sprintf("node-%06d", i))} }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rows := make([]Row, groups)
			m := make(map[CompositeKey]int, groups)
			for i := range rows {
				rows[i] = c.key(i)
				m[ValuesKey(rows[i])] = i
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += m[ValuesKey(rows[i%groups])]
			}
		})
	}
}

var sink int
