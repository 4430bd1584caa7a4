package sqltypes

import (
	"math"
	"strings"
)

// Key is a comparable normalization of a Value, used as (part of) map
// keys in hash aggregation, hash joins, DISTINCT and the delta
// machinery. Two values share a Key exactly when grouping and equi-joins
// must treat them as equal:
//
//   - NULL is one key (GROUP BY puts NULLs together; joins and
//     Partition test IsNull before matching).
//   - INT and FLOAT normalize to the bits of the float64 they denote,
//     so 1 and 1.0 share a key. An INT beyond ±2^53 rounds like its
//     float: 2^53 and 2^53+1 share a key.
//   - -0.0 normalizes to +0.0.
//   - Every NaN normalizes to one canonical NaN, so all NaNs form one
//     group and a NaN join key matches a NaN key, as in PostgreSQL.
//     This agrees with Compare, which orders NaN equal to NaN. Compare
//     also calls NaN equal to every number; no hash key can honour that,
//     so NaN = 1.0 is true as an expression but never a hash-join match.
//   - BOOLEAN keys on 0/1 and STRING on its bytes; the kind tag keeps
//     TRUE, 1 and "1" apart.
//
// The bit-pattern layout makes Key, and the CompositeKey built from it,
// hash as plain memory plus one string header.
type Key struct {
	bits uint64 // numeric: normalized float64 bits; bool: 0 or 1
	s    string // string payload
	kind keyKind
}

type keyKind uint8

const (
	keyNull keyKind = iota
	keyBool
	keyNum
	keyStr
)

// canonicalNaN is the one bit pattern every NaN key carries.
var canonicalNaN = math.Float64bits(math.NaN())

// numBits normalizes a float64 for keying: -0 becomes +0 and every NaN
// becomes canonicalNaN.
func numBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return canonicalNaN
	}
	return math.Float64bits(f)
}

// Key returns the normalized map-key form of v (see Key).
func (v Value) Key() Key {
	switch v.T {
	case Bool:
		return Key{kind: keyBool, bits: uint64(v.I)}
	case Int:
		return Key{kind: keyNum, bits: numBits(float64(v.I))}
	case Float:
		return Key{kind: keyNum, bits: numBits(v.F)}
	case String:
		return Key{kind: keyStr, s: v.S}
	}
	return Key{kind: keyNull}
}

// IsNull reports whether the key came from a NULL value.
func (k Key) IsNull() bool { return k.kind == keyNull }

// CompositeKey is the comparable key over a row's key columns: what
// grouping, hash joins, DISTINCT and the MPP routing function key by.
// The zero CompositeKey is the empty (zero-column) key.
//
// It is 48 bytes with a single pointer field, so Go maps store it
// inline (the limit is 128 bytes) and hash it as one 32-byte memory
// block plus one string. For up to three columns:
//
//   - bits[i] holds column i's normalized Key bits; for a STRING column
//     it holds the string's length instead.
//   - kinds[i] holds column i's key kind; columns past n stay zero.
//   - s holds the STRING columns' bytes concatenated in column order.
//     The lengths in bits delimit them, so ("ab","c") and ("a","bc")
//     differ. A key with one STRING column shares that string and
//     allocates nothing.
//
// Keys wider than three columns keep the byte encoding of wideKey in s,
// with n > 3 and bits and kinds zero. That encoding escapes NUL bytes
// inside strings, so two wide keys are equal exactly when their columns
// are.
type CompositeKey struct {
	bits  [3]uint64
	kinds [3]keyKind
	null  bool  // some column is NULL
	n     int32 // number of key columns
	s     string
}

// set stores column i (< 3) of the key.
func (k *CompositeKey) set(i int, v Value) {
	kk := v.Key()
	k.kinds[i] = kk.kind
	switch kk.kind {
	case keyNull:
		k.null = true
	case keyStr:
		k.bits[i] = uint64(len(kk.s))
		k.s += kk.s // shares kk.s when k.s is still empty
	default:
		k.bits[i] = kk.bits
	}
}

// RowKey builds a composite map key from the given column positions of a
// row. It is the common key-construction path for grouping and the
// merge step.
func RowKey(r Row, cols []int) CompositeKey {
	if len(cols) > len(CompositeKey{}.bits) {
		var w wideKey
		for _, c := range cols {
			w.add(r[c].Key())
		}
		return w.key(len(cols))
	}
	k := CompositeKey{n: int32(len(cols))}
	for i, c := range cols {
		k.set(i, r[c])
	}
	return k
}

// ValuesKey builds a composite key from a full row (all columns). Keys
// of up to three columns are built in place; they allocate only to
// concatenate two or more non-empty strings. Hash joins evaluate their
// key expressions into a fixed array and key it through here.
func ValuesKey(r Row) CompositeKey {
	if len(r) > len(CompositeKey{}.bits) {
		var w wideKey
		for _, v := range r {
			w.add(v.Key())
		}
		return w.key(len(r))
	}
	k := CompositeKey{n: int32(len(r))}
	for i, v := range r {
		k.set(i, v)
	}
	return k
}

// wideKey accumulates the string encoding of a key wider than three
// columns: per column a kind letter, the payload, and a NUL. A STRING
// payload escapes its NUL bytes (see writeEscaped), so the encoding is
// injective.
type wideKey struct {
	b       strings.Builder
	hasNull bool
}

func (w *wideKey) add(k Key) {
	switch k.kind {
	case keyNull:
		w.hasNull = true
		w.b.WriteByte('n')
	case keyBool:
		w.b.WriteByte('b')
		if k.bits != 0 {
			w.b.WriteByte('1')
		} else {
			w.b.WriteByte('0')
		}
	case keyNum:
		w.b.WriteByte('f')
		for i := 0; i < 8; i++ {
			w.b.WriteByte(byte(k.bits >> (8 * i)))
		}
	case keyStr:
		w.b.WriteByte('s')
		writeEscaped(&w.b, k.s)
	}
	w.b.WriteByte(0)
}

// writeEscaped writes s with every NUL byte doubled into NUL 0x01, so
// a NUL inside a string never reads as the column terminator, which is
// followed by a kind letter or nothing. Strings without NUL are written
// as they are, keeping their encoding and routing.
func writeEscaped(b *strings.Builder, s string) {
	for {
		i := strings.IndexByte(s, 0)
		if i < 0 {
			b.WriteString(s)
			return
		}
		b.WriteString(s[:i+1])
		b.WriteByte(1)
		s = s[i+1:]
	}
}

func (w *wideKey) key(n int) CompositeKey {
	return CompositeKey{s: w.b.String(), n: int32(n), null: w.hasNull}
}

// FNV-1a, the hash behind every routing decision.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvUint64(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Hash returns a 64-bit hash of the key, used by the MPP layer to
// route rows to partitions. Equal keys hash equally. It is FNV-1a over
// each column's kind tag and payload (numbers as their 8 normalized
// float bytes, little-endian), or over the whole encoding of a wide
// key. The value is part of the routing contract (see Partition): a
// change to it moves rows between partitions.
func (k CompositeKey) Hash() uint64 {
	h := uint64(fnvOffset)
	if k.n > int32(len(k.bits)) {
		return fnvString(h, k.s)
	}
	off := 0
	for i := 0; i < int(k.n); i++ {
		h = fnvByte(h, byte(k.kinds[i]))
		switch k.kinds[i] {
		case keyBool:
			h = fnvByte(h, byte(k.bits[i]))
		case keyNum:
			h = fnvUint64(h, k.bits[i])
		case keyStr:
			end := off + int(k.bits[i])
			h = fnvString(h, k.s[off:end])
			off = end
		}
	}
	return h
}

// Partition is THE routing function of the simulated MPP engine: it
// maps a key to the partition that owns rows with that key, and every
// layer that places rows — storage inserts on a table's DistCol, the
// MPP shuffle exchange, the full-row distinct exchange — must agree on
// it, because the static partition-property analysis
// (internal/distprop) licenses shuffle elision exactly on the claim
// "rows keyed k already live in partition k.Partition(parts)".
//
// Contract:
//   - parts <= 1: everything is partition 0.
//   - any NULL component: partition 0 (NULL never matches in SQL
//     equality, so co-locating all NULLs is always safe and keeps the
//     routing total).
//   - a single non-NULL component: the legacy scalar FNV-1a hash
//     (untagged, numeric values via their float bits so 1 and 1.0
//     co-locate) — the same function storage has always used for
//     DistCol inserts, so base-table layouts are unchanged.
//   - wider keys: the composite Hash().
func (k CompositeKey) Partition(parts int) int {
	if parts <= 1 || k.null {
		return 0
	}
	if k.n == 1 {
		return int(k.scalarHash() % uint64(parts))
	}
	return int(k.Hash() % uint64(parts))
}

// scalarHash is the single-column routing hash: FNV-1a over the
// normalized scalar without a type tag, matching the historical
// storage-layer hash so existing base-table layouts are preserved.
// Partition routes NULL keys to 0 before calling it.
func (k CompositeKey) scalarHash() uint64 {
	h := uint64(fnvOffset)
	switch k.kinds[0] {
	case keyNum:
		return fnvUint64(h, k.bits[0])
	case keyStr:
		return fnvString(h, k.s)
	case keyBool:
		return fnvByte(h, byte(k.bits[0]))
	}
	return h
}

// HasNull reports whether any component of the key is NULL; hash joins
// use this to skip NULL keys (NULL never matches in SQL equality).
func (k CompositeKey) HasNull() bool { return k.null }
