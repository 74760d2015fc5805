package event

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Columns are the one vocabulary of the data-frame bodies: the event batch
// body (AppendBatch) and the message package's KindBatch body are each a
// sequence of int columns and float columns. A column's length n is known
// to both sides from what precedes it, and an empty column is not written.

// Reader is a cursor over encoded bytes with a sticky error: after the
// first failure every read returns zero and Err keeps the failure.
type Reader struct {
	Buf []byte
	Err error
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.Err != nil {
		return 0
	}
	if len(r.Buf) < 1 {
		r.Err = fmt.Errorf("event: truncated body")
		return 0
	}
	b := r.Buf[0]
	r.Buf = r.Buf[1:]
	return b
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Buf)
	if n <= 0 {
		r.Err = fmt.Errorf("event: bad uvarint")
		return 0
	}
	r.Buf = r.Buf[n:]
	return v
}

// Varint reads one zigzag varint.
func (r *Reader) Varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.Buf)
	if n <= 0 {
		r.Err = fmt.Errorf("event: bad varint")
		return 0
	}
	r.Buf = r.Buf[n:]
	return v
}

// F64 reads one little-endian IEEE-754 word.
func (r *Reader) F64() float64 {
	if r.Err != nil {
		return 0
	}
	if len(r.Buf) < 8 {
		r.Err = fmt.Errorf("event: truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.Buf))
	r.Buf = r.Buf[8:]
	return v
}

// Int columns. A column of n values is a header uvarint, then either
//
//	IntColPlain: n zigzag varints, or
//	IntColRuns:  (zigzag varint value, uvarint length ≥ 1) pairs whose
//	             lengths sum to n,
//
// whichever is shorter. A column therefore never costs more than its plain
// varints plus the header byte, and a column that holds one value
// throughout costs a few bytes whatever n is. That is also why a decoder
// cannot bound a claimed count by the bytes its int columns occupy.
const (
	IntColPlain = 0
	IntColRuns  = 1
)

// AppendIntColumn appends the encoding of col; an empty column appends
// nothing.
//
//desis:hotpath
func AppendIntColumn(buf []byte, col []int64) []byte {
	if len(col) == 0 {
		return buf
	}
	// Write the plain form while pricing the runs form, then rewrite as
	// runs only if that is shorter.
	start := len(buf)
	buf = append(buf, IntColPlain)
	runs, v, lv, run := 1, col[0], varintLen(col[0]), uint64(0)
	for _, x := range col {
		u := uint64(x<<1) ^ uint64(x>>63) // zigzag
		if u < 0x80 {
			buf = append(buf, byte(u))
		} else {
			buf = binary.AppendUvarint(buf, u)
		}
		if x != v {
			runs += lv + uvarintLen(run)
			v, lv, run = x, uvarintLen(u), 0
		}
		run++
	}
	if runs += lv + uvarintLen(run); len(buf)-start <= runs {
		return buf
	}
	buf = append(buf[:start], IntColRuns)
	v, run = col[0], 0
	for _, x := range col {
		if x != v {
			buf = binary.AppendUvarint(binary.AppendVarint(buf, v), run)
			v, run = x, 0
		}
		run++
	}
	return binary.AppendUvarint(binary.AppendVarint(buf, v), run)
}

// varintLen is the size of x as a zigzag varint.
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// uvarintLen is the size of u as an unsigned varint.
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// IntColumn fills dst from an int column of len(dst) values; an empty dst
// reads nothing. On error dst holds garbage and r.Err says why.
func (r *Reader) IntColumn(dst []int64) {
	if len(dst) == 0 || r.Err != nil {
		return
	}
	switch h := r.Uvarint(); {
	case r.Err != nil:
	case h == IntColPlain:
		b := r.Buf
		for i := range dst {
			if len(b) > 0 && b[0] < 0x80 { // one-byte varints need no call
				dst[i] = int64(b[0]>>1) ^ -int64(b[0]&1)
				b = b[1:]
				continue
			}
			v, n := binary.Varint(b)
			if n <= 0 {
				r.Err = fmt.Errorf("event: bad varint in int column")
				return
			}
			dst[i], b = v, b[n:]
		}
		r.Buf = b
	case h == IntColRuns:
		for i := 0; i < len(dst); {
			v, l := r.Varint(), r.Uvarint()
			if r.Err == nil && (l == 0 || l > uint64(len(dst)-i)) {
				r.Err = fmt.Errorf("event: int column run of %d with %d values left", l, len(dst)-i)
			}
			if r.Err != nil {
				return
			}
			run := dst[i : i+int(l)]
			for k := range run {
				run[k] = v
			}
			i += int(l)
		}
	default:
		r.Err = fmt.Errorf("event: bad int column header %d", h)
	}
}

// Float columns. A column of n values is
//
//	scale byte e (0…15), uvarint common factor g ≥ 1,
//	then n zigzag-varint deltas of q = round(v·10^e)/g
//
// and decodes as float64(q·g)/10^e. The encoder takes the first e at which
// that expression gives back every value's exact bits, so the column is
// lossless by construction: decimal data such as 0.1 or quarter values
// codes as small integers, while -0, NaN, ±Inf, subnormals and magnitudes
// beyond 2^53 fail every scale and send the whole column as scale byte
// F64ColRaw followed by raw little-endian IEEE-754 words. Either way every
// value costs at least one byte, which is what lets a decoder bound a
// claimed value count by the bytes left.
const (
	f64ColMaxScale = 15
	F64ColRaw      = 0xff
	// f64ColMaxInt bounds |q·g|: every integer up to it converts to float64
	// exactly, so decoding is a single rounding (the division).
	f64ColMaxInt = 1<<53 - 1
)

// f64ColPow10 holds the scales; every entry is an exact float64.
var f64ColPow10 = [f64ColMaxScale + 1]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7,
	1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
}

// AppendF64Column appends the encoding of col; an empty column appends
// nothing.
//
//desis:hotpath
func AppendF64Column(buf []byte, col []float64) []byte {
	if len(col) == 0 {
		return buf
	}
	for e := 0; e <= f64ColMaxScale; e++ {
		p := f64ColPow10[e]
		g, ok := f64ColFactor(col, p)
		if !ok {
			continue
		}
		buf = append(buf, byte(e))
		buf = binary.AppendUvarint(buf, uint64(g))
		// q·g is below 2^53 and a multiple of g, so the float division is
		// exact and spares an integer one per value.
		fg, prev := float64(g), int64(0)
		for _, v := range col {
			q := int64(math.RoundToEven(v*p) / fg)
			buf = binary.AppendVarint(buf, q-prev)
			prev = q
		}
		return buf
	}
	buf = append(buf, F64ColRaw)
	for _, v := range col {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// f64ColFactor reports whether every value of col survives scale p
// bit-exactly, and if so the greatest common divisor of the scaled
// integers (1 for an all-zero column).
//
//desis:hotpath
func f64ColFactor(col []float64, p float64) (int64, bool) {
	g := uint64(0)
	for _, v := range col {
		// RoundToEven compiles to one instruction where Round does not;
		// the two differ only on ties, which the bit check refuses anyway.
		r := math.RoundToEven(v * p)
		if !(math.Abs(r) <= f64ColMaxInt) { // also rejects NaN
			return 0, false
		}
		q := int64(r)
		if math.Float64bits(float64(q)/p) != math.Float64bits(v) {
			return 0, false
		}
		a := uint64(q)
		if q < 0 {
			a = uint64(-q)
		}
		if g == 1 || a == 0 {
			continue
		}
		// A multiple of g leaves it as is; the 32-bit remainder is the
		// common case and several times cheaper than the 64-bit one.
		if g != 0 && (a|g <= math.MaxUint32 && uint32(a)%uint32(g) == 0 || a|g > math.MaxUint32 && a%g == 0) {
			continue
		}
		for a != 0 {
			g, a = a, g%a
		}
	}
	if g == 0 {
		g = 1
	}
	return int64(g), true
}

// F64Column fills dst from a float column of len(dst) values; an empty dst
// reads nothing. On error dst holds garbage and r.Err says why.
func (r *Reader) F64Column(dst []float64) {
	if len(dst) == 0 || r.Err != nil {
		return
	}
	e := r.U8()
	if e == F64ColRaw {
		if len(r.Buf) < 8*len(dst) {
			r.Err = fmt.Errorf("event: truncated float column")
			return
		}
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.Buf[8*i:]))
		}
		r.Buf = r.Buf[8*len(dst):]
		return
	}
	g := r.Uvarint()
	if r.Err == nil && (e > f64ColMaxScale || g == 0) {
		r.Err = fmt.Errorf("event: bad float column header (scale %d, factor %d)", e, g)
	}
	if r.Err != nil {
		return
	}
	// lim bounds |q| so that |q·g| ≤ f64ColMaxInt; with |q| ≤ lim a delta
	// within ±2·lim cannot overflow the sum.
	lim := int64(0)
	if g <= f64ColMaxInt {
		lim = f64ColMaxInt / int64(g)
	}
	p, b, q := f64ColPow10[e], r.Buf, int64(0)
	for i := range dst {
		var d int64
		if len(b) > 0 && b[0] < 0x80 { // one-byte varints need no call
			d, b = int64(b[0]>>1)^-int64(b[0]&1), b[1:]
		} else {
			v, n := binary.Varint(b)
			if n <= 0 {
				r.Err = fmt.Errorf("event: bad varint in float column")
				return
			}
			d, b = v, b[n:]
		}
		q += d
		if d > 2*lim || d < -2*lim || q > lim || q < -lim {
			r.Err = fmt.Errorf("event: float column value out of range")
			return
		}
		dst[i] = float64(q*int64(g)) / p
	}
	r.Buf = b
}
