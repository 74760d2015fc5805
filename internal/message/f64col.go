package message

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Float columns of the KindBatch body. A column of n values (n known to
// both sides from the columns before it; an empty column is not written) is
//
//	scale byte e (0…15), uvarint common factor g ≥ 1,
//	then n zigzag-varint deltas of q = round(v·10^e)/g
//
// and decodes as float64(q·g)/10^e. The encoder takes the first e at which
// that expression gives back every value's exact bits, so the column is
// lossless by construction: decimal data such as 0.1 or quarter values
// codes as small integers, while -0, NaN, ±Inf, subnormals and magnitudes
// beyond 2^53 fail every scale and send the whole column as scale byte
// f64ColRaw followed by raw little-endian IEEE-754 words.
const (
	f64ColMaxScale = 15
	f64ColRaw      = 0xff
	// f64ColMaxInt bounds |q·g|: every integer up to it converts to float64
	// exactly, so decoding is a single rounding (the division).
	f64ColMaxInt = 1<<53 - 1
)

// f64ColPow10 holds the scales; every entry is an exact float64.
var f64ColPow10 = [f64ColMaxScale + 1]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7,
	1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
}

// appendF64Column appends the encoding of col; an empty column appends
// nothing.
//
//desis:hotpath
func appendF64Column(buf []byte, col []float64) []byte {
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
		prev := int64(0)
		for _, v := range col {
			q := int64(math.Round(v*p)) / g
			buf = binary.AppendVarint(buf, q-prev)
			prev = q
		}
		return buf
	}
	buf = append(buf, f64ColRaw)
	for _, v := range col {
		buf = appendF64(buf, v)
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
		r := math.Round(v * p)
		if !(math.Abs(r) <= f64ColMaxInt) { // also rejects NaN
			return 0, false
		}
		q := int64(r)
		if math.Float64bits(float64(q)/p) != math.Float64bits(v) {
			return 0, false
		}
		if g != 1 {
			a := uint64(q)
			if q < 0 {
				a = uint64(-q)
			}
			for a != 0 {
				g, a = a, g%a
			}
		}
	}
	if g == 0 {
		g = 1
	}
	return int64(g), true
}

// f64ColReader decodes one float column value by value.
type f64ColReader struct {
	raw bool
	p   float64
	// g is the common factor; lim bounds |q| so that |q·g| ≤ f64ColMaxInt.
	g, lim int64
	q      int64
}

// f64Column reads the header of a column of n values; n = 0 reads nothing.
func (r *varReader) f64Column(n int) f64ColReader {
	if n == 0 || r.err != nil {
		return f64ColReader{}
	}
	e := r.u8()
	if e == f64ColRaw {
		return f64ColReader{raw: true}
	}
	g := r.uvarint()
	if r.err == nil && (e > f64ColMaxScale || g == 0) {
		r.err = fmt.Errorf("message: bad float column header (scale %d, factor %d)", e, g)
	}
	if r.err != nil {
		return f64ColReader{}
	}
	lim := int64(0)
	if g <= f64ColMaxInt {
		lim = f64ColMaxInt / int64(g)
	}
	return f64ColReader{p: f64ColPow10[e], g: int64(g), lim: lim}
}

// next decodes the column's next value from r.
func (c *f64ColReader) next(r *varReader) float64 {
	if c.raw {
		return r.f64()
	}
	d := r.varint()
	if r.err != nil {
		return 0
	}
	// |c.q| ≤ lim, so a delta within ±2·lim cannot overflow the sum.
	q := c.q + d
	if d > 2*c.lim || d < -2*c.lim || q > c.lim || q < -c.lim {
		r.err = fmt.Errorf("message: float column value out of range")
		return 0
	}
	c.q = q
	return float64(q*c.g) / c.p
}
