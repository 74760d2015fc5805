package operator

import (
	"encoding/binary"
	"math"

	"desis/internal/event"
)

// Binary encoding of partial results. Only the fields selected by the
// operator mask travel on the wire, which is what gives decomposable
// functions their high reduction factor (§6.4.1): an avg partial is 16
// bytes no matter how many events it summarises.

// AppendAgg appends the wire encoding of a to buf. The mask itself is
// written first so the receiver can decode without out-of-band schema.
func AppendAgg(buf []byte, a *Agg) []byte {
	le := binary.LittleEndian
	buf = append(buf, byte(a.Ops))
	if a.Ops&OpCount != 0 {
		buf = le.AppendUint64(buf, uint64(a.CountV))
	}
	if a.Ops&OpSum != 0 {
		buf = le.AppendUint64(buf, math.Float64bits(a.SumV))
	}
	if a.Ops&OpMult != 0 {
		buf = le.AppendUint64(buf, math.Float64bits(a.ProdV))
	}
	if a.Ops&OpDSort != 0 {
		buf = le.AppendUint64(buf, math.Float64bits(a.MinV))
		buf = le.AppendUint64(buf, math.Float64bits(a.MaxV))
	}
	if a.Ops&OpNDSort != 0 {
		buf = le.AppendUint32(buf, uint32(len(a.Values)))
		for _, v := range a.Values {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// DecodeAgg reads an aggregate written by AppendAgg into a, reusing a's
// Values buffer. A failure is left in r.Err.
func DecodeAgg(r *event.Reader, a *Agg) {
	ops := Op(r.U8())
	if r.Err != nil {
		return
	}
	a.Reset(ops)
	if ops&OpCount != 0 {
		a.CountV = int64(r.U64())
	}
	if ops&OpSum != 0 {
		a.SumV = r.F64()
	}
	if ops&OpMult != 0 {
		a.ProdV = r.F64()
	}
	if ops&OpDSort != 0 {
		a.MinV, a.MaxV = r.F64(), r.F64()
	}
	if ops&OpNDSort != 0 {
		n := r.Count(8)
		for i := 0; i < n; i++ {
			a.Values = append(a.Values, r.F64())
		}
		// Partials are finished (sorted) before they ship.
		a.Sorted = true
	}
}
