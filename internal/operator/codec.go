package operator

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of partial results. Only the fields selected by the
// operator mask travel on the wire, which is what gives decomposable
// functions their high reduction factor (§6.4.1): an avg partial is 16
// bytes no matter how many events it summarises.

// AppendAgg appends the wire encoding of a to buf. The mask itself is
// written first so the receiver can decode without out-of-band schema.
func AppendAgg(buf []byte, a *Agg) []byte {
	buf = append(buf, byte(a.Ops))
	var tmp [8]byte
	if a.Ops&OpCount != 0 {
		binary.LittleEndian.PutUint64(tmp[:], uint64(a.CountV))
		buf = append(buf, tmp[:]...)
	}
	if a.Ops&OpSum != 0 {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(a.SumV))
		buf = append(buf, tmp[:]...)
	}
	if a.Ops&OpMult != 0 {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(a.ProdV))
		buf = append(buf, tmp[:]...)
	}
	if a.Ops&OpDSort != 0 {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(a.MinV))
		buf = append(buf, tmp[:]...)
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(a.MaxV))
		buf = append(buf, tmp[:]...)
	}
	if a.Ops&OpNDSort != 0 {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(a.Values)))
		buf = append(buf, tmp[:4]...)
		for _, v := range a.Values {
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
			buf = append(buf, tmp[:]...)
		}
	}
	return buf
}

// DecodeAgg decodes an aggregate written by AppendAgg into a, reusing a's
// Values buffer, and returns the remaining bytes.
func DecodeAgg(buf []byte, a *Agg) ([]byte, error) {
	if len(buf) < 1 {
		return buf, fmt.Errorf("operator: short agg header")
	}
	ops := Op(buf[0])
	buf = buf[1:]
	a.Reset(ops)
	take := func(n int) ([]byte, error) {
		if len(buf) < n {
			return nil, fmt.Errorf("operator: short agg body: need %d bytes, have %d", n, len(buf))
		}
		b := buf[:n]
		buf = buf[n:]
		return b, nil
	}
	if ops&OpCount != 0 {
		b, err := take(8)
		if err != nil {
			return buf, err
		}
		a.CountV = int64(binary.LittleEndian.Uint64(b))
	}
	if ops&OpSum != 0 {
		b, err := take(8)
		if err != nil {
			return buf, err
		}
		a.SumV = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	if ops&OpMult != 0 {
		b, err := take(8)
		if err != nil {
			return buf, err
		}
		a.ProdV = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	if ops&OpDSort != 0 {
		b, err := take(16)
		if err != nil {
			return buf, err
		}
		a.MinV = math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))
		a.MaxV = math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
	}
	if ops&OpNDSort != 0 {
		b, err := take(4)
		if err != nil {
			return buf, err
		}
		n := int(binary.LittleEndian.Uint32(b))
		b, err = take(n * 8)
		if err != nil {
			return buf, err
		}
		for i := 0; i < n; i++ {
			a.Values = append(a.Values, math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])))
		}
		// Partials are finished (sorted) before they ship.
		a.Sorted = true
	}
	return buf, nil
}
