package operator

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// encodedSizeAgg returns the number of bytes AppendAgg must write for a.
func encodedSizeAgg(a *Agg) int {
	n := 1
	if a.Ops&OpCount != 0 {
		n += 8
	}
	if a.Ops&OpSum != 0 {
		n += 8
	}
	if a.Ops&OpMult != 0 {
		n += 8
	}
	if a.Ops&OpDSort != 0 {
		n += 16
	}
	if a.Ops&OpNDSort != 0 {
		n += 4 + 8*len(a.Values)
	}
	return n
}

func TestAggCodecRoundTrip(t *testing.T) {
	masks := []Op{
		OpSum, OpCount, OpMult, OpDSort, OpNDSort,
		OpSum | OpCount, OpSum | OpCount | OpMult | OpDSort | OpNDSort,
	}
	for _, ops := range masks {
		a := NewAgg(ops)
		for _, v := range []float64{2, -7, 3.25, 9} {
			a.Add(v)
		}
		a.Finish()
		buf := AppendAgg(nil, &a)
		if len(buf) != encodedSizeAgg(&a) {
			t.Errorf("mask %v: encoded %d bytes, encodedSizeAgg says %d", ops, len(buf), encodedSizeAgg(&a))
		}
		var got Agg
		rest, err := decodeAgg(buf, &got)
		if err != nil {
			t.Fatalf("mask %v: DecodeAgg: %v", ops, err)
		}
		if len(rest) != 0 {
			t.Fatalf("mask %v: %d bytes left", ops, len(rest))
		}
		if got.Ops != ops || got.CountV != a.CountV || got.SumV != a.SumV ||
			got.ProdV != a.ProdV || got.MinV != a.MinV || got.MaxV != a.MaxV {
			t.Errorf("mask %v: got %+v, want %+v", ops, got, a)
		}
		if ops&OpNDSort != 0 && !reflect.DeepEqual(got.Values, a.Values) {
			t.Errorf("mask %v: values %v, want %v", ops, got.Values, a.Values)
		}
	}
}

func TestAggCodecEmpty(t *testing.T) {
	a := NewAgg(OpSum | OpCount | OpNDSort)
	a.Finish()
	var got Agg
	rest, err := decodeAgg(AppendAgg(nil, &a), &got)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeAgg: %v, rest=%d", err, len(rest))
	}
	if !got.Empty() {
		t.Error("decoded empty agg not empty")
	}
}

func TestAggCodecTruncated(t *testing.T) {
	a := NewAgg(OpSum | OpCount | OpDSort | OpNDSort | OpMult)
	a.Add(1)
	a.Add(2)
	a.Finish()
	buf := AppendAgg(nil, &a)
	for i := 0; i < len(buf); i++ {
		var got Agg
		if _, err := decodeAgg(buf[:i], &got); err == nil {
			t.Fatalf("DecodeAgg of %d/%d bytes succeeded", i, len(buf))
		}
	}
}

// TestAggMergeMatchesCombinedQuick is a property test: merging the
// aggregates of two halves must equal aggregating the concatenation. This is
// the distributivity invariant that decentralized aggregation relies on.
func TestAggMergeMatchesCombinedQuick(t *testing.T) {
	ops := OpSum | OpCount | OpDSort | OpNDSort
	f := func(seed int64, nx, ny uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, int(nx)%32)
		y := make([]float64, int(ny)%32)
		for i := range x {
			x[i] = rng.NormFloat64() * 100
		}
		for i := range y {
			y[i] = rng.NormFloat64() * 100
		}
		a, b, all := NewAgg(ops), NewAgg(ops), NewAgg(ops)
		for _, v := range x {
			a.Add(v)
			all.Add(v)
		}
		for _, v := range y {
			b.Add(v)
			all.Add(v)
		}
		a.Finish()
		b.Finish()
		all.Finish()
		a.Merge(&b)
		if a.CountV != all.CountV {
			return false
		}
		// Summation order differs between the merged and the combined
		// aggregate, so allow floating-point rounding slack.
		if diff := math.Abs(a.SumV - all.SumV); diff > 1e-9*(1+math.Abs(all.SumV)) {
			return false
		}
		if len(x)+len(y) > 0 && (a.MinV != all.MinV || a.MaxV != all.MaxV) {
			return false
		}
		return reflect.DeepEqual(a.Values, all.Values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAggCodecQuick round-trips random aggregates through the wire codec.
func TestAggCodecQuick(t *testing.T) {
	f := func(seed int64, n uint8, maskBits uint8) bool {
		ops := Op(maskBits) & (OpSum | OpCount | OpMult | OpDSort | OpNDSort)
		if ops == 0 {
			ops = OpCount
		}
		rng := rand.New(rand.NewSource(seed))
		a := NewAgg(ops)
		for i := 0; i < int(n)%50; i++ {
			a.Add(rng.Float64()*2000 - 1000)
		}
		a.Finish()
		var got Agg
		rest, err := decodeAgg(AppendAgg(nil, &a), &got)
		if err != nil || len(rest) != 0 {
			return false
		}
		if got.Ops != a.Ops || got.CountV != a.CountV || got.SumV != a.SumV ||
			got.ProdV != a.ProdV || got.MinV != a.MinV || got.MaxV != a.MaxV {
			return false
		}
		if a.Ops&OpNDSort != 0 && !reflect.DeepEqual(got.Values, a.Values) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
