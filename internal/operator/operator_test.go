package operator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestFunctionOperators verifies Table 1 of the paper: the mapping from
// aggregation functions to primitive operators.
func TestFunctionOperators(t *testing.T) {
	table := []struct {
		f    Func
		want Op
	}{
		{Sum, OpSum},
		{Count, OpCount},
		{Average, OpSum | OpCount},
		{Product, OpMult},
		{GeoMean, OpMult | OpCount},
		{Max, OpDSort},
		{Min, OpDSort},
		{Median, OpNDSort},
		{Quantile, OpNDSort},
	}
	for _, tc := range table {
		if got := OperatorsOf(tc.f); got != tc.want {
			t.Errorf("OperatorsOf(%v) = %v, want %v", tc.f, got, tc.want)
		}
	}
}

func TestUnionSharesOperators(t *testing.T) {
	// avg + sum share the sum operator: 2 operators total, not 3 (§4.2.1).
	got := Union([]FuncSpec{{Func: Average}, {Func: Sum}})
	if got != OpSum|OpCount {
		t.Errorf("Union(avg, sum) = %v, want sum|count", got)
	}
	if got.NumOps() != 2 {
		t.Errorf("Union(avg, sum).NumOps() = %d, want 2", got.NumOps())
	}
	// max + median share the non-decomposable sort (§4.2.2): the
	// decomposable sort is dropped because sorted values answer max.
	got = Union([]FuncSpec{{Func: Max}, {Func: Median}})
	if got != OpNDSort {
		t.Errorf("Union(max, median) = %v, want ndsort", got)
	}
	// quantile + max likewise share one operator (Fig 9g).
	got = Union([]FuncSpec{{Func: Quantile, Arg: 0.9}, {Func: Max}})
	if got != OpNDSort {
		t.Errorf("Union(quantile, max) = %v, want ndsort", got)
	}
	// min + max share the decomposable sort.
	got = Union([]FuncSpec{{Func: Min}, {Func: Max}})
	if got != OpDSort {
		t.Errorf("Union(min, max) = %v, want dsort", got)
	}
}

func TestNumOps(t *testing.T) {
	if n := Op(0).NumOps(); n != 0 {
		t.Errorf("empty NumOps = %d", n)
	}
	if n := (OpSum | OpCount | OpNDSort).NumOps(); n != 3 {
		t.Errorf("NumOps = %d, want 3", n)
	}
}

func TestParseFunc(t *testing.T) {
	for f := Sum; f < numFuncs; f++ {
		got, err := ParseFunc(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFunc(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFunc("nope"); err == nil {
		t.Error("ParseFunc(nope) succeeded")
	}
}

func TestDecomposable(t *testing.T) {
	for f := Sum; f < numFuncs; f++ {
		want := f != Median && f != Quantile
		if got := f.Decomposable(); got != want {
			t.Errorf("%v.Decomposable() = %v, want %v", f, got, want)
		}
	}
}

func TestFuncSpecValidate(t *testing.T) {
	if err := (FuncSpec{Func: Quantile, Arg: 0.5}).Validate(); err != nil {
		t.Errorf("valid quantile rejected: %v", err)
	}
	if err := (FuncSpec{Func: Quantile, Arg: 0}).Validate(); err == nil {
		t.Error("quantile(0) accepted")
	}
	if err := (FuncSpec{Func: Quantile, Arg: 1.5}).Validate(); err == nil {
		t.Error("quantile(1.5) accepted")
	}
	if err := (FuncSpec{Func: numFuncs}).Validate(); err == nil {
		t.Error("unknown function accepted")
	}
	if err := (FuncSpec{Func: Sum}).Validate(); err != nil {
		t.Errorf("sum rejected: %v", err)
	}
}

func TestFuncSpecString(t *testing.T) {
	if s := (FuncSpec{Func: Quantile, Arg: 0.99}).String(); s != "quantile(0.99)" {
		t.Errorf("String() = %q", s)
	}
	if s := (FuncSpec{Func: Average}).String(); s != "average" {
		t.Errorf("String() = %q", s)
	}
}

func TestOpString(t *testing.T) {
	if s := (OpSum | OpCount).String(); s != "sum|count" {
		t.Errorf("String() = %q", s)
	}
	if s := Op(0).String(); s != "none" {
		t.Errorf("String() = %q", s)
	}
}

func TestAggBasic(t *testing.T) {
	a := NewAgg(OpSum | OpCount | OpMult | OpDSort | OpNDSort)
	for _, v := range []float64{3, 1, 2} {
		a.Add(v)
	}
	a.Finish()
	if a.CountV != 3 || a.SumV != 6 || a.ProdV != 6 {
		t.Fatalf("count=%d sum=%g prod=%g", a.CountV, a.SumV, a.ProdV)
	}
	if a.MinV != 1 || a.MaxV != 3 {
		t.Fatalf("min=%g max=%g", a.MinV, a.MaxV)
	}
	want := []float64{1, 2, 3}
	for i, v := range want {
		if a.Values[i] != v {
			t.Fatalf("values = %v, want %v", a.Values, want)
		}
	}
}

func TestAggEval(t *testing.T) {
	a := NewAgg(OpSum | OpCount | OpMult | OpDSort | OpNDSort)
	for _, v := range []float64{4, 1, 3, 2} {
		a.Add(v)
	}
	a.Finish()
	cases := []struct {
		spec FuncSpec
		want float64
	}{
		{FuncSpec{Func: Sum}, 10},
		{FuncSpec{Func: Count}, 4},
		{FuncSpec{Func: Average}, 2.5},
		{FuncSpec{Func: Product}, 24},
		{FuncSpec{Func: GeoMean}, math.Pow(24, 0.25)},
		{FuncSpec{Func: Min}, 1},
		{FuncSpec{Func: Max}, 4},
		{FuncSpec{Func: Median}, 2},
		{FuncSpec{Func: Quantile, Arg: 0.25}, 1},
		{FuncSpec{Func: Quantile, Arg: 1}, 4},
	}
	for _, tc := range cases {
		got, ok := a.Eval(tc.spec)
		if !ok {
			t.Errorf("Eval(%v) not ok", tc.spec)
			continue
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Eval(%v) = %g, want %g", tc.spec, got, tc.want)
		}
	}
}

func TestAggEvalMinMaxFromNDSort(t *testing.T) {
	// When only the non-decomposable sort ran, min/max come from the
	// sorted values.
	a := NewAgg(OpNDSort | OpCount)
	for _, v := range []float64{5, -1, 2} {
		a.Add(v)
	}
	a.Finish()
	if v, ok := a.Eval(FuncSpec{Func: Min}); !ok || v != -1 {
		t.Errorf("min = %g, %v", v, ok)
	}
	if v, ok := a.Eval(FuncSpec{Func: Max}); !ok || v != 5 {
		t.Errorf("max = %g, %v", v, ok)
	}
}

func TestAggEmpty(t *testing.T) {
	a := NewAgg(OpSum | OpCount | OpDSort | OpNDSort | OpMult)
	a.Finish()
	if !a.Empty() {
		t.Fatal("fresh agg not empty")
	}
	if v, ok := a.Eval(FuncSpec{Func: Count}); !ok || v != 0 {
		t.Errorf("count of empty = %g, %v", v, ok)
	}
	for _, f := range []Func{Sum, Average, Product, GeoMean, Min, Max, Median} {
		if _, ok := a.Eval(FuncSpec{Func: f}); ok {
			t.Errorf("%v of empty window reported ok", f)
		}
	}
	if _, ok := a.Eval(FuncSpec{Func: Quantile, Arg: 0.5}); ok {
		t.Error("quantile of empty window reported ok")
	}
}

func TestAggMerge(t *testing.T) {
	ops := OpSum | OpCount | OpMult | OpDSort | OpNDSort
	a := NewAgg(ops)
	b := NewAgg(ops)
	for _, v := range []float64{1, 5} {
		a.Add(v)
	}
	for _, v := range []float64{3, 2} {
		b.Add(v)
	}
	a.Finish()
	b.Finish()
	a.Merge(&b)
	if a.CountV != 4 || a.SumV != 11 || a.ProdV != 30 {
		t.Fatalf("merged count=%d sum=%g prod=%g", a.CountV, a.SumV, a.ProdV)
	}
	if a.MinV != 1 || a.MaxV != 5 {
		t.Fatalf("merged min=%g max=%g", a.MinV, a.MaxV)
	}
	want := []float64{1, 2, 3, 5}
	if len(a.Values) != len(want) {
		t.Fatalf("merged values = %v", a.Values)
	}
	for i := range want {
		if a.Values[i] != want[i] {
			t.Fatalf("merged values = %v, want %v", a.Values, want)
		}
	}
}

func TestAggMergeEmptySides(t *testing.T) {
	ops := OpNDSort | OpCount
	a := NewAgg(ops)
	b := NewAgg(ops)
	b.Add(1)
	b.Finish()
	a.Finish()
	a.Merge(&b)
	if a.CountV != 1 || len(a.Values) != 1 {
		t.Fatalf("empty-left merge: %+v", a)
	}
	c := NewAgg(ops)
	c.Finish()
	a.Merge(&c)
	if a.CountV != 1 || len(a.Values) != 1 {
		t.Fatalf("empty-right merge: %+v", a)
	}
}

func TestAggResetReusesBuffer(t *testing.T) {
	a := NewAgg(OpNDSort)
	for i := 0; i < 100; i++ {
		a.Add(float64(i))
	}
	buf := a.Values
	a.Reset(OpNDSort)
	if len(a.Values) != 0 {
		t.Fatal("Reset did not truncate values")
	}
	a.Add(1)
	if &buf[0] != &a.Values[0] {
		t.Error("Reset reallocated the values buffer")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	a := NewAgg(OpNDSort)
	for i := 1; i <= 10; i++ {
		a.Add(float64(i))
	}
	a.Finish()
	cases := []struct {
		q, want float64
	}{
		{0.1, 1}, {0.25, 3}, {0.5, 5}, {0.9, 9}, {1, 10}, {0.0001, 1},
	}
	for _, tc := range cases {
		got, ok := a.Eval(FuncSpec{Func: Quantile, Arg: tc.q})
		if !ok || got != tc.want {
			t.Errorf("quantile(%g) = %g (%v), want %g", tc.q, got, ok, tc.want)
		}
	}
}

// TestAddRunEqualsAddLoop holds AddRun to a loop of Add bit for bit: every
// operator mask, empty runs, signed zeros, infinities (whose product with a
// zero is a NaN that must come out the same), and runs long enough to grow
// the retained values several times.
func TestAddRunEqualsAddLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 0.1, 1e300, 1e-300}
	bits := func(a *Agg) string {
		vals := make([]uint64, len(a.Values))
		for i, v := range a.Values {
			vals[i] = math.Float64bits(v)
		}
		return fmt.Sprintf("%v n%d s%x p%x lo%x hi%x sorted%v %x", a.Ops, a.CountV, math.Float64bits(a.SumV),
			math.Float64bits(a.ProdV), math.Float64bits(a.MinV), math.Float64bits(a.MaxV), a.Sorted, vals)
	}
	allOps := OpCount | OpSum | OpMult | OpDSort | OpNDSort
	for mask := Op(0); mask <= allOps; mask++ {
		run, loop := NewAgg(mask), NewAgg(mask)
		for round := 0; round < 24; round++ {
			if round == 12 {
				// Second half: zeros of both signs only, so the sign of the
				// minimum and maximum depends on which came first.
				run.Reset(mask)
				loop.Reset(mask)
			}
			n := []int{0, 1, 2, 7, 300, 5000}[round%6]
			vals := make([]float64, n)
			for i := range vals {
				switch {
				case round >= 12:
					vals[i] = special[rng.Intn(2)]
				case rng.Intn(8) == 0:
					vals[i] = special[rng.Intn(len(special))]
				default:
					vals[i] = rng.NormFloat64() * 10
				}
			}
			run.AddRun(vals)
			for _, v := range vals {
				loop.Add(v)
			}
			if got, want := bits(&run), bits(&loop); got != want {
				t.Fatalf("mask %v after a run of %d:\n AddRun %s\n   loop %s", mask, n, got, want)
			}
		}
	}
}
