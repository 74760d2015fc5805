package operator

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

var finishSpecs = []FuncSpec{
	{Func: Sum}, {Func: Count}, {Func: Average}, {Func: Product}, {Func: GeoMean},
	{Func: Min}, {Func: Max}, {Func: Median},
	{Func: Quantile, Arg: 0.07}, {Func: Quantile, Arg: 0.9}, {Func: Quantile, Arg: 0.99}, {Func: Quantile, Arg: 1},
}

// fillWindow drives f the way assembly does for a member needing memberOps:
// every slice folds into the scratch, value runs are added when asked for.
func fillWindow(f *WindowFinisher, memberOps, groupOps Op, slices []Agg) {
	f.Begin(memberOps, groupOps)
	for i := range slices {
		f.Agg.Merge(&slices[i])
		if f.ReadsRuns() {
			f.AddRun(uint64(i), slices[i].Values)
		}
	}
}

// TestWindowFinisherMatchesMergedEval checks Eval against the path it
// replaced, which survives as MergedAgg: merge the runs, then Agg.Eval.
// Every other trial selects through memos and evaluates each function twice,
// the second time from the memo the first left. Half of those trials share
// one memo among all functions, so each rank starts from another quantile's
// answer over the same window: it walks from there or, past the walk bound,
// selects cold. No memo may show in the value.
func TestWindowFinisherMatchesMergedEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		// A quantile member, a min/max member reading the runs' endpoints,
		// and a group that runs the decomposable sort itself.
		groupOps, specs := OpSum|OpCount|OpMult|OpNDSort, finishSpecs
		switch trial % 3 {
		case 1:
			specs = []FuncSpec{{Func: Min}, {Func: Average}, {Func: Max}}
		case 2:
			groupOps, specs = OpSum|OpCount|OpMult|OpDSort, finishSpecs[:7]
		}
		slices := make([]Agg, rng.Intn(12))
		for i := range slices {
			slices[i] = NewAgg(groupOps)
			for n := rng.Intn(30); n > 0; n-- {
				slices[i].Add(float64(rng.Intn(16)) / 4)
			}
			slices[i].Finish()
		}
		memberOps := Union(specs) | OpCount
		var f, merged WindowFinisher
		fillWindow(&f, memberOps, groupOps, slices)
		fillWindow(&merged, memberOps, groupOps, slices)
		agg := merged.MergedAgg()
		var memos []SelectMemo
		if trial%2 == 0 {
			memos = NewSelectMemos(specs)
		}
		for i, spec := range specs {
			var memo *SelectMemo
			switch {
			case memos == nil:
			case trial%4 == 0:
				memo = &memos[0]
			default:
				memo = &memos[i]
			}
			for pass := 0; pass < 2; pass++ {
				gv, gok := f.Eval(spec, memo)
				wv, wok := agg.Eval(spec)
				if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("trial %d (%v, %d slices) %v, pass %d: Eval = %v,%v; merged Agg.Eval = %v,%v",
						trial, groupOps, len(slices), spec, pass, gv, gok, wv, wok)
				}
			}
		}
		if f.merger != nil {
			t.Fatal("Eval allocated the run merger")
		}
	}
}

// TestWindowFinisherSteadyState: finishing a quantile window allocates
// nothing and never creates the merge buffers; only MergedAgg does.
func TestWindowFinisherSteadyState(t *testing.T) {
	groupOps := OpSum | OpCount | OpNDSort
	slices := make([]Agg, 50)
	for i, run := range benchRuns(len(slices), 100) {
		slices[i] = NewAgg(groupOps)
		for _, v := range run {
			slices[i].Add(v)
		}
		slices[i].Finish()
	}
	var all []float64
	for i := range slices {
		all = append(all, slices[i].Values...)
	}
	sort.Float64s(all)
	var f WindowFinisher
	specs := []FuncSpec{{Func: Median}, {Func: Quantile, Arg: 0.99}, {Func: Min}, {Func: Max}}
	memos := NewSelectMemos(specs)
	window := func() {
		fillWindow(&f, OpNDSort|OpDSort|OpCount, groupOps, slices)
		for i, spec := range specs {
			benchSink, _ = f.Eval(spec, &memos[i])
		}
	}
	window()
	if avg := testing.AllocsPerRun(50, window); avg != 0 {
		t.Fatalf("finishing a window allocates %.1f times, want 0", avg)
	}
	if f.merger != nil {
		t.Fatal("the default path created the run merger")
	}
	if got, _ := f.Eval(specs[1], &memos[1]); got != all[NearestRank(0.99, len(all))-1] {
		t.Fatalf("quantile(0.99) = %v, sorted concatenation holds %v", got, all[NearestRank(0.99, len(all))-1])
	}
	if agg := f.MergedAgg(); len(agg.Values) != len(all) || agg.Ops&OpNDSort == 0 || f.merger == nil {
		t.Fatalf("MergedAgg: %d values under %v, want %d under a mask with ndsort", len(agg.Values), agg.Ops, len(all))
	}
}
