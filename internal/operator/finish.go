package operator

// WindowFinisher evaluates one window's aggregation functions from the two
// things assembly gathers for it: the decomposable scratch aggregate (sum,
// count, product, min/max folded from the covering slices) and the list of
// the slices' retained value runs (§4.2.2). The value runs are never merged
// on this path — median and quantile select their rank over the runs
// (RunSelector), and min and max read run endpoints when the slices carry no
// min/max fields — so finishing a window allocates nothing and retains no
// window-sized buffer. The single-node engine and the root assembler both
// finish windows through it.
//
// Per window: Begin, fold the covering slices into Agg, AddRun each
// covering slice's values under its key when the member reads them, then
// Eval per function.
type WindowFinisher struct {
	// Agg is the decomposable scratch the caller folds slices into.
	Agg Agg

	readsRuns bool // the member's operators include OpNDSort
	runs      [][]float64
	keys      []uint64 // keys[i] names runs[i] (SelectMemo)
	n         int      // total values across runs
	sel       RunSelector
	merger    *RunMerger // MergedAgg only
}

// Begin starts a window for a member needing memberOps over slices whose
// aggregates carry the fields of groupOps. When groupOps lacks OpDSort the
// slices hold no min/max fields — the partials a root receives from a group
// that runs the non-decomposable sort in place of the decomposable one
// (§4.2.2's sharing rule) — so a member's min/max read the value runs too.
// The engine passes its index mask instead, which carries OpDSort for such a
// group because its ring slices record their run endpoints; there min/max
// fold into Agg. Agg folds everything the runs do not answer.
//
//desis:hotpath
func (f *WindowFinisher) Begin(memberOps, groupOps Op) {
	if memberOps&OpDSort != 0 && groupOps&OpDSort == 0 {
		memberOps = memberOps&^OpDSort | OpNDSort
	}
	f.Agg.Reset(memberOps &^ OpNDSort)
	f.Agg.Values = nil // may alias a slice's run after MergedAgg
	f.Agg.Sorted = true
	f.readsRuns = memberOps&OpNDSort != 0
	f.runs = f.runs[:0]
	f.keys = f.keys[:0]
	f.n = 0
}

// ReadsRuns reports whether the window's member reads the value runs, i.e.
// whether the caller owes an AddRun per covering slice.
func (f *WindowFinisher) ReadsRuns() bool { return f.readsRuns }

// AddRun adds one covering slice's ascending retained values under key,
// which names the slice for the selection memos (see SelectMemo): no other
// slice the member's windows cover may share it while this one lives. The
// run is read until the window's last Eval and never written.
//
//desis:hotpath
func (f *WindowFinisher) AddRun(key uint64, values []float64) {
	if len(values) > 0 {
		f.runs = append(f.runs, values)
		f.keys = append(f.keys, key)
		f.n += len(values)
	}
}

// Eval computes one aggregation function over the window. ok is false when
// the window is empty and the function has no defined value. Min and max
// come from Agg when it folded the decomposable sort and from the run
// endpoints otherwise (see Begin), where they are the elements the merged
// sequence would hold first and last. memo warm-starts the rank selection
// of median and quantile and is ignored otherwise: the same function's
// memo, carried from the query's previous window to this one (see
// RunSelector.Select), or nil to select cold.
//
//desis:hotpath
func (f *WindowFinisher) Eval(spec FuncSpec, memo *SelectMemo) (v float64, ok bool) {
	switch spec.Func {
	case Min:
		if f.Agg.Ops&OpDSort != 0 || f.n == 0 {
			return f.Agg.evalMin()
		}
		v = f.runs[0][0]
		for _, r := range f.runs[1:] {
			if r[0] < v {
				v = r[0]
			}
		}
		return v, true
	case Max:
		if f.Agg.Ops&OpDSort != 0 || f.n == 0 {
			return f.Agg.evalMax()
		}
		v = f.runs[0][len(f.runs[0])-1]
		for _, r := range f.runs[1:] {
			if last := r[len(r)-1]; last >= v {
				v = last
			}
		}
		return v, true
	case Median:
		return f.quantile(0.5, memo)
	case Quantile:
		return f.quantile(spec.Arg, memo)
	}
	return f.Agg.Eval(spec)
}

func (f *WindowFinisher) quantile(q float64, memo *SelectMemo) (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	return f.sel.Select(f.runs, f.keys, NearestRank(q, f.n), memo), true
}

// MergedAgg returns the window's aggregate with the value runs merged into
// Agg.Values, for a consumer that is handed the values themselves
// (core.Config.OnWindowAgg ships them as a per-window partial). The merge
// buffers are allocated on first use, so only engines running that mode
// hold them. The result is valid until the next Begin.
func (f *WindowFinisher) MergedAgg() *Agg {
	if f.readsRuns {
		if f.merger == nil {
			f.merger = new(RunMerger)
		}
		f.Agg.Values = f.merger.Merge(f.runs)
		f.Agg.Ops |= OpNDSort
	}
	return &f.Agg
}
