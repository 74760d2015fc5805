package operator

// WindowFinisher evaluates one window's aggregation functions from the two
// things assembly gathers for it: the decomposable scratch aggregate (sum,
// count, product, min/max folded from the covering slices) and the list of
// the slices' retained value runs (§4.2.2). The value runs are never merged
// on this path — min and max read run endpoints, median and quantile select
// their rank over the runs (RunSelector) — so finishing a window allocates
// nothing and retains no window-sized buffer. The single-node engine and the
// root assembler both finish windows through it.
//
// Per window: Begin, fold the covering slices into Agg, AddRun each
// covering slice's values when the member reads them, then Eval per
// function.
type WindowFinisher struct {
	// Agg is the decomposable scratch the caller folds slices into.
	Agg Agg

	readsRuns bool // the member's operators include OpNDSort
	runs      [][]float64
	n         int // total values across runs
	sel       RunSelector
	merger    *RunMerger // MergedAgg only
}

// Begin starts a window for a member needing memberOps in a group whose
// slices execute groupOps. When the group runs the non-decomposable sort in
// place of the decomposable one (§4.2.2's sharing rule) its slices maintain
// no min/max fields, so a member's min/max read the value runs too. Agg
// folds everything the runs do not answer.
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
	f.n = 0
}

// ReadsRuns reports whether the window's member reads the value runs, i.e.
// whether the caller owes an AddRun per covering slice.
func (f *WindowFinisher) ReadsRuns() bool { return f.readsRuns }

// AddRun adds one covering slice's ascending retained values. The run is
// read until the window's last Eval and never written.
//
//desis:hotpath
func (f *WindowFinisher) AddRun(values []float64) {
	if len(values) > 0 {
		f.runs = append(f.runs, values)
		f.n += len(values)
	}
}

// Eval computes one aggregation function over the window. ok is false when
// the window is empty and the function has no defined value. Min and max
// come from Agg when it folded the decomposable sort and from the run
// endpoints otherwise (see Begin), where they are the elements the merged
// sequence would hold first and last. hint warm-starts the rank selection
// of median and quantile (see RunSelector.Select) and is ignored otherwise:
// the value the same function had in the query's previous window, NaN for
// none.
//
//desis:hotpath
func (f *WindowFinisher) Eval(spec FuncSpec, hint float64) (v float64, ok bool) {
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
		return f.quantile(0.5, hint)
	case Quantile:
		return f.quantile(spec.Arg, hint)
	}
	return f.Agg.Eval(spec)
}

func (f *WindowFinisher) quantile(q, hint float64) (float64, bool) {
	if f.n == 0 {
		return 0, false
	}
	return f.sel.Select(f.runs, NearestRank(q, f.n), hint), true
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
