package operator

import (
	"math"
	"sort"
	"sync/atomic"
)

// Merge accounting for benchmarks: the factor-window experiment measures how
// many partial-result merges a workload costs with the optimizer on versus
// off. Counting is off by default (one predictable-branch load on the Merge
// path) and exact when enabled; the counter is global, so enable it only
// around single-workload measurement runs.
var (
	countMerges atomic.Bool
	mergeCalls  atomic.Uint64
)

// CountMerges toggles merge counting; enabling it also resets the counter.
func CountMerges(on bool) {
	if on {
		mergeCalls.Store(0)
	}
	countMerges.Store(on)
}

// MergeCalls reports the merges counted since CountMerges(true).
func MergeCalls() uint64 { return mergeCalls.Load() }

// Agg is the per-slice aggregate state for one selection context. It holds
// the intermediate results of every primitive operator the query-group
// needs; unused fields stay at their zero/identity values and cost nothing
// on the hot path because Add branches on the operator mask once per event.
//
// The zero Agg is not ready to use: call Reset (or NewAgg) so the min/max
// and product identities are installed.
//
// NaN values are outside the contract of the sort operators. Finish sorts
// them first (sort.Float64s), AddLate and the run merges compare with < and
// <=, under which a NaN is neither before nor after anything, and
// RunSelector answers with whatever pivot it holds when NaNs stall it: the
// position of a NaN in merged values, and so min, max, median and quantile
// of a window holding one, are unspecified and may differ between the merge
// and the selection. Neither path fails or loops on them.
type Agg struct {
	// Ops is the operator mask this state was reset for.
	Ops Op
	// CountV is the event count (OpCount).
	CountV int64
	// SumV is the running sum (OpSum).
	SumV float64
	// ProdV is the running product (OpMult).
	ProdV float64
	// MinV and MaxV are the decomposable sort results (OpDSort).
	MinV, MaxV float64
	// Values are the retained events of the non-decomposable sort
	// (OpNDSort); sorted ascending once Finish has run.
	Values []float64
	// Sorted records whether Values is sorted. Merging two sorted runs is
	// linear; merging unsorted data falls back to append+sort.
	Sorted bool
	// scratch is the reusable output buffer of Merge's sorted-run merge: the
	// merged result is built here and the buffers are swapped, so repeated
	// merges into one Agg allocate only until the buffers reach steady-state
	// capacity. Because of this buffer, an Agg that has merged OpNDSort
	// values must not be struct-copied and then merged from both copies —
	// the copies would share (and swap) the same two backing arrays.
	scratch []float64
}

// NewAgg returns an Agg ready to accumulate for the given operator set.
func NewAgg(ops Op) Agg {
	var a Agg
	a.Reset(ops)
	return a
}

// CloneState returns a deep copy of the aggregate state sharing no memory
// with a: Values gets its own backing array and the scratch buffer is not
// carried over (the copy re-grows one on its first merge).
func (a *Agg) CloneState() Agg {
	c := *a
	c.Values = append([]float64(nil), a.Values...)
	c.scratch = nil
	return c
}

// Reset re-initialises a for a new slice, keeping the Values buffer to avoid
// reallocation.
func (a *Agg) Reset(ops Op) {
	a.Ops = ops
	a.CountV = 0
	a.SumV = 0
	a.ProdV = 1
	a.MinV = math.Inf(1)
	a.MaxV = math.Inf(-1)
	a.Values = a.Values[:0]
	a.Sorted = false
}

// Add folds one event value into the aggregate. This is the engine's
// innermost loop; it performs exactly one update per operator in the mask.
func (a *Agg) Add(v float64) {
	ops := a.Ops
	if ops&OpCount != 0 {
		a.CountV++
	}
	if ops&OpSum != 0 {
		a.SumV += v
	}
	if ops&OpMult != 0 {
		a.ProdV *= v
	}
	if ops&OpDSort != 0 {
		if v < a.MinV {
			a.MinV = v
		}
		if v > a.MaxV {
			a.MaxV = v
		}
	}
	if ops&OpNDSort != 0 {
		a.Values = append(a.Values, v)
	}
}

// AddRun folds a run of event values into the aggregate, leaving exactly the
// state a loop of Add over vals would: the mask is tested once per run, and
// every operator accumulates in stream order so sums and products stay
// bit-identical to per-event folding. It is the batch path's inner loop;
// Add stays for single events (late commits, a run of one).
func (a *Agg) AddRun(vals []float64) {
	ops := a.Ops
	if ops&OpCount != 0 {
		a.CountV += int64(len(vals))
	}
	if ops&OpSum != 0 {
		s := a.SumV
		for _, v := range vals {
			s += v
		}
		a.SumV = s
	}
	if ops&OpMult != 0 {
		p := a.ProdV
		for _, v := range vals {
			p *= v
		}
		a.ProdV = p
	}
	if ops&OpDSort != 0 {
		lo, hi := a.MinV, a.MaxV
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		a.MinV, a.MaxV = lo, hi
	}
	if ops&OpNDSort != 0 {
		a.Values = append(a.Values, vals...)
	}
}

// AddLate folds one out-of-order event into an aggregate that may already
// be Finished: when the retained values are sorted, the new value is
// insertion-shifted into position so the sorted run stays valid without a
// re-sort. On unfinished state it is identical to Add.
func (a *Agg) AddLate(v float64) {
	sorted := a.Sorted
	a.Add(v)
	if a.Ops&OpNDSort != 0 && sorted {
		vals := a.Values
		i := len(vals) - 1
		for i > 0 && vals[i-1] > v {
			vals[i] = vals[i-1]
			i--
		}
		vals[i] = v
		a.Sorted = true
	}
}

// Finish completes the slice: the non-decomposable sort runs once, here,
// so that parents of a decentralized topology receive sorted runs and the
// root only ever merges (§5.2).
func (a *Agg) Finish() {
	if a.Ops&OpNDSort != 0 && !a.Sorted {
		sort.Float64s(a.Values)
	}
	a.Sorted = true
}

// Empty reports whether the aggregate saw no events. It is only meaningful
// when the mask contains OpCount or OpNDSort; the engine guarantees one of
// them is always present (it adds OpCount when a group would otherwise have
// no cardinality signal).
func (a *Agg) Empty() bool {
	if a.Ops&OpCount != 0 {
		return a.CountV == 0
	}
	return len(a.Values) == 0
}

// Merge folds the partial result b into a. Both sides must be Finished when
// the mask contains OpNDSort; the merge of two sorted runs is linear.
func (a *Agg) Merge(b *Agg) {
	if countMerges.Load() {
		mergeCalls.Add(1)
	}
	ops := a.Ops
	if ops&OpCount != 0 {
		a.CountV += b.CountV
	}
	if ops&OpSum != 0 {
		a.SumV += b.SumV
	}
	if ops&OpMult != 0 {
		a.ProdV *= b.ProdV
	}
	if ops&OpDSort != 0 {
		if b.MinV < a.MinV {
			a.MinV = b.MinV
		}
		if b.MaxV > a.MaxV {
			a.MaxV = b.MaxV
		}
	}
	if ops&OpNDSort != 0 {
		a.mergeValues(b.Values)
	}
}

// mergeValues merges the ascending run y into the ascending a.Values through
// the reusable scratch buffer; y must not alias either internal buffer.
func (a *Agg) mergeValues(y []float64) {
	if len(y) == 0 {
		return
	}
	if len(a.Values) == 0 {
		a.Values = append(a.Values, y...)
		return
	}
	a.scratch = mergeTwo(a.scratch[:0], a.Values, y)
	a.Values, a.scratch = a.scratch, a.Values
}

// Eval computes the final value of one aggregation function from the
// (merged, finished) aggregate. ok is false when the window was empty and
// the function has no defined value (all except count).
func (a *Agg) Eval(spec FuncSpec) (v float64, ok bool) {
	switch spec.Func {
	case Count:
		return float64(a.CountV), true
	case Sum:
		if a.Empty() {
			return 0, false
		}
		return a.SumV, true
	case Average:
		if a.CountV == 0 {
			return 0, false
		}
		return a.SumV / float64(a.CountV), true
	case Product:
		if a.Empty() {
			return 0, false
		}
		return a.ProdV, true
	case GeoMean:
		if a.CountV == 0 {
			return 0, false
		}
		return math.Pow(a.ProdV, 1/float64(a.CountV)), true
	case Min:
		return a.evalMin()
	case Max:
		return a.evalMax()
	case Median:
		return a.quantile(0.5)
	case Quantile:
		return a.quantile(spec.Arg)
	default:
		return 0, false
	}
}

func (a *Agg) evalMin() (float64, bool) {
	// min answered by the non-decomposable sort when that is the operator
	// the group executed (§4.2.2 sharing between max/min and median).
	if a.Ops&OpDSort != 0 {
		if math.IsInf(a.MinV, 1) {
			return 0, false
		}
		return a.MinV, true
	}
	if len(a.Values) == 0 {
		return 0, false
	}
	return a.Values[0], true
}

func (a *Agg) evalMax() (float64, bool) {
	if a.Ops&OpDSort != 0 {
		if math.IsInf(a.MaxV, -1) {
			return 0, false
		}
		return a.MaxV, true
	}
	if len(a.Values) == 0 {
		return 0, false
	}
	return a.Values[len(a.Values)-1], true
}

// quantile uses the nearest-rank definition on the sorted values.
func (a *Agg) quantile(q float64) (float64, bool) {
	n := len(a.Values)
	if n == 0 {
		return 0, false
	}
	return a.Values[NearestRank(q, n)-1], true
}
