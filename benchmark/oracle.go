package main

import (
	"fmt"
	"math"
	"sort"

	"desis"
)

// The oracle is a brute-force reference: it sorts the events, enumerates
// every window of every query from the window definition alone, and folds
// each window's events naively. It shares no code with internal/core or
// internal/baseline.

// refValue is one aggregation function's reference value.
type refValue struct {
	V  float64
	OK bool
}

// refResult is one reference window result.
type refResult struct {
	QueryID    uint64
	Start, End int64
	Count      int64
	Values     []refValue
	// CountMeasure marks count-based windows, whose values depend on the
	// arrival order across sources and are compared by bounds only when
	// there is more than one source.
	CountMeasure bool
}

// oracleOpts fixes the two things the oracle cannot read off the events.
type oracleOpts struct {
	// Flush is the final watermark: windows ending at or before it emit.
	Flush int64
	// DropBehindMs, when positive, drops an event that arrives more than
	// this far behind the newest event time seen so far on its source: the
	// allowed-lateness contract of the late workload.
	DropBehindMs int64
}

type arrived struct {
	ev  desis.Event
	src int
	seq int
}

// oracleResults evaluates queries over the sources' arrival sequences and
// reports the reference results plus how many events the lateness rule
// dropped.
func oracleResults(queries []desis.Query, arrivals [][]desis.Event, o oracleOpts) ([]refResult, int, error) {
	var all []arrived
	dropped := 0
	for src, evs := range arrivals {
		newest := int64(math.MinInt64)
		for i, ev := range evs {
			if ev.Time > newest {
				newest = ev.Time
			}
			if o.DropBehindMs > 0 && newest-ev.Time > o.DropBehindMs {
				dropped++
				continue
			}
			all = append(all, arrived{ev: ev, src: src, seq: i})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ev.Time < all[j].ev.Time })

	var out []refResult
	for _, q := range queries {
		// Every event of the key, markers included, in time order; ties keep
		// (source, arrival) order.
		var keyed []arrived
		for _, a := range all {
			if a.ev.Key == q.Key {
				keyed = append(keyed, a)
			}
		}
		if len(keyed) == 0 {
			continue
		}
		var rs []refResult
		switch {
		case q.Type == desis.Session:
			rs = oracleSessions(q, keyed, o.Flush)
		case q.Type == desis.UserDefined:
			if len(arrivals) != 1 {
				return nil, 0, fmt.Errorf("oracle: user-defined windows follow stream order and need exactly one source")
			}
			rs = oracleUserDefined(q, arrivals[0])
		case q.Measure == desis.Count:
			rs = oracleCountWindows(q, keyed)
		default:
			rs = oracleTimeWindows(q, keyed, o.Flush)
		}
		out = append(out, rs...)
	}
	return out, dropped, nil
}

func slideOf(q desis.Query) int64 {
	if q.Type == desis.Tumbling {
		return q.Length
	}
	return q.Slide
}

// oracleTimeWindows emits every window [k*slide, k*slide+length) that ends
// after the key's first event and at or before the flush, empty ones
// included.
func oracleTimeWindows(q desis.Query, keyed []arrived, flush int64) []refResult {
	first := keyed[0].ev.Time
	slide := slideOf(q)
	var out []refResult
	for start := int64(0); start+q.Length <= flush; start += slide {
		end := start + q.Length
		if end <= first {
			continue
		}
		var vals []float64
		from := sort.Search(len(keyed), func(i int) bool { return keyed[i].ev.Time >= start })
		for _, a := range keyed[from:] {
			if a.ev.Time >= end {
				break
			}
			if a.ev.Marker == 0 && q.Pred.Matches(a.ev.Value) {
				vals = append(vals, a.ev.Value)
			}
		}
		out = append(out, evalWindow(q, start, end, vals))
	}
	return out
}

// oracleCountWindows emits every complete window of Length events, counted
// over all data events of the key.
func oracleCountWindows(q desis.Query, keyed []arrived) []refResult {
	var data []float64
	for _, a := range keyed {
		if a.ev.Marker == 0 {
			data = append(data, a.ev.Value)
		}
	}
	slide := slideOf(q)
	var out []refResult
	for start := int64(0); start+q.Length <= int64(len(data)); start += slide {
		var vals []float64
		for _, v := range data[start : start+q.Length] {
			if q.Pred.Matches(v) {
				vals = append(vals, v)
			}
		}
		r := evalWindow(q, start, start+q.Length, vals)
		r.CountMeasure = true
		out = append(out, r)
	}
	return out
}

// oracleSessions splits the key's data events wherever two neighbours lie at
// least Gap apart; a session [first, last+gap) emits once the flush covers
// its end.
func oracleSessions(q desis.Query, keyed []arrived, flush int64) []refResult {
	var out []refResult
	var vals []float64
	open := false
	var start, last int64
	closeIf := func(now int64) {
		if open && last+q.Gap <= now {
			out = append(out, evalWindow(q, start, last+q.Gap, vals))
			open, vals = false, nil
		}
	}
	for _, a := range keyed {
		if a.ev.Marker != 0 {
			continue
		}
		closeIf(a.ev.Time)
		if !open {
			open, start = true, a.ev.Time
		}
		last = a.ev.Time
		if q.Pred.Matches(a.ev.Value) {
			vals = append(vals, a.ev.Value)
		}
	}
	closeIf(flush)
	return out
}

// oracleUserDefined walks the stream in arrival order: the first window opens
// at the key's first event, every marker closes the open window at its time
// and opens the next. The window still open at the end never emits.
func oracleUserDefined(q desis.Query, stream []desis.Event) []refResult {
	var out []refResult
	var vals []float64
	open := false
	var start int64
	for _, ev := range stream {
		if ev.Key != q.Key {
			continue
		}
		if ev.Marker != 0 {
			if open {
				out = append(out, evalWindow(q, start, ev.Time, vals))
			}
			open, start, vals = true, ev.Time, nil
			continue
		}
		if !open {
			open, start = true, ev.Time
		}
		if q.Pred.Matches(ev.Value) {
			vals = append(vals, ev.Value)
		}
	}
	return out
}

// evalWindow folds one window's values with the textbook definition of each
// function.
func evalWindow(q desis.Query, start, end int64, vals []float64) refResult {
	r := refResult{QueryID: q.ID, Start: start, End: end, Count: int64(len(vals))}
	var sorted []float64
	for _, f := range q.Funcs {
		if f.Func == desis.CountFn {
			r.Values = append(r.Values, refValue{V: float64(len(vals)), OK: true})
			continue
		}
		if len(vals) == 0 {
			r.Values = append(r.Values, refValue{})
			continue
		}
		var v float64
		switch f.Func {
		case desis.Sum, desis.Average:
			for _, x := range vals {
				v += x
			}
			if f.Func == desis.Average {
				v /= float64(len(vals))
			}
		case desis.Product, desis.GeoMean:
			// In log space, so a long window cannot overflow where the
			// program's running product would not.
			var logSum float64
			neg := false
			for _, x := range vals {
				if x < 0 {
					neg = !neg
				}
				logSum += math.Log(math.Abs(x))
			}
			if f.Func == desis.GeoMean {
				logSum /= float64(len(vals))
			}
			v = math.Exp(logSum)
			if neg {
				v = -v
			}
		case desis.Min:
			v = vals[0]
			for _, x := range vals {
				v = math.Min(v, x)
			}
		case desis.Max:
			v = vals[0]
			for _, x := range vals {
				v = math.Max(v, x)
			}
		case desis.Median, desis.Quantile:
			if sorted == nil {
				sorted = append([]float64(nil), vals...)
				sort.Float64s(sorted)
			}
			p := f.Arg
			if f.Func == desis.Median {
				p = 0.5
			}
			// Nearest rank.
			rank := int(math.Ceil(p * float64(len(sorted))))
			if rank < 1 {
				rank = 1
			}
			if rank > len(sorted) {
				rank = len(sorted)
			}
			v = sorted[rank-1]
		}
		r.Values = append(r.Values, refValue{V: v, OK: true})
	}
	return r
}

// refKey identifies a window result up to its values.
type refKey struct {
	QueryID    uint64
	Start, End int64
}

// compareResults matches the program's results against the reference as
// multisets: bounds and counts exactly, values to 1e-9 relative. It returns
// the number of reference results that are missing, duplicated or wrong,
// plus the program results the reference does not know, and a description of
// the first few for the log.
func compareResults(ref []refResult, got []desis.Result, multiSource bool) (bad int, notes []string) {
	note := func(format string, args ...any) {
		bad++
		if len(notes) < 8 {
			notes = append(notes, fmt.Sprintf(format, args...))
		}
	}
	seen := make(map[refKey][]desis.Result, len(got))
	for _, g := range got {
		k := refKey{g.QueryID, g.Start, g.End}
		seen[k] = append(seen[k], g)
	}
	for _, r := range ref {
		k := refKey{r.QueryID, r.Start, r.End}
		gs := seen[k]
		delete(seen, k)
		switch {
		case len(gs) == 0:
			note("missing: query %d [%d,%d)", r.QueryID, r.Start, r.End)
		case len(gs) > 1:
			note("duplicated %dx: query %d [%d,%d)", len(gs), r.QueryID, r.Start, r.End)
		default:
			if why := diffResult(r, gs[0], multiSource); why != "" {
				note("wrong: query %d [%d,%d): %s", r.QueryID, r.Start, r.End, why)
			}
		}
	}
	for k, gs := range seen {
		note("unexpected %dx: query %d [%d,%d)", len(gs), k.QueryID, k.Start, k.End)
	}
	return bad, notes
}

func diffResult(r refResult, g desis.Result, multiSource bool) string {
	if r.CountMeasure && multiSource {
		return "" // values depend on cross-source arrival order
	}
	if r.Count != g.Count {
		return fmt.Sprintf("count %d, reference %d", g.Count, r.Count)
	}
	if len(r.Values) != len(g.Values) {
		return fmt.Sprintf("%d values, reference %d", len(g.Values), len(r.Values))
	}
	for i, rv := range r.Values {
		gv := g.Values[i]
		if rv.OK != gv.OK {
			return fmt.Sprintf("value %d defined=%v, reference %v", i, gv.OK, rv.OK)
		}
		if rv.OK && math.Abs(gv.Value-rv.V) > 1e-9*math.Max(math.Abs(rv.V), 1e-300) {
			return fmt.Sprintf("value %d = %.17g, reference %.17g", i, gv.Value, rv.V)
		}
	}
	return ""
}
