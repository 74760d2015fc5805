package node

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/query"
)

// TestRootAssemblerOracle checks the root's windows against a
// sort-everything evaluation of each emitted window. The cluster-vs-central
// tests cannot see a fault in the window finisher, because the central
// engine finishes its windows through the same code; here the central
// engine only vouches for which windows exist, and every value is recomputed
// from the raw events. The queries watch key 3, so a result that drops its
// key fails too.
func TestRootAssemblerOracle(t *testing.T) {
	var queries []query.Query
	for i, s := range []string{
		"sliding(1s,100ms) median key=3",
		"sliding(2s,200ms) quantile(0.9) key=3",
		"sliding(1500ms,300ms) median,quantile(0.99) key=3",
		"sliding(800ms,200ms) min key=3",
		"tumbling(700ms) average,max key=3",
		"sliding(1s,250ms) sum,count key=3",
		"sliding(1200ms,100ms) median,max key=3 value>=2 value<6",
	} {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		queries = append(queries, q)
	}
	byID := make(map[uint64]query.Query)
	for _, q := range queries {
		byID[q.ID] = q
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]event.Event, 3000)
		tm := int64(5)
		for i := range evs {
			tm += int64(rng.Intn(5))
			// Eighths: sums are exact in any merge order, duplicates frequent.
			evs[i] = event.Event{Time: tm, Key: 3, Value: float64(rng.Intn(64)) / 8}
		}
		adv := tm + 5000
		got := clusterResults(t, queries, evs, adv, 2, 0)
		central := centralResults(t, queries, evs, adv)
		if len(got) != len(central) {
			t.Fatalf("seed %d: root emitted %d windows, central engine %d", seed, len(got), len(central))
		}
		want := make([]core.Result, len(got))
		for i, r := range got {
			want[i] = bruteForceWindow(byID[r.QueryID], r.Start, r.End, evs)
		}
		compareResultSets(t, got, want)
	}
}

// bruteForceWindow evaluates q over the events of [start, end) from the
// sorted values alone.
func bruteForceWindow(q query.Query, start, end int64, evs []event.Event) core.Result {
	var vals []float64
	sum := 0.0
	for _, ev := range evs {
		if ev.Key == q.Key && ev.Time >= start && ev.Time < end && q.Pred.Matches(ev.Value) {
			vals = append(vals, ev.Value)
			sum += ev.Value
		}
	}
	sort.Float64s(vals)
	n := len(vals)
	r := core.Result{QueryID: q.ID, Key: q.Key, Start: start, End: end, Count: int64(n)}
	for _, spec := range q.Funcs {
		fv := core.FuncValue{Spec: spec, OK: n > 0}
		switch {
		case spec.Func == operator.Count:
			fv.Value, fv.OK = float64(n), true
		case n == 0:
		case spec.Func == operator.Sum:
			fv.Value = sum
		case spec.Func == operator.Average:
			fv.Value = sum / float64(n)
		case spec.Func == operator.Min:
			fv.Value = vals[0]
		case spec.Func == operator.Max:
			fv.Value = vals[n-1]
		case spec.Func == operator.Median, spec.Func == operator.Quantile:
			q := spec.Arg
			if spec.Func == operator.Median {
				q = 0.5
			}
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			if rank > n {
				rank = n
			}
			fv.Value = vals[rank-1]
		}
		r.Values = append(r.Values, fv)
	}
	return r
}
