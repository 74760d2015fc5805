package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/query"
)

// The out-of-order commit path (Config.ReorderHorizon) must be invisible in
// the results: a disordered stream whose lateness stays within the horizon
// produces exactly the windows of the same stream sorted by timestamp and
// fed to a strict in-order engine. These tests check that differentially
// under the two-stacks index and the naive reference, so the index's
// commitLate repair runs.

// randomTimeQuery draws a time-measured tumbling or sliding query — the
// window types the out-of-order commit supports (count, session, and
// user-defined calendars disable the horizon; see groupState.refreshOOO).
// All queries share key 0 so the engine's slicing origin is the first
// arrival, as in the sorted oracle.
func randomTimeQuery(rng *rand.Rand, id uint64) query.Query {
	q := query.Query{
		ID:      id,
		Pred:    randomPred(rng),
		Funcs:   randomFuncs(rng),
		Measure: query.Time,
	}
	if rng.Intn(2) == 0 {
		q.Type = query.Tumbling
		q.Length = int64(200 + rng.Intn(2000))
	} else {
		q.Type = query.Sliding
		q.Length = int64(400 + rng.Intn(3000))
		q.Slide = 50 + rng.Int63n(q.Length-50+1)
	}
	return q
}

// disorderedStream emits events in arrival order with backward timestamp
// jitter of at most horizon. The first event is jitter-free and no later
// event precedes it, so both the disordered and the sorted replay of the
// stream start slicing at the same origin boundary.
func disorderedStream(rng *rand.Rand, n int, horizon int64) ([]event.Event, int64) {
	evs := make([]event.Event, 0, n)
	t := int64(1000)
	first := t
	for i := 0; i < n; i++ {
		tm := t
		if i > 0 && horizon > 0 && rng.Intn(3) > 0 {
			tm -= rng.Int63n(horizon + 1)
			if tm < first {
				tm = first
			}
		}
		evs = append(evs, event.Event{Time: tm, Value: 0.8 + 0.4*rng.Float64()})
		t += int64(rng.Intn(6))
	}
	return evs, t + 10_000
}

func TestOOOCommitDifferential(t *testing.T) {
	var totalLate uint64
	for seed := int64(0); seed < 8; seed++ {
		for _, horizon := range []int64{60, 250} {
			seed, horizon := seed, horizon
			t.Run(fmt.Sprintf("seed=%d/h=%d", seed, horizon), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*31 + horizon))
				nq := 4 + rng.Intn(8)
				var queries []query.Query
				for i := 0; i < nq; i++ {
					q := randomTimeQuery(rng, uint64(i+1))
					if err := q.Validate(); err != nil {
						t.Fatalf("generated invalid query: %v", err)
					}
					queries = append(queries, q)
				}
				evs, advTo := disorderedStream(rng, 3000, horizon)

				sorted := append([]event.Event(nil), evs...)
				sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
				want := runEngine(t, queries, sorted, advTo, Config{})

				for _, asm := range assemblies {
					groups, err := query.Analyze(queries, query.Options{})
					if err != nil {
						t.Fatalf("Analyze: %v", err)
					}
					e := New(groups, Config{NaiveAssembly: asm.naive, ReorderHorizon: horizon})
					e.ProcessBatch(evs)
					e.AdvanceTo(advTo)
					st := e.Stats()
					if st.LateDropped != 0 {
						t.Fatalf("assembly %s: %d late events dropped; all disorder was within the horizon", asm.name, st.LateDropped)
					}
					totalLate += st.LateCommits
					compareResults(t, e.Results(), want)
				}
			})
		}
	}
	if !t.Failed() && totalLate == 0 {
		t.Fatal("no run exercised a late commit; the generator's jitter never crossed a slice boundary")
	}
}

// TestOOOCommitInsertsSlice drives the slice-insertion repair directly: late
// events that fall before every retained slice force insertLateSlice to
// materialise closed slices behind the ring, and the windows that cover them
// must still match the sorted oracle. Windows that ended at or before the
// engine's origin boundary are outside the contract — the disordered engine
// began slicing at its first arrival and never emits them — so the oracle's
// results are filtered to the boundaries both engines fire.
func TestOOOCommitInsertsSlice(t *testing.T) {
	qs := []query.Query{{
		ID: 1, Pred: query.All(), Type: query.Sliding, Measure: query.Time,
		Length: 1000, Slide: 100,
		Funcs: []operator.FuncSpec{{Func: operator.Sum}, {Func: operator.Count}, {Func: operator.Median}},
	}}
	evs := []event.Event{
		{Time: 1050, Value: 1},
		{Time: 950, Value: 2},  // behind the open slice, empty ring: inserted at the front
		{Time: 1120, Value: 3}, // closes slice [1000,1100)
		{Time: 930, Value: 4},  // lands in the inserted slice [900,1000): in-place repair
		{Time: 850, Value: 5},  // before the ring again: second insertion, [800,900)
	}
	const advTo = 20_000

	for _, asm := range assemblies {
		groups, err := query.Analyze(qs, query.Options{})
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		e := New(groups, Config{NaiveAssembly: asm.naive, ReorderHorizon: 300})
		for _, ev := range evs {
			e.Process(ev)
		}
		e.AdvanceTo(advTo)
		st := e.Stats()
		if st.LateCommits != 3 {
			t.Errorf("assembly %s: LateCommits = %d, want 3", asm.name, st.LateCommits)
		}
		if st.LateDropped != 0 {
			t.Errorf("assembly %s: LateDropped = %d, want 0", asm.name, st.LateDropped)
		}

		sorted := append([]event.Event(nil), evs...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
		oracle := runEngine(t, qs, sorted, advTo, Config{})
		want := oracle[:0:0]
		for _, r := range oracle {
			if r.End > 1000 { // the disordered engine's origin boundary
				want = append(want, r)
			}
		}
		compareResults(t, e.Results(), want)
	}
}
