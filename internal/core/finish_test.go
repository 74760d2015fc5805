package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/query"
)

// Every assembly strategy finishes windows through operator.WindowFinisher,
// so comparing strategies with each other (TestAssemblyDifferential) cannot
// see a fault in it. These tests compare against naiveResults, which sorts
// each window's events and shares no code with the engine.

// finishQueries mixes, in one group, the members that take their answer from
// the slices' value runs — quantiles by rank selection, min and max by run
// endpoints because a group running the non-decomposable sort keeps no
// min/max fields — with decomposable members and a second selection context.
func finishQueries(t *testing.T, withCount bool) []query.Query {
	t.Helper()
	specs := []string{
		"sliding(1s,100ms) median key=0",
		"sliding(2s,100ms) quantile(0.9) key=0",
		"sliding(1500ms,300ms) median,quantile(0.99) key=0",
		"sliding(800ms,200ms) min key=0",
		"tumbling(700ms) average,max key=0",
		"sliding(1s,250ms) sum,count key=0",
		"tumbling(400ms) min,max key=0",
		"sliding(1200ms,100ms) median,min key=0 value>=2 value<6",
		"tumbling(500ms) max key=0 value>=2 value<6",
	}
	if withCount {
		specs = append(specs, "tumbling(64ev) median,max key=0", "sliding(200ev,40ev) quantile(0.9) key=0")
	}
	var qs []query.Query
	for i, s := range specs {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		qs = append(qs, q)
	}
	return qs
}

// gridStream is disorderedStream over values on a grid of eighths: window
// sums are exact in any merge order and neighbouring order statistics differ
// by far more than compareResults' tolerance, while duplicates are frequent.
func gridStream(rng *rand.Rand, n int, horizon int64) ([]event.Event, int64) {
	evs, advTo := disorderedStream(rng, n, horizon)
	for i := range evs {
		evs[i].Value = float64(rng.Intn(64)) / 8
	}
	return evs, advTo
}

func TestWindowFinishOracle(t *testing.T) {
	for _, horizon := range []int64{0, 250} {
		queries := finishQueries(t, horizon == 0)
		groups, err := query.Analyze(queries, query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			if g.Ops&operator.OpNDSort == 0 || g.Ops&operator.OpDSort != 0 {
				t.Fatalf("group %d ops = %v: want the non-decomposable sort in place of the decomposable one", g.ID, g.Ops)
			}
		}
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			evs, advTo := gridStream(rng, 4000, horizon)
			sorted := append([]event.Event(nil), evs...)
			sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
			want := naiveResults(queries, sorted, advTo)
			for _, asm := range []AssemblyKind{AssemblyTwoStacks, AssemblyDABA, AssemblyNaive} {
				t.Run(fmt.Sprintf("horizon=%d/seed=%d/%v", horizon, seed, asm), func(t *testing.T) {
					groups, err := query.Analyze(queries, query.Options{})
					if err != nil {
						t.Fatal(err)
					}
					e := New(groups, Config{Assembly: asm, ReorderHorizon: horizon})
					e.ProcessBatch(evs)
					e.AdvanceTo(advTo)
					st := e.Stats()
					if st.LateDropped != 0 {
						t.Fatalf("%d late events dropped; all disorder was within the horizon", st.LateDropped)
					}
					if horizon > 0 && st.LateCommits == 0 {
						t.Fatal("no late commit: Agg.AddLate never repaired a sorted run")
					}
					compareResults(t, e.Results(), want)
				})
			}
		}
	}
}

// TestQuantileEmissionAllocs pins what finishing a window costs in steady
// state: the []FuncValue handed to the caller and nothing else — no merge
// buffer, no run list growth, no selector state.
func TestQuantileEmissionAllocs(t *testing.T) {
	if invariant.Enabled {
		t.Skip("debug builds box assertion arguments on the ingest path; the guard holds for release builds")
	}
	var queries []query.Query
	for i, s := range []string{
		"sliding(1s,100ms) median,quantile(0.99) key=0",
		"sliding(2s,100ms) min key=0",
		"sliding(3s,100ms) average,max key=0",
	} {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		queries = append(queries, q)
	}
	groups, err := query.Analyze(queries, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	windows := 0
	e := New(groups, Config{OnResult: func(Result) { windows++ }})
	tm := int64(0)
	step := func() { // one slide: every member emits one window
		for i := 0; i < 100; i++ {
			tm++
			e.Process(event.Event{Time: tm, Key: 0, Value: float64((i * 37) % 101)})
		}
	}
	for i := 0; i < 200; i++ {
		step() // warm the pools and cross the prune threshold
	}
	windows = 0
	avg := testing.AllocsPerRun(100, step)
	perStep := float64(windows) / 101 // AllocsPerRun runs the function once to warm up
	if perStep != float64(len(queries)) {
		t.Fatalf("%.2f windows per slide, want %d", perStep, len(queries))
	}
	if avg != perStep {
		t.Fatalf("steady-state emission allocates %.2f times per slide for %.0f windows, want one []FuncValue each", avg, perStep)
	}
}

// TestHintedQuantilesOracle runs sliding quantile windows whose selection is
// hinted with the previous window's value (FinishValues) over a stream built
// to leave the hints wrong: the level of the values jumps, so the last answer
// lies outside the next window's range; late commits under a reorder horizon
// change windows after their neighbours emitted; a silence longer than every
// window empties them, so the hint skips windows; and a restore in mid-stream
// drops the hints altogether. A hint is only ever a first pivot, so none of
// this may show: every result must equal the sorting oracle's.
func TestHintedQuantilesOracle(t *testing.T) {
	var queries []query.Query
	for i, s := range []string{
		"sliding(1s,100ms) median key=0",
		"sliding(2s,100ms) quantile(0.9) key=0",
		"sliding(1500ms,100ms) median,quantile(0.99) key=0",
		"sliding(3s,100ms) quantile(0.01),max key=0",
		"sliding(1200ms,100ms) median,min key=0 value>=2 value<40",
	} {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		queries = append(queries, q)
	}
	const horizon = 250
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs, advTo := disorderedStream(rng, 12000, horizon)
		level, shift := 0.0, int64(0)
		for i := range evs {
			if rng.Intn(900) == 0 {
				level = float64(rng.Intn(9)-4) * 16 // beyond the spread of one level's values
			}
			if i == len(evs)/3 {
				shift = 5000 // a silence longer than the longest window
			}
			evs[i].Time += shift
			evs[i].Value = level + float64(rng.Intn(64))/8
		}
		advTo += shift
		sorted := append([]event.Event(nil), evs...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
		want := naiveResults(queries, sorted, advTo)
		for _, asm := range []AssemblyKind{AssemblyTwoStacks, AssemblyDABA, AssemblyNaive} {
			t.Run(fmt.Sprintf("seed=%d/%v", seed, asm), func(t *testing.T) {
				cfg := Config{Assembly: asm, ReorderHorizon: horizon}
				groups, err := query.Analyze(queries, query.Options{})
				if err != nil {
					t.Fatal(err)
				}
				e := New(groups, cfg)
				cut := len(evs) * 2 / 3
				e.ProcessBatch(evs[:cut])
				got := e.Results()
				lateBefore := e.Stats().LateCommits
				groups, err = query.Analyze(queries, query.Options{})
				if err != nil {
					t.Fatal(err)
				}
				e, err = Restore(groups, cfg, e.Snapshot(nil))
				if err != nil {
					t.Fatal(err)
				}
				e.ProcessBatch(evs[cut:])
				e.AdvanceTo(advTo)
				st := e.Stats()
				if st.LateDropped != 0 {
					t.Fatalf("%d late events dropped; all disorder was within the horizon", st.LateDropped)
				}
				// The late-commit counter is not part of a snapshot: it restarts.
				if lateBefore == 0 || st.LateCommits == 0 {
					t.Fatalf("late commits: %d before the restore, %d after; want some on both sides", lateBefore, st.LateCommits)
				}
				compareResults(t, append(got, e.Results()...), want)
			})
		}
	}
}
