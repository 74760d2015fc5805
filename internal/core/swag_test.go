package core

import (
	"fmt"
	"math/rand"
	"testing"

	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// The two-stacks assembly index (swag.go) must be a pure optimization: for
// any query mix over any stream, the engine answers identically to the naive
// reference (Config.NaiveAssembly) that re-folds every covering slice. These
// tests run randomized workloads through both engines and require matching
// results. Sum- and product-derived functions compare with the usual float
// tolerance (the index folds slices in a different association order); order
// statistics are exact.

// assemblies are the two legs the differential tests run: the production
// two-stacks index and the naive reference.
var assemblies = []struct {
	name  string
	naive bool
}{{"two-stacks", false}, {"naive", true}}

// randomFuncs draws 1–3 aggregation functions covering every operator class.
func randomFuncs(rng *rand.Rand) []operator.FuncSpec {
	all := []operator.FuncSpec{
		{Func: operator.Sum},
		{Func: operator.Count},
		{Func: operator.Average},
		{Func: operator.Product},
		{Func: operator.GeoMean},
		{Func: operator.Min},
		{Func: operator.Max},
		{Func: operator.Median},
		{Func: operator.Quantile, Arg: 0.9},
	}
	n := 1 + rng.Intn(3)
	var out []operator.FuncSpec
	for i := 0; i < n; i++ {
		out = append(out, all[rng.Intn(len(all))])
	}
	return out
}

// randomPred draws from a small palette so equal predicates recur across
// queries and selection contexts actually get shared.
func randomPred(rng *rand.Rand) query.Predicate {
	switch rng.Intn(4) {
	case 0:
		return query.Above(1.0)
	case 1:
		return query.Below(1.0)
	case 2:
		return query.Range(0.9, 1.1)
	default:
		return query.All()
	}
}

func randomQuery(rng *rand.Rand, id uint64) query.Query {
	q := query.Query{
		ID:    id,
		Key:   uint32(rng.Intn(3)),
		Pred:  randomPred(rng),
		Funcs: randomFuncs(rng),
	}
	switch rng.Intn(4) {
	case 0:
		q.Type = query.Tumbling
		if rng.Intn(2) == 0 {
			q.Measure = query.Count
			q.Length = int64(5 + rng.Intn(40))
		} else {
			q.Measure = query.Time
			q.Length = int64(200 + rng.Intn(2000))
		}
	case 1:
		q.Type = query.Sliding
		if rng.Intn(2) == 0 {
			q.Measure = query.Count
			q.Length = int64(10 + rng.Intn(60))
			q.Slide = 1 + rng.Int63n(q.Length)
		} else {
			q.Measure = query.Time
			q.Length = int64(400 + rng.Intn(3000))
			q.Slide = 50 + rng.Int63n(q.Length-50+1)
		}
	case 2:
		q.Type = query.Session
		q.Measure = query.Time
		q.Gap = int64(100 + rng.Intn(600))
	default:
		q.Type = query.UserDefined
		q.Measure = query.Time
	}
	return q
}

// randomStream emits in-order events over the query keys with jittered
// inter-arrival times, idle gaps (for sessions), and occasional user-defined
// window markers. Values stay near 1.0 so products neither overflow nor
// vanish.
func randomAssemblyStream(rng *rand.Rand, n int) ([]event.Event, int64) {
	evs := make([]event.Event, 0, n)
	t := int64(1000)
	for i := 0; i < n; i++ {
		switch {
		case rng.Intn(200) == 0:
			t += int64(300 + rng.Intn(900)) // idle gap: closes sessions
		default:
			t += int64(rng.Intn(20))
		}
		ev := event.Event{
			Time:  t,
			Key:   uint32(rng.Intn(3)),
			Value: 0.8 + 0.4*rng.Float64(),
		}
		if rng.Intn(50) == 0 {
			ev.Marker = event.MarkerBoundary
		}
		evs = append(evs, ev)
	}
	return evs, t + 10_000
}

// differentialStream is the stream the assembly differentials feed. Odd
// seeds run long enough for groups to pass pruneThreshold, so the index's
// dropFront/reset paths run; even seeds stay short. Pruning itself is
// correctness-neutral, and both engines retain alike.
func differentialStream(rng *rand.Rand, seed int64) ([]event.Event, int64) {
	if seed%2 == 1 {
		return randomAssemblyStream(rng, 8000)
	}
	return randomAssemblyStream(rng, 2000)
}

func TestAssemblyDifferential(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nq := 6 + rng.Intn(12)
			var queries []query.Query
			for i := 0; i < nq; i++ {
				q := randomQuery(rng, uint64(i+1))
				if err := q.Validate(); err != nil {
					t.Fatalf("generated invalid query: %v", err)
				}
				queries = append(queries, q)
			}
			evs, advTo := differentialStream(rng, seed)
			want := runEngine(t, queries, evs, advTo, Config{NaiveAssembly: true})
			compareResults(t, runEngine(t, queries, evs, advTo, Config{}), want)
		})
	}
}

// TestAssemblyDifferentialRuntimeAdd adds queries mid-stream: the group's
// operator mask and context set widen at an administrative punctuation, and
// the index has to reconfigure without corrupting earlier state.
func TestAssemblyDifferentialRuntimeAdd(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var initial []query.Query
			for i := 0; i < 5; i++ {
				initial = append(initial, randomQuery(rng, uint64(i+1)))
			}
			var added []query.Query
			for i := 0; i < 4; i++ {
				added = append(added, randomQuery(rng, uint64(100+i)))
			}
			evs, advTo := differentialStream(rng, seed)

			run := func(cfg Config) []Result {
				e := NewFromPlan(mustPlan(t, initial, plan.Options{}), cfg)
				e.ProcessBatch(evs[:len(evs)/2])
				for _, q := range added {
					if _, err := e.AddQuery(q); err != nil {
						t.Fatalf("AddQuery: %v", err)
					}
				}
				e.ProcessBatch(evs[len(evs)/2:])
				e.AdvanceTo(advTo)
				return e.Results()
			}
			want := run(Config{NaiveAssembly: true})
			compareResults(t, run(Config{}), want)
		})
	}
}

// TestAssemblySnapshotRoundTrip checkpoints an indexed engine mid-stream and
// restores it: the index is derived state, rebuilt lazily after restore, so
// the resumed engine must continue identically to an uninterrupted one. The
// stream is long enough that rings are pruned on both sides of the cut.
func TestAssemblySnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var queries []query.Query
	for i := 0; i < 8; i++ {
		queries = append(queries, randomQuery(rng, uint64(i+1)))
	}
	evs, advTo := randomAssemblyStream(rng, 8000)

	full := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{})
	full.ProcessBatch(evs)
	full.AdvanceTo(advTo)
	want := full.Results()

	e := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{})
	e.ProcessBatch(evs[:len(evs)/2])
	partial := e.Results()
	before := e.Stats().Pruned
	snap := e.Snapshot(nil)
	e2, err := RestoreFromPlan(mustPlan(t, queries, plan.Options{}), Config{}, snap)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	e2.ProcessBatch(evs[len(evs)/2:])
	e2.AdvanceTo(advTo)
	got := append(partial, e2.Results()...)
	compareResults(t, got, want)
	if after := e2.Stats().Pruned; before == 0 || after == before {
		t.Fatalf("pruned %d slices before the snapshot and %d after it: both sides must prune (threshold %d)", before, after-before, pruneThreshold)
	}
}

// TestAssemblyMergesUnderDeferredEmission bounds what a window costs in
// merges when a reorder horizon defers emission, index upkeep and late-commit
// repairs included. Deferred windows end a horizon's worth of slices (20
// here) behind the ring's tail. An index that only places its boundary at
// the tail spans them by accident or not at all: two-stacks never flipped
// again after the first prune, and every window folded every slice it
// covers — 45 merges a window on this shape, against 4 with the boundary
// where the windows end. The late share is kept low because repairs are
// priced per late event and would drown the figure the test is after.
func TestAssemblyMergesUnderDeferredEmission(t *testing.T) {
	funcs := []string{"sum", "count", "average", "min", "max", "sum,count", "min,max", "average,max"}
	var queries []query.Query
	for i := 0; i < 16; i++ {
		q := query.MustParse(fmt.Sprintf("sliding(%ds,100ms) %s key=0", i/2+1, funcs[i%len(funcs)]))
		q.ID = uint64(i + 1)
		queries = append(queries, q)
	}
	rng := rand.New(rand.NewSource(3))
	evs := make([]event.Event, 60_000) // a minute at one event per millisecond
	for i := range evs {
		evs[i] = event.Event{Time: int64(i), Value: float64(rng.Intn(400)) / 4}
		if i > 3000 && rng.Intn(50) == 0 {
			evs[i].Time -= 1 + rng.Int63n(1000) // late, inside the horizon
		}
	}
	want := runEngine(t, queries, evs, 0, Config{NaiveAssembly: true, ReorderHorizon: 2000})
	windows := 0
	var got []Result
	e := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{ReorderHorizon: 2000, OnResult: func(r Result) {
		windows++
		got = append(got, r)
	}})
	e.ProcessBatch(evs[:10_000]) // past the first prune
	windows = 0
	operator.CountMerges(true)
	e.ProcessBatch(evs[10_000:])
	merges := operator.MergeCalls()
	operator.CountMerges(false)
	if st := e.Stats(); st.LateCommits == 0 || st.Pruned == 0 {
		t.Fatalf("%d late commits, %d slices pruned: the run must exercise both repair and pruning", st.LateCommits, st.Pruned)
	}
	if per := float64(merges) / float64(windows); per > 8 {
		t.Errorf("%.1f merges per window over %d deferred windows, want at most 8", per, windows)
	}
	compareResults(t, got, want)
}
