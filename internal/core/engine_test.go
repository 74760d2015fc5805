package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// runEngine processes evs through a fresh engine for the queries and
// advances to advTo, returning the emitted results.
// NumGroups reports how many query-groups the engine materialised.
// Parked (evicted) instances do not count; see InstanceStats.
func (e *Engine) NumGroups() int { return len(e.byID) }

func runEngine(t *testing.T, queries []query.Query, evs []event.Event, advTo int64, cfg Config) []Result {
	t.Helper()
	e := NewFromPlan(mustPlan(t, queries, plan.Options{}), cfg)
	e.ProcessBatch(evs)
	if advTo > 0 {
		e.AdvanceTo(advTo)
	}
	return e.Results()
}

// checkAgainstNaive asserts that the engine's results equal the brute-force
// oracle's, as multisets keyed by (query, window), with float tolerance.
func checkAgainstNaive(t *testing.T, queries []query.Query, evs []event.Event, advTo int64) {
	t.Helper()
	got := runEngine(t, queries, evs, advTo, Config{})
	want := naiveResults(queries, evs, advTo)
	compareResults(t, got, want)
}

func resultKey(r Result) string {
	return fmt.Sprintf("q%d[%d,%d)", r.QueryID, r.Start, r.End)
}

func compareResults(t *testing.T, got, want []Result) {
	t.Helper()
	sortResults(got)
	sortResults(want)
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d\n got: %v\nwant: %v", len(got), len(want), keys(got), keys(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if resultKey(g) != resultKey(w) {
			t.Fatalf("result %d: got %s, want %s", i, resultKey(g), resultKey(w))
		}
		if g.Count != w.Count {
			t.Errorf("%s: count = %d, want %d", resultKey(w), g.Count, w.Count)
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("%s: %d values, want %d", resultKey(w), len(g.Values), len(w.Values))
		}
		for j := range w.Values {
			gv, wv := g.Values[j], w.Values[j]
			if gv.OK != wv.OK {
				t.Errorf("%s %v: ok = %v, want %v", resultKey(w), wv.Spec, gv.OK, wv.OK)
				continue
			}
			if wv.OK && !closeEnough(gv.Value, wv.Value) {
				t.Errorf("%s %v: value = %g, want %g", resultKey(w), wv.Spec, gv.Value, wv.Value)
			}
		}
	}
}

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].QueryID != rs[j].QueryID {
			return rs[i].QueryID < rs[j].QueryID
		}
		if rs[i].Start != rs[j].Start {
			return rs[i].Start < rs[j].Start
		}
		return rs[i].End < rs[j].End
	})
}

func keys(rs []Result) []string {
	var out []string
	for _, r := range rs {
		out = append(out, resultKey(r))
	}
	return out
}

// evenStream returns n data events with key 0, one every stepMS, values
// 1..n.
func evenStream(n int, stepMS int64) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{Time: int64(i) * stepMS, Key: 0, Value: float64(i + 1)}
	}
	return evs
}

func TestTumblingSum(t *testing.T) {
	q := query.MustParse("tumbling(100ms) sum key=0")
	q.ID = 1
	evs := evenStream(10, 25) // events at 0,25,...,225
	checkAgainstNaive(t, []query.Query{q}, evs, 300)
}

func TestTumblingAverageExactValues(t *testing.T) {
	q := query.MustParse("tumbling(100ms) average key=0")
	q.ID = 1
	evs := evenStream(8, 25) // two full windows of 4 events each
	got := runEngine(t, []query.Query{q}, evs, 200, Config{})
	if len(got) != 2 {
		t.Fatalf("got %d results: %v", len(got), keys(got))
	}
	sortResults(got)
	if got[0].Values[0].Value != 2.5 { // avg(1,2,3,4)
		t.Errorf("window 1 avg = %g, want 2.5", got[0].Values[0].Value)
	}
	if got[1].Values[0].Value != 6.5 { // avg(5,6,7,8)
		t.Errorf("window 2 avg = %g, want 6.5", got[1].Values[0].Value)
	}
}

func TestSlidingWindows(t *testing.T) {
	q := query.MustParse("sliding(100ms,40ms) sum,count key=0")
	q.ID = 1
	evs := evenStream(25, 17)
	checkAgainstNaive(t, []query.Query{q}, evs, 500)
}

func TestSessionWindows(t *testing.T) {
	q := query.MustParse("session(50ms) average,count key=0")
	q.ID = 1
	evs := []event.Event{
		{Time: 0, Value: 1}, {Time: 20, Value: 2}, {Time: 40, Value: 3},
		// gap > 50 -> session [0, 90)
		{Time: 200, Value: 4}, {Time: 210, Value: 5},
		// gap -> session [200, 260)
		{Time: 400, Value: 6},
	}
	checkAgainstNaive(t, []query.Query{q}, evs, 500)
}

func TestUserDefinedWindows(t *testing.T) {
	q := query.MustParse("userdefined max,count key=0")
	q.ID = 1
	evs := []event.Event{
		{Time: 0, Value: 3}, {Time: 10, Value: 9},
		{Time: 20, Marker: event.MarkerBoundary}, // trip 1 ends: [0,20)
		{Time: 30, Value: 4}, {Time: 35, Value: 1},
		{Time: 50, Marker: event.MarkerBoundary}, // trip 2: [20,50)
		{Time: 60, Value: 7},
	}
	checkAgainstNaive(t, []query.Query{q}, evs, 100)
}

func TestCountTumbling(t *testing.T) {
	q := query.MustParse("tumbling(4ev) sum,median key=0")
	q.ID = 1
	evs := evenStream(11, 10)
	checkAgainstNaive(t, []query.Query{q}, evs, 0)
}

func TestCountSliding(t *testing.T) {
	q := query.MustParse("sliding(6ev,2ev) sum key=0")
	q.ID = 1
	evs := evenStream(17, 5)
	checkAgainstNaive(t, []query.Query{q}, evs, 0)
}

func TestMedianQuantile(t *testing.T) {
	q := query.MustParse("tumbling(100ms) median,quantile(0.9),quantile(0.1) key=0")
	q.ID = 1
	rng := rand.New(rand.NewSource(7))
	evs := make([]event.Event, 60)
	for i := range evs {
		evs[i] = event.Event{Time: int64(i * 9), Value: rng.NormFloat64() * 50}
	}
	checkAgainstNaive(t, []query.Query{q}, evs, 600)
}

func TestFiveWindowTypesShareOneGroup(t *testing.T) {
	// The Figure 3 scenario: five queries, five window shapes, one group.
	queries := []query.Query{
		query.MustParse("tumbling(100ms) max key=0"),
		query.MustParse("sliding(150ms,50ms) median key=0"),
		query.MustParse("session(60ms) sum key=0"),
		query.MustParse("userdefined count key=0"),
		query.MustParse("tumbling(7ev) average key=0"),
	}
	for i := range queries {
		queries[i].ID = uint64(i + 1)
	}
	groups := mustPlan(t, queries, plan.Options{}).Groups
	if len(groups) != 1 {
		t.Fatalf("expected one query-group, got %d", len(groups))
	}
	rng := rand.New(rand.NewSource(11))
	var evs []event.Event
	tm := int64(0)
	for i := 0; i < 200; i++ {
		tm += int64(rng.Intn(20))
		ev := event.Event{Time: tm, Value: rng.Float64() * 100}
		if rng.Intn(23) == 0 {
			ev.Marker = event.MarkerBoundary
			ev.Value = 0
		}
		evs = append(evs, ev)
	}
	checkAgainstNaive(t, queries, evs, tm+1000)
}

func TestPredicateContexts(t *testing.T) {
	fast := query.MustParse("tumbling(100ms) average key=0 value>=80")
	fast.ID = 1
	slow := query.MustParse("tumbling(100ms) average key=0 value<25")
	slow.ID = 2
	queries := []query.Query{fast, slow}
	groups := mustPlan(t, queries, plan.Options{}).Groups
	if len(groups) != 1 || len(groups[0].Contexts) != 2 {
		t.Fatalf("grouping: %v", groups)
	}
	rng := rand.New(rand.NewSource(3))
	evs := make([]event.Event, 120)
	for i := range evs {
		evs[i] = event.Event{Time: int64(i * 7), Value: rng.Float64() * 120}
	}
	checkAgainstNaive(t, queries, evs, 1000)
}

func TestMultipleKeysRouting(t *testing.T) {
	q0 := query.MustParse("tumbling(50ms) sum key=0")
	q0.ID = 1
	q1 := query.MustParse("tumbling(50ms) sum key=1")
	q1.ID = 2
	var evs []event.Event
	for i := 0; i < 40; i++ {
		evs = append(evs, event.Event{Time: int64(i * 10), Key: uint32(i % 3), Value: 1})
	}
	checkAgainstNaive(t, []query.Query{q0, q1}, evs, 500)
}

func TestEmptyWindowsEmitted(t *testing.T) {
	q := query.MustParse("tumbling(10ms) count,sum key=0")
	q.ID = 1
	evs := []event.Event{{Time: 0, Value: 1}, {Time: 95, Value: 2}}
	got := runEngine(t, []query.Query{q}, evs, 100, Config{})
	// Windows [0,10) .. [90,100): ten windows, eight of them empty.
	if len(got) != 10 {
		t.Fatalf("got %d results: %v", len(got), keys(got))
	}
	sortResults(got)
	for i, r := range got {
		wantCount := int64(0)
		if i == 0 || i == 9 {
			wantCount = 1
		}
		if r.Count != wantCount {
			t.Errorf("window %d count = %d, want %d", i, r.Count, wantCount)
		}
		if r.Values[0].Value != float64(wantCount) { // count function
			t.Errorf("window %d count value = %g", i, r.Values[0].Value)
		}
		if wantCount == 0 && r.Values[1].OK { // sum of empty window
			t.Errorf("window %d: sum of empty window reported ok", i)
		}
	}
	checkAgainstNaive(t, []query.Query{q}, evs, 100)
}

func TestCalculationSharing(t *testing.T) {
	// avg + sum share the sum operator: 2 logical calculations per event,
	// not 3 (Figure 9b). The forced count bookkeeping is not reported.
	avg := query.MustParse("tumbling(100ms) average key=0")
	avg.ID = 1
	sum := query.MustParse("tumbling(100ms) sum key=0")
	sum.ID = 2
	e := NewFromPlan(mustPlan(t, []query.Query{avg, sum}, plan.Options{}), Config{})
	e.ProcessBatch(evenStream(100, 1))
	if got := e.Stats().Calculations; got != 200 {
		t.Errorf("calculations = %d, want 200 (2 per event)", got)
	}
	// 1000 quantile queries share one ndsort operator: 1 per event.
	var qs []query.Query
	for i := 0; i < 50; i++ {
		q := query.MustParse(fmt.Sprintf("tumbling(100ms) quantile(0.%02d) key=0", i+1))
		q.ID = uint64(i + 1)
		qs = append(qs, q)
	}
	e = NewFromPlan(mustPlan(t, qs, plan.Options{}), Config{})
	e.ProcessBatch(evenStream(100, 1))
	if got := e.Stats().Calculations; got != 100 {
		t.Errorf("quantile calculations = %d, want 100 (1 per event)", got)
	}
}

func TestSliceCountStat(t *testing.T) {
	// Tumbling windows of 1..5 ticks: slices per 60 ticks should match the
	// number of distinct boundaries, independent of window count (Fig 8b).
	var qs []query.Query
	for i := 1; i <= 5; i++ {
		q := query.MustParse(fmt.Sprintf("tumbling(%dms) sum key=0", i*10))
		q.ID = uint64(i)
		qs = append(qs, q)
	}
	e := NewFromPlan(mustPlan(t, qs, plan.Options{}), Config{})
	for i := 0; i <= 600; i++ {
		e.Process(event.Event{Time: int64(i), Value: 1})
	}
	// Boundaries are multiples of 10 within (0, 600]: 60 slices.
	if got := e.Stats().Slices; got != 60 {
		t.Errorf("slices = %d, want 60", got)
	}
}

func TestAddQueryAtRuntime(t *testing.T) {
	base := query.MustParse("tumbling(100ms) sum key=0")
	base.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{base}, plan.Options{}), Config{})
	evs := evenStream(30, 10) // t = 0..290
	e.ProcessBatch(evs[:15])  // up to t=140
	added := query.MustParse("tumbling(100ms) median key=0")
	added.ID = 2
	if _, err := e.AddQuery(added); err != nil {
		t.Fatal(err)
	}
	if e.NumGroups() != 1 {
		t.Fatalf("added query founded a new group; want join")
	}
	e.ProcessBatch(evs[15:])
	e.AdvanceTo(300)
	results := e.Results()
	var q1, q2 []Result
	for _, r := range results {
		if r.QueryID == 1 {
			q1 = append(q1, r)
		} else {
			q2 = append(q2, r)
		}
	}
	// Query 1 sees all four windows; query 2 only windows starting at or
	// after its registration (t=140) -> [200,300).
	if len(q1) != 3 {
		t.Errorf("query 1 emitted %d windows, want 3: %v", len(q1), keys(q1))
	}
	if len(q2) != 1 || q2[0].Start != 200 {
		t.Fatalf("query 2 windows: %v, want [200,300)", keys(q2))
	}
	// Its median over values 21..30 (events at 200..290) must be exact.
	if got := q2[0].Values[0].Value; got != 25 {
		t.Errorf("median = %g, want 25", got)
	}
}

func TestAddQueryNewGroupAndKey(t *testing.T) {
	base := query.MustParse("tumbling(100ms) sum key=0")
	base.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{base}, plan.Options{}), Config{})
	other := query.MustParse("tumbling(100ms) sum key=9")
	other.ID = 2
	if _, err := e.AddQuery(other); err != nil {
		t.Fatal(err)
	}
	if e.NumGroups() != 2 {
		t.Fatalf("want a second group for the new key")
	}
	for i := 0; i < 30; i++ {
		e.Process(event.Event{Time: int64(i * 10), Key: 9, Value: 2})
	}
	e.AdvanceTo(300)
	rs := e.Results()
	if len(rs) != 3 {
		t.Fatalf("results for key 9: %v", keys(rs))
	}
	for _, r := range rs {
		if r.QueryID != 2 || r.Values[0].Value != 20 {
			t.Errorf("unexpected result %v value %g", resultKey(r), r.Values[0].Value)
		}
	}
}

func TestAddQueryInvalid(t *testing.T) {
	e := NewFromPlan(mustPlan(t, nil, plan.Options{}), Config{})
	if _, err := e.AddQuery(query.Query{}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestRemoveQuery(t *testing.T) {
	a := query.MustParse("tumbling(100ms) sum key=0")
	a.ID = 1
	b := query.MustParse("tumbling(50ms) count key=0")
	b.ID = 2
	e := NewFromPlan(mustPlan(t, []query.Query{a, b}, plan.Options{}), Config{})
	e.ProcessBatch(evenStream(12, 10)) // t=0..110
	if err := e.RemoveQuery(2); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveQuery(2); err == nil {
		t.Error("second RemoveQuery succeeded")
	}
	e.ProcessBatch(evenStream(12, 10)[6:]) // replay tail is fine: in-order times
	e.AdvanceTo(400)
	for _, r := range e.Results() {
		if r.QueryID == 2 && r.End > 110 {
			t.Errorf("removed query still produced %s", resultKey(r))
		}
	}
}

func TestPerEventBoundaryCheckMatches(t *testing.T) {
	q := query.MustParse("sliding(100ms,30ms) sum,max key=0")
	q.ID = 1
	evs := evenStream(50, 13)
	fast := runEngine(t, []query.Query{q}, evs, 1000, Config{})
	slow := runEngine(t, []query.Query{q}, evs, 1000, Config{PerEventBoundaryCheck: true})
	compareResults(t, slow, fast)
}

func TestEngineRandomWorkloadQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		queries := randomQueries(rng, 1+rng.Intn(6))
		evs := randomStream(rng, 150, 2)
		got := runEngineQuiet(queries, evs, 5000)
		want := naiveResults(queries, evs, 5000)
		return resultsEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func runEngineQuiet(queries []query.Query, evs []event.Event, advTo int64) []Result {
	p, err := plan.New(queries, plan.Options{})
	if err != nil {
		panic(err)
	}
	e := NewFromPlan(p, Config{})
	e.ProcessBatch(evs)
	e.AdvanceTo(advTo)
	return e.Results()
}

func resultsEqual(got, want []Result) bool {
	sortResults(got)
	sortResults(want)
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		g, w := got[i], want[i]
		if resultKey(g) != resultKey(w) || g.Count != w.Count || len(g.Values) != len(w.Values) {
			return false
		}
		for j := range w.Values {
			if g.Values[j].OK != w.Values[j].OK {
				return false
			}
			if w.Values[j].OK && !closeEnough(g.Values[j].Value, w.Values[j].Value) {
				return false
			}
		}
	}
	return true
}

// randomQueries builds n valid random queries over keys 0..1.
func randomQueries(rng *rand.Rand, n int) []query.Query {
	funcs := []operator.Func{
		operator.Sum, operator.Count, operator.Average, operator.Min,
		operator.Max, operator.Median, operator.Quantile,
	}
	var out []query.Query
	for i := 0; i < n; i++ {
		q := query.Query{ID: uint64(i + 1), Key: uint32(rng.Intn(2)), Pred: query.All()}
		f := funcs[rng.Intn(len(funcs))]
		spec := operator.FuncSpec{Func: f}
		if f == operator.Quantile {
			spec.Arg = 0.1 + 0.8*rng.Float64()
		}
		q.Funcs = []operator.FuncSpec{spec}
		switch rng.Intn(5) {
		case 0:
			q.Type, q.Length = query.Tumbling, int64(10+rng.Intn(200))
		case 1:
			q.Type = query.Sliding
			q.Length = int64(20 + rng.Intn(200))
			q.Slide = 1 + rng.Int63n(q.Length)
		case 2:
			q.Type, q.Gap = query.Session, int64(5+rng.Intn(100))
		case 3:
			q.Type = query.UserDefined
		case 4:
			q.Type, q.Measure = query.Tumbling, query.Count
			q.Length = int64(1 + rng.Intn(20))
		}
		if rng.Intn(3) == 0 {
			q.Pred = query.Above(rng.Float64() * 50)
		}
		out = append(out, q)
	}
	return out
}

// randomStream builds n time-ordered events over nKeys keys with occasional
// markers.
func randomStream(rng *rand.Rand, n, nKeys int) []event.Event {
	var evs []event.Event
	tm := int64(rng.Intn(50))
	for i := 0; i < n; i++ {
		tm += int64(rng.Intn(25))
		ev := event.Event{Time: tm, Key: uint32(rng.Intn(nKeys)), Value: rng.Float64() * 100}
		if rng.Intn(29) == 0 {
			ev.Marker = event.MarkerBoundary
			ev.Value = 0
		}
		evs = append(evs, ev)
	}
	return evs
}
