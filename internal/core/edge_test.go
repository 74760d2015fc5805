package core

import (
	"math/rand"
	"testing"

	"desis/internal/event"
	"desis/internal/plan"
	"desis/internal/query"
)

// TestSliceStoreBounded verifies pruning: a long stream with short windows
// must not accumulate slices (§2.3's memory argument).
func TestSliceStoreBounded(t *testing.T) {
	queries := []query.Query{
		query.MustParse("tumbling(100ms) sum key=0"),
		query.MustParse("sliding(500ms,100ms) average key=0"),
		query.MustParse("session(50ms) count key=0"),
	}
	for i := range queries {
		queries[i].ID = uint64(i + 1)
	}
	e := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{OnResult: func(Result) {}})
	rng := rand.New(rand.NewSource(1))
	tm := int64(0)
	for i := 0; i < 200_000; i++ {
		tm += int64(rng.Intn(3))
		if i%997 == 0 {
			tm += 80 // periodic silence so the session windows close
		}
		e.Process(event.Event{Time: tm, Value: rng.Float64()})
	}
	gs := e.orderedGroups()[0]
	// The widest open window is the 500ms sliding one: at most ~10 slices
	// of 100ms lie within it, plus the prune hysteresis of 64.
	if n := len(gs.closed); n > 128 {
		t.Errorf("slice store grew to %d entries over a long stream", n)
	}
}

// TestSlidingRingBound holds §2.3's bound at every event of a long sliding
// run: the closed ring never holds more than pruneThreshold slices plus the
// longest window's (2s of 50ms slices: 40).
func TestSlidingRingBound(t *testing.T) {
	queries := []query.Query{
		query.MustParse("sliding(2s,100ms) sum key=0"),
		query.MustParse("sliding(500ms,50ms) max key=0"),
	}
	for i := range queries {
		queries[i].ID = uint64(i + 1)
	}
	e := NewFromPlan(mustPlan(t, queries, plan.Options{}), Config{OnResult: func(Result) {}})
	gs := e.orderedGroups()[0]
	const bound = pruneThreshold + 2000/50
	peak := 0
	for i := 0; i < 100_000; i++ {
		e.Process(event.Event{Time: int64(i), Value: float64(i % 7)})
		peak = max(peak, len(gs.closed))
	}
	if peak > bound {
		t.Errorf("closed ring peaked at %d slices, bound %d", peak, bound)
	}
	if e.Stats().Pruned == 0 {
		t.Error("no slice was pruned over a 100 s sliding run")
	}
}

// TestCountSliceStoreBounded does the same for count-measure windows.
func TestCountSliceStoreBounded(t *testing.T) {
	q := query.MustParse("sliding(64ev,16ev) sum key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{OnResult: func(Result) {}})
	for i := 0; i < 100_000; i++ {
		e.Process(event.Event{Time: int64(i), Value: 1})
	}
	if n := len(e.orderedGroups()[0].closed); n > 128 {
		t.Errorf("count slice store grew to %d entries", n)
	}
}

// TestUnroutedKeysDropped: events whose key no query selects cost nothing
// and produce nothing.
func TestUnroutedKeysDropped(t *testing.T) {
	q := query.MustParse("tumbling(100ms) sum key=1")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{})
	for i := 0; i < 100; i++ {
		e.Process(event.Event{Time: int64(i * 10), Key: 9, Value: 1})
	}
	e.AdvanceTo(5000)
	if rs := e.Results(); len(rs) != 0 {
		t.Errorf("unrouted key produced %d results", len(rs))
	}
	if st := e.Stats(); st.Events != 0 {
		t.Errorf("unrouted events counted: %d", st.Events)
	}
}

// TestEmptyEngine: no queries is a valid (if pointless) configuration.
func TestEmptyEngine(t *testing.T) {
	e := NewFromPlan(mustPlan(t, nil, plan.Options{}), Config{})
	e.Process(event.Event{Time: 1, Value: 2})
	e.AdvanceTo(100)
	if rs := e.Results(); len(rs) != 0 {
		t.Errorf("empty engine produced results: %v", rs)
	}
}

// TestMarkerWithoutUserDefinedQueries: boundary markers are inert when no
// user-defined windows listen.
func TestMarkerWithoutUserDefinedQueries(t *testing.T) {
	q := query.MustParse("tumbling(100ms) count key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{})
	e.Process(event.Event{Time: 10, Value: 1})
	e.Process(event.Event{Time: 20, Marker: event.MarkerBoundary})
	e.Process(event.Event{Time: 30, Value: 1})
	e.AdvanceTo(100)
	rs := e.Results()
	if len(rs) != 1 || rs[0].Count != 2 {
		t.Fatalf("results %v, want one window of 2 data events (marker inert)", rs)
	}
}

// TestDuplicateTimestamps: several events on one timestamp all land in the
// same windows.
func TestDuplicateTimestamps(t *testing.T) {
	q := query.MustParse("tumbling(10ms) count key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{})
	for i := 0; i < 5; i++ {
		e.Process(event.Event{Time: 5, Value: float64(i)})
	}
	for i := 0; i < 3; i++ {
		e.Process(event.Event{Time: 10, Value: float64(i)})
	}
	e.AdvanceTo(20)
	rs := e.Results()
	if len(rs) != 2 {
		t.Fatalf("results: %v", rs)
	}
	sortResults(rs)
	if rs[0].Count != 5 || rs[1].Count != 3 {
		t.Errorf("counts %d,%d want 5,3", rs[0].Count, rs[1].Count)
	}
}

// TestAdvanceToIdempotent: repeated or stale watermarks change nothing.
func TestAdvanceToIdempotent(t *testing.T) {
	q := query.MustParse("tumbling(100ms) count key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{})
	for i := 0; i < 30; i++ {
		e.Process(event.Event{Time: int64(i * 10), Value: 1})
	}
	e.AdvanceTo(300)
	n1 := len(e.Results())
	e.AdvanceTo(300)
	e.AdvanceTo(250) // stale: must be a no-op
	e.AdvanceTo(300)
	if extra := len(e.Results()); extra != 0 {
		t.Errorf("idempotent advance emitted %d extra results", extra)
	}
	if n1 != 3 {
		t.Errorf("first advance emitted %d windows, want 3", n1)
	}
}

// TestSessionAcrossLongSilence: a session that closes by watermark, then a
// much later burst, reopens cleanly.
func TestSessionAcrossLongSilence(t *testing.T) {
	q := query.MustParse("session(100ms) count key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{})
	e.Process(event.Event{Time: 0, Value: 1})
	e.Process(event.Event{Time: 50, Value: 1})
	e.AdvanceTo(1_000_000) // closes [0, 150)
	e.Process(event.Event{Time: 2_000_000, Value: 1})
	e.AdvanceTo(3_000_000)
	rs := e.Results()
	if len(rs) != 2 {
		t.Fatalf("results: %v", keys(rs))
	}
	sortResults(rs)
	if rs[0].Start != 0 || rs[0].End != 150 || rs[0].Count != 2 {
		t.Errorf("first session %s count %d", resultKey(rs[0]), rs[0].Count)
	}
	if rs[1].Start != 2_000_000 || rs[1].End != 2_000_100 || rs[1].Count != 1 {
		t.Errorf("second session %s count %d", resultKey(rs[1]), rs[1].Count)
	}
}
