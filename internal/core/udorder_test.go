package core

import (
	"testing"

	"desis/internal/event"
	"desis/internal/plan"
	"desis/internal/query"
)

// TestUserDefinedStreamOrderAtEqualTimestamps pins the stream-order
// membership rule: a data event followed by a marker AT THE SAME TIMESTAMP
// belongs to the closing window, and the zero-span slice holding it must not
// leak into the window that opens at that timestamp. (Regression: found by
// randomized testing.)
func TestUserDefinedStreamOrderAtEqualTimestamps(t *testing.T) {
	ud := query.MustParse("userdefined sum,count key=0")
	ud.ID = 1
	// A sliding window shares the group, forcing extra slice cuts.
	sl := query.MustParse("sliding(33ms,21ms) sum key=0")
	sl.ID = 2
	e := NewFromPlan(mustPlan(t, []query.Query{ud, sl}, plan.Options{}), Config{})
	evs := []event.Event{
		{Time: 38, Value: 1},                      // opens trip 1
		{Time: 38, Marker: event.MarkerBoundary},  // closes trip 1 = [38,38) holding the event
		{Time: 57, Value: 10},                     // trip 2
		{Time: 93, Value: 20},                     //
		{Time: 100, Value: 30},                    //
		{Time: 100, Marker: event.MarkerBoundary}, // closes trip 2 = [38,100) incl. event at 100
		{Time: 130, Value: 100},                   // trip 3
		{Time: 150, Marker: event.MarkerBoundary}, // closes trip 3 = [100,150)
	}
	e.ProcessBatch(evs)
	e.AdvanceTo(1000)
	var trips []Result
	for _, r := range e.Results() {
		if r.QueryID == 1 {
			trips = append(trips, r)
		}
	}
	if len(trips) != 3 {
		t.Fatalf("got %d trips: %v", len(trips), keys(trips))
	}
	sortResults(trips)
	check := func(i int, start, end, count int64, sum float64) {
		r := trips[i]
		if r.Start != start || r.End != end || r.Count != count || r.Values[0].Value != sum {
			t.Errorf("trip %d = %s count=%d sum=%g, want [%d,%d) count=%d sum=%g",
				i, resultKey(r), r.Count, r.Values[0].Value, start, end, count, sum)
		}
	}
	check(0, 38, 38, 1, 1)   // the same-timestamp event stays in trip 1
	check(1, 38, 100, 3, 60) // trip 2 excludes it, includes the event at 100
	check(2, 100, 150, 1, 100)
}
