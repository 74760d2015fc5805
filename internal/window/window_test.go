package window

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestCalendarTumblingBoundaries(t *testing.T) {
	var c Calendar
	c.Add(1, 10, 10)
	want := []int64{10, 20, 30}
	at := int64(0)
	for _, w := range want {
		got := c.NextBoundary(at)
		if got != w {
			t.Fatalf("NextBoundary(%d) = %d, want %d", at, got, w)
		}
		at = got
	}
	// Zero is a start boundary but NextBoundary is strict.
	if got := c.NextBoundary(-1); got != 0 {
		t.Errorf("NextBoundary(-1) = %d, want 0", got)
	}
}

func TestCalendarSlidingBoundaries(t *testing.T) {
	var c Calendar
	c.Add(1, 10, 4) // starts 0,4,8,...; ends 10,14,18,...
	var got []int64
	at := int64(0)
	for i := 0; i < 6; i++ {
		at = c.NextBoundary(at)
		got = append(got, at)
	}
	want := []int64{4, 8, 10, 12, 14, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boundaries = %v, want %v", got, want)
		}
	}
}

func TestCalendarEndsAt(t *testing.T) {
	var c Calendar
	c.Add(1, 10, 10) // tumbling 10
	c.Add(2, 10, 4)  // sliding 10/4
	ends := map[int]int64{}
	c.EndsAt(20, func(id int, start int64) { ends[id] = start })
	if ends[1] != 10 {
		t.Errorf("tumbling end at 20: start = %d, want 10", ends[1])
	}
	// sliding: 20-10=10, 10%4 != 0 -> no end.
	if _, ok := ends[2]; ok {
		t.Error("sliding window reported end at 20")
	}
	ends = map[int]int64{}
	c.EndsAt(18, func(id int, start int64) { ends[id] = start })
	if ends[2] != 8 {
		t.Errorf("sliding end at 18: start = %d, want 8", ends[2])
	}
}

func TestCalendarMultipleQueries(t *testing.T) {
	var c Calendar
	c.Add(1, 6, 6)
	c.Add(2, 10, 10)
	var got []int64
	at := int64(0)
	for at < 30 {
		at = c.NextBoundary(at)
		got = append(got, at)
	}
	want := []int64{6, 10, 12, 18, 20, 24, 30}
	if len(got) != len(want) {
		t.Fatalf("boundaries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("boundaries = %v, want %v", got, want)
		}
	}
}

func TestCalendarRemove(t *testing.T) {
	var c Calendar
	c.Add(1, 10, 10)
	c.Add(2, 7, 7)
	c.Remove(2)
	if got := c.NextBoundary(0); got != 10 {
		t.Errorf("after Remove: NextBoundary(0) = %d, want 10", got)
	}
	c.Remove(1)
	if !c.Empty() {
		t.Error("calendar not empty after removing all")
	}
	if got := c.NextBoundary(0); got != NoBoundary {
		t.Errorf("empty calendar NextBoundary = %d", got)
	}
}

func TestCalendarEarliestOpenStart(t *testing.T) {
	var c Calendar
	c.Add(1, 10, 4)
	// At t=13 the open windows are [4,14), [8,18), [12,22).
	if got := c.EarliestOpenStart(13); got != 4 {
		t.Errorf("EarliestOpenStart(13) = %d, want 4", got)
	}
	// At t=14 the window [4,14) just closed.
	if got := c.EarliestOpenStart(14); got != 8 {
		t.Errorf("EarliestOpenStart(14) = %d, want 8", got)
	}
	if got := c.EarliestOpenStart(2); got != 0 {
		t.Errorf("EarliestOpenStart(2) = %d, want 0", got)
	}
}

// TestCalendarMatchesNaiveQuick cross-checks the arithmetic boundary
// calendar against a brute-force enumeration — the ablation of §6's
// "window ends in advance" claim depends on both agreeing.
func TestCalendarMatchesNaiveQuick(t *testing.T) {
	f := func(lenSeed, slideSeed uint8, horizon uint16) bool {
		length := int64(lenSeed%50) + 1
		slide := int64(slideSeed)%length + 1
		var c Calendar
		c.Add(1, length, slide)

		// Brute force: every start (k*slide) and end (k*slide+length).
		bound := int64(horizon % 2000)
		naive := map[int64]bool{}
		for k := int64(0); k*slide <= bound+length; k++ {
			naive[k*slide] = true
			naive[k*slide+length] = true
		}
		var want []int64
		for b := range naive {
			if b > 0 && b <= bound {
				want = append(want, b)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		var got []int64
		at := int64(0)
		for {
			at = c.NextBoundary(at)
			if at > bound || at == NoBoundary {
				break
			}
			got = append(got, at)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSessions(t *testing.T) {
	var s Sessions
	s.Add(1, 5)
	s.Add(2, 10)
	if got := s.NextEnd(); got != NoBoundary {
		t.Fatalf("NextEnd before events = %d", got)
	}
	s.Observe(100)
	s.Observe(103)
	if got := s.NextEnd(); got != 108 {
		t.Fatalf("NextEnd = %d, want 108", got)
	}
	type closed struct {
		id         int
		start, end int64
	}
	var got []closed
	// Next event at 120: both gaps elapsed.
	s.ExpireBefore(120, func(id int, start, end int64) {
		got = append(got, closed{id, start, end})
	})
	if len(got) != 2 {
		t.Fatalf("closed %v", got)
	}
	for _, c := range got {
		wantEnd := int64(108)
		if c.id == 2 {
			wantEnd = 113
		}
		if c.start != 100 || c.end != wantEnd {
			t.Errorf("session %d closed [%d,%d), want [100,%d)", c.id, c.start, c.end, wantEnd)
		}
	}
	s.Observe(120)
	if got := s.EarliestOpenStart(); got != 120 {
		t.Errorf("EarliestOpenStart = %d, want 120", got)
	}
}

func TestSessionsPartialExpiry(t *testing.T) {
	var s Sessions
	s.Add(1, 5)
	s.Add(2, 50)
	s.Observe(0)
	var ids []int
	s.ExpireBefore(10, func(id int, _, _ int64) { ids = append(ids, id) })
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("expired %v, want [1]", ids)
	}
	// The long session is still open and extends with new events.
	s.Observe(10)
	if got := s.NextEnd(); got != 15 {
		t.Errorf("NextEnd = %d, want 15 (reopened short session)", got)
	}
	if got := s.EarliestOpenStart(); got != 0 {
		t.Errorf("EarliestOpenStart = %d, want 0 (long session)", got)
	}
}

func TestSessionsRemove(t *testing.T) {
	var s Sessions
	s.Add(1, 5)
	s.Remove(1)
	if !s.Empty() {
		t.Error("Sessions not empty after Remove")
	}
	s.Observe(10)
	if got := s.NextEnd(); got != NoBoundary {
		t.Errorf("NextEnd with no entries = %d", got)
	}
}

func TestUserDefined(t *testing.T) {
	var u UserDefined
	u.Add(1)
	u.ObserveOpened(10, nil)
	type closed struct{ start, end int64 }
	var got []closed
	u.Marker(25, func(id int, start, end int64) { got = append(got, closed{start, end}) })
	if len(got) != 1 || got[0] != (closed{10, 25}) {
		t.Fatalf("marker closed %v", got)
	}
	// Next window opened at the marker.
	if got := u.EarliestOpenStart(); got != 25 {
		t.Errorf("EarliestOpenStart = %d, want 25", got)
	}
	u.Marker(40, func(id int, start, end int64) { got = append(got, closed{start, end}) })
	if len(got) != 2 || got[1] != (closed{25, 40}) {
		t.Fatalf("second marker closed %v", got)
	}
}

func TestUserDefinedMarkerBeforeEvents(t *testing.T) {
	var u UserDefined
	u.Add(1)
	calls := 0
	u.Marker(5, func(int, int64, int64) { calls++ })
	if calls != 0 {
		t.Error("marker before any window closed something")
	}
	// But it opens the first window.
	if got := u.EarliestOpenStart(); got != 5 {
		t.Errorf("EarliestOpenStart = %d, want 5", got)
	}
}

func TestUserDefinedRemove(t *testing.T) {
	var u UserDefined
	u.Add(1)
	u.Add(2)
	u.Remove(1)
	u.ObserveOpened(1, nil)
	calls := 0
	u.Marker(2, func(id int, _, _ int64) {
		if id != 2 {
			t.Errorf("marker fired for removed id %d", id)
		}
		calls++
	})
	if calls != 1 {
		t.Errorf("marker fired %d times, want 1", calls)
	}
	u.Remove(2)
	if !u.Empty() {
		t.Error("UserDefined not empty")
	}
}
