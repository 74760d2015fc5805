package window

import "testing"

func TestSessionsStateRoundTrip(t *testing.T) {
	var s Sessions
	s.Add(1, 50)
	s.Add(2, 100)
	if !s.NeedsStart() {
		t.Fatal("fresh sessions do not need a start")
	}
	s.Observe(10)
	if s.NeedsStart() {
		t.Fatal("active sessions still report NeedsStart")
	}
	if s.LastEvent() != 10 {
		t.Fatalf("LastEvent = %d", s.LastEvent())
	}
	s.ExpireBefore(70, func(int, int64, int64) {}) // expires id 1 only
	entries, last, have := s.State()
	if len(entries) != 2 || last != 10 || !have {
		t.Fatalf("State() = %v, %d, %v", entries, last, have)
	}

	var r Sessions
	r.Add(1, 50)
	r.Add(2, 100)
	r.SetState(entries, last, have)
	if r.NextEnd() != s.NextEnd() {
		t.Errorf("restored NextEnd %d, want %d", r.NextEnd(), s.NextEnd())
	}
	if r.EarliestOpenStart() != s.EarliestOpenStart() {
		t.Errorf("restored EarliestOpenStart %d, want %d", r.EarliestOpenStart(), s.EarliestOpenStart())
	}
	if !r.NeedsStart() { // id 1 inactive after expiry
		t.Error("restored tracker lost the inactive entry")
	}
}

func TestUserDefinedStateRoundTrip(t *testing.T) {
	var u UserDefined
	u.Add(1)
	u.Add(2)
	if !u.NeedsStart() {
		t.Fatal("fresh user-defined tracker does not need a start")
	}
	u.ObserveOpened(7, nil)
	if u.NeedsStart() {
		t.Fatal("active tracker reports NeedsStart")
	}
	st := u.State()
	if len(st) != 2 || !st[0].Active || st[0].Start != 7 {
		t.Fatalf("State() = %v", st)
	}

	var r UserDefined
	r.Add(1)
	r.Add(2)
	r.SetState(st)
	if r.EarliestOpenStart() != 7 {
		t.Errorf("restored EarliestOpenStart = %d, want 7", r.EarliestOpenStart())
	}
	closed := 0
	r.Marker(20, func(id int, start, end int64) {
		if start != 7 || end != 20 {
			t.Errorf("restored window [%d,%d), want [7,20)", start, end)
		}
		closed++
	})
	if closed != 2 {
		t.Errorf("marker closed %d windows, want 2", closed)
	}
}

func TestSetStateIgnoresUnknownIDs(t *testing.T) {
	var s Sessions
	s.Add(1, 10)
	s.SetState([]DynamicState{{ID: 99, Active: true, Start: 5}}, 5, true)
	if s.EarliestOpenStart() != NoBoundary {
		t.Error("state for unknown id applied")
	}
}
