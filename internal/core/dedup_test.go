package core

import (
	"testing"

	"desis/internal/event"
	"desis/internal/plan"
	"desis/internal/query"
)

// TestDeduplicationOperator exercises the §4.2.3 deduplication operator:
// events identical in (time, value) within one slice are processed once.
func TestDeduplicationOperator(t *testing.T) {
	q := query.MustParse("tumbling(100ms) sum,count key=0")
	q.ID = 1
	p := mustPlan(t, []query.Query{q}, plan.Options{Dedup: true})
	if !p.Groups[0].Dedup {
		t.Fatal("plan dropped the dedup flag")
	}
	e := NewFromPlan(p, Config{})
	// Each logical event arrives three times (e.g. at-least-once delivery).
	for i := 0; i < 50; i++ {
		ev := event.Event{Time: int64(i * 2), Value: float64(i)}
		e.Process(ev)
		e.Process(ev)
		e.Process(ev)
	}
	e.AdvanceTo(100)
	rs := e.Results()
	if len(rs) != 1 {
		t.Fatalf("got %d results: %v", len(rs), rs)
	}
	if rs[0].Count != 50 {
		t.Errorf("count = %d, want 50 (duplicates dropped)", rs[0].Count)
	}
	if got := rs[0].Values[0].Value; got != 1225 { // sum 0..49
		t.Errorf("sum = %g, want 1225", got)
	}
}

// TestDeduplicationScopeIsSlice verifies that deduplication state resets at
// slice boundaries: the same (time, value) pair in a later slice is new.
func TestDeduplicationScopeIsSlice(t *testing.T) {
	q := query.MustParse("tumbling(10ms) count key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{Dedup: true}), Config{})
	e.Process(event.Event{Time: 1, Value: 5})
	e.Process(event.Event{Time: 1, Value: 5}) // dup in slice 1: dropped
	e.Process(event.Event{Time: 11, Value: 5})
	e.Process(event.Event{Time: 11, Value: 5}) // dup in slice 2: dropped
	e.AdvanceTo(20)
	rs := e.Results()
	if len(rs) != 2 {
		t.Fatalf("got %d results", len(rs))
	}
	for _, r := range rs {
		if r.Count != 1 {
			t.Errorf("window [%d,%d) count = %d, want 1", r.Start, r.End, r.Count)
		}
	}
}

// TestNoDedupByDefault makes sure duplicates pass through without the flag.
func TestNoDedupByDefault(t *testing.T) {
	q := query.MustParse("tumbling(100ms) count key=0")
	q.ID = 1
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{}), Config{})
	ev := event.Event{Time: 1, Value: 5}
	e.Process(ev)
	e.Process(ev)
	e.AdvanceTo(200)
	rs := e.Results()
	if len(rs) == 0 || rs[0].Count != 2 {
		t.Fatalf("results %v, want count 2", rs)
	}
}
