package gen

import (
	"testing"

	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

func TestStreamDeterministic(t *testing.T) {
	a := NewStream(StreamConfig{Seed: 7, Keys: 4}).Events(500)
	b := NewStream(StreamConfig{Seed: 7, Keys: 4}).Events(500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := NewStream(StreamConfig{Seed: 8, Keys: 4}).Events(500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestStreamOrderedAndBounded(t *testing.T) {
	s := NewStream(StreamConfig{Seed: 1, Keys: 10, IntervalMS: 3})
	prev := int64(-1)
	for i := 0; i < 2000; i++ {
		ev := s.Next()
		if ev.Time < prev {
			t.Fatalf("event %d out of order: %d < %d", i, ev.Time, prev)
		}
		prev = ev.Time
		if ev.Key >= 10 {
			t.Fatalf("key %d out of range", ev.Key)
		}
		if ev.Marker == event.MarkerNone && (ev.Value < 0 || ev.Value >= 121) {
			t.Fatalf("value %g out of sensor range", ev.Value)
		}
	}
	if s.Now() != prev {
		t.Errorf("Now() = %d, want %d", s.Now(), prev)
	}
}

func TestStreamMarkersAndGaps(t *testing.T) {
	s := NewStream(StreamConfig{Seed: 2, MarkerEvery: 50, GapEvery: 100, GapMS: 5000, IntervalMS: 1})
	markers := 0
	var maxJump int64
	prev := int64(0)
	for i := 0; i < 1000; i++ {
		ev := s.Next()
		if ev.Marker != event.MarkerNone {
			markers++
		}
		if ev.Time-prev > maxJump {
			maxJump = ev.Time - prev
		}
		prev = ev.Time
	}
	if markers != 20 {
		t.Errorf("markers = %d, want 20", markers)
	}
	if maxJump < 5000 {
		t.Errorf("max gap %d, want >= 5000", maxJump)
	}
}

func TestQueriesValidAndDeterministic(t *testing.T) {
	cfg := QueryConfig{
		Seed: 5, Keys: 8, AllowCount: true,
		Types: []query.WindowType{query.Tumbling, query.Sliding, query.Session, query.UserDefined},
		Funcs: []operator.Func{operator.Sum, operator.Average, operator.Median, operator.Quantile},
	}
	a := Queries(200, cfg)
	b := Queries(200, cfg)
	for i := range a {
		if err := a[i].Validate(); err != nil {
			t.Fatalf("query %d invalid: %v", i, err)
		}
		if a[i].String() != b[i].String() {
			t.Fatalf("query %d not deterministic", i)
		}
	}
	if _, err := plan.New(a, plan.Options{Decentralized: true}); err != nil {
		t.Fatalf("generated mix does not plan: %v", err)
	}
}

func TestTumblingSweep(t *testing.T) {
	qs := TumblingSweep(10, 1000, 10000, operator.Average)
	if len(qs) != 10 {
		t.Fatal("wrong count")
	}
	if qs[0].Length != 1000 || qs[9].Length != 10000 {
		t.Errorf("length range [%d, %d]", qs[0].Length, qs[9].Length)
	}
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	one := TumblingSweep(1, 1000, 10000, operator.Sum)
	if one[0].Length != 1000 {
		t.Errorf("single sweep length %d", one[0].Length)
	}
}
