package main

import (
	"reflect"
	"testing"

	"desis"
)

func lateSpecStream() streamSpec {
	return streamSpec{Events: 64 * batchSize, PerMs: 1, Keys: 4, Pow2Key: 1,
		Late: &lateSpec{Share: 0.10, MaxMs: 1000, FarShare: 0.005, FarMinMs: 5000, FarMaxMs: 10000}}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	for _, spec := range []streamSpec{lateSpecStream(), findWorkload("fold").Stream, treeStream()} {
		a, b := newSource(spec, 7, 0), newSource(spec, 7, 0)
		if !reflect.DeepEqual(a.seg, b.seg) {
			t.Fatalf("same seed, different events (spec %+v)", spec)
		}
		if reflect.DeepEqual(a.seg, newSource(spec, 8, 0).seg) {
			t.Errorf("seeds 7 and 8 generate identical events")
		}
		if reflect.DeepEqual(a.seg, newSource(spec, 7, 1).seg) {
			t.Errorf("sources 0 and 1 of one seed generate identical events")
		}
	}
}

func TestLateDisplacement(t *testing.T) {
	spec := lateSpecStream()
	s := newSource(spec, 3, 0)
	var near, far int
	for i, ev := range s.seg {
		back := int64(i/spec.PerMs) - ev.Time
		switch {
		case back == 0:
		case back >= 1 && back <= spec.Late.MaxMs:
			near++
		case back >= spec.Late.FarMinMs && back < spec.Late.FarMaxMs:
			far++
		default:
			t.Fatalf("event %d displaced by %d ms, outside both ranges", i, back)
		}
	}
	n := float64(len(s.seg))
	if share := float64(near) / n; share < 0.08 || share > 0.12 {
		t.Errorf("%.3f of the events are displaced up to %d ms, want about 0.10", share, spec.Late.MaxMs)
	}
	if far == 0 {
		t.Errorf("no event is displaced beyond repair")
	}
	// The displaced events are part of what a seed determines.
	if !reflect.DeepEqual(s.seg, newSource(spec, 3, 0).seg) {
		t.Errorf("late displacement is not deterministic")
	}
}

func TestFirstEventsVisitEveryKey(t *testing.T) {
	s := newSource(treeStream(), 1, 0)
	for k := 0; k < 16; k++ {
		if s.seg[k].Key != uint32(k) {
			t.Fatalf("event %d has key %d, want %d", k, s.seg[k].Key, k)
		}
	}
}

func TestCyclicReplayShiftsTime(t *testing.T) {
	spec := streamSpec{Events: 4 * batchSize, PerMs: 2, Keys: 2, Pow2Key: -1}
	s := newSource(spec, 1, 0)
	first := append([]desis.Event(nil), s.batch(1)...)
	lap3 := s.batch(1 + 3*s.batches())
	for i := range first {
		want := first[i]
		want.Time += 3 * spec.spanMs()
		if lap3[i] != want {
			t.Fatalf("event %d of lap 3 is %v, want %v", i, lap3[i], want)
		}
	}
	// Asking for an earlier lap again shifts back.
	if got := s.batch(1); !reflect.DeepEqual(got, first) {
		t.Errorf("batch 1 does not come back unchanged after a later lap")
	}
	for g := 0; g < 3*s.batches(); g++ {
		var max int64
		for _, ev := range s.batch(g) {
			if ev.Time > max {
				max = ev.Time
			}
		}
		if r := s.reach(g); r < max {
			t.Fatalf("reach(%d) = %d, but the batch holds an event at %d", g, r, max)
		}
	}
}
