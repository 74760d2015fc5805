package node

import (
	"fmt"
	"math/rand"
	"testing"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// treeEngineSeeds is how many seeded streams every cell of
// TestTreeEqualsEngine replays.
const treeEngineSeeds = 8

// treeEngineStream builds 400 events with gaps of 1–30 ms and an occasional
// +80 ms, so 50 ms sessions both join and split. User-defined markers sit at
// 300, 680, 1000 and 1300 and then after every ~40th event. Data events
// carry local, the index of the local that ingests them; markers go to every
// local.
func treeEngineStream(rng *rand.Rand, locals int) (evs []event.Event, local []int) {
	fixed := []int64{300, 680, 1000, 1300}
	tm := int64(0)
	for i := 0; i < 400; i++ {
		tm += 1 + int64(rng.Intn(30))
		if rng.Intn(12) == 0 {
			tm += 80
		}
		for len(fixed) > 0 && fixed[0] <= tm {
			evs = append(evs, event.Event{Time: fixed[0], Key: 1, Marker: event.MarkerBoundary})
			local = append(local, -1)
			fixed = fixed[1:]
		}
		evs = append(evs, event.Event{Time: tm, Key: 1, Value: float64(rng.Intn(100))})
		local = append(local, rng.Intn(locals))
		if tm > 1300 && rng.Intn(40) == 0 {
			tm++
			evs = append(evs, event.Event{Time: tm, Key: 1, Marker: event.MarkerBoundary})
			local = append(local, -1)
		}
	}
	return evs, local
}

// treeEngineSchedule returns the times a cell advances to: every step, then
// a final advance far past the last event that closes everything.
func treeEngineSchedule(name string, last int64) []int64 {
	var steps []int64
	switch name {
	case "one-step":
	case "100ms", "1000ms":
		d := int64(100)
		if name == "1000ms" {
			d = 1000
		}
		for t := d; t <= last; t += d {
			steps = append(steps, t)
		}
	case "markers":
		steps = []int64{300, 680, 1000, 1300}
	}
	return append(steps, last+2000)
}

// treeEngineSkip names the cells that fail because no tier states what its
// watermark promises (ROADMAP item 1, cause B): a local sends w while it
// still holds a session open below w, so sessions spread over several locals
// split once there is more than one step (mixed holds a session beside
// sliding members, and its session splits the same way); and a marker that
// arrives at a time the watermark already reached (300 and 1000 are steps of
// every multi-step schedule) closes a window the parent drops as a replay.
func treeEngineSkip(window, schedule string, locals int) bool {
	if schedule == "one-step" {
		return false
	}
	return window == "userdefined" || (window == "session" || window == "mixed") && locals > 1
}

// TestTreeEqualsEngine runs seeded streams through in-process trees and
// holds the root's results to one engine that is fed the merged stream and
// advanced at the same points: the multisets must be equal, and no
// partial may be dropped as a replay on the way up.
func TestTreeEqualsEngine(t *testing.T) {
	windows := []struct {
		name    string
		queries []query.Query
	}{
		{"fixed", treeEngineQueries("tumbling(100ms) sum,count key=1", "sliding(300ms,100ms) median,max key=1")},
		{"session", treeEngineQueries("session(50ms) sum key=1")},
		{"userdefined", treeEngineQueries("userdefined sum,count key=1")},
		{"count", treeEngineQueries("tumbling(16ev) sum key=1")},
		{"mixed", treeEngineQueries("session(50ms) count key=1", "sliding(300ms,100ms) median key=1")},
	}
	schedules := []string{"one-step", "100ms", "1000ms", "markers"}
	for _, locals := range []int{1, 2, 4} {
		for inters := 0; inters <= 2; inters++ {
			for _, w := range windows {
				for _, sched := range schedules {
					name := fmt.Sprintf("L%dI%d/%s/%s", locals, inters, w.name, sched)
					t.Run(name, func(t *testing.T) {
						if treeEngineSkip(w.name, sched, locals) {
							t.Skip("ROADMAP item 1 cause B: a watermark does not cover the dynamic slices a tier still holds open")
						}
						for seed := int64(1); seed <= treeEngineSeeds; seed++ {
							t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
								checkTreeEqualsEngine(t, w.queries, sched, locals, inters, seed)
							})
						}
					})
				}
			}
		}
	}
}

func treeEngineQueries(specs ...string) []query.Query {
	qs := make([]query.Query, len(specs))
	for i, s := range specs {
		qs[i] = query.MustParse(s)
		qs[i].ID = uint64(i + 1)
	}
	return qs
}

func checkTreeEqualsEngine(t *testing.T, queries []query.Query, schedule string, locals, inters int, seed int64) {
	t.Helper()
	evs, local := treeEngineStream(rand.New(rand.NewSource(seed)), locals)
	steps := treeEngineSchedule(schedule, evs[len(evs)-1].Time)

	ep, err := plan.New(queries, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewFromPlan(ep, core.Config{})
	tp, err := plan.New(queries, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(tp, ClusterConfig{Locals: locals, Intermediates: inters})
	reg := telemetry.NewRegistry()
	c.root.AttachTelemetry(reg, "root")

	// Events at a step's time go in after its advance: the engine admits
	// events at its watermark, and the markers at 300 and 1000 land there.
	next := 0
	for _, step := range steps {
		lo := next
		streams := make([][]event.Event, locals)
		for ; next < len(evs) && evs[next].Time < step; next++ {
			if l := local[next]; l >= 0 {
				streams[l] = append(streams[l], evs[next])
				continue
			}
			for l := range streams {
				streams[l] = append(streams[l], evs[next])
			}
		}
		eng.ProcessBatch(evs[lo:next])
		eng.AdvanceTo(step)
		for l, s := range streams {
			if err := c.Push(l, s); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.AdvanceAll(step); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	compareResultSets(t, c.Results(), eng.Results())
	if n := reg.Counter("merge.dup_dropped").Load(); n != 0 {
		t.Errorf("merge.dup_dropped = %d, want 0", n)
	}
}
