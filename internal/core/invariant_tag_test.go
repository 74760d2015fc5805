//go:build desis_invariants

package core

import (
	"fmt"
	"strings"
	"testing"

	"desis/internal/event"
	"desis/internal/plan"
	"desis/internal/query"
)

// emitPartials runs a slice-emitting engine over a small stream and returns
// the engine plus the pooled partials it shipped (the real pooled pointers,
// not copies — these tests exercise pool-identity tracking).
func emitPartials(t *testing.T) (*Engine, []*SlicePartial) {
	t.Helper()
	q := query.MustParse("tumbling(100ms) sum key=0")
	q.ID = 1
	var ps []*SlicePartial
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{Decentralized: true}), Config{OnSlice: func(p *SlicePartial) { ps = append(ps, p) }})
	e.ProcessBatch([]event.Event{{Time: 0, Value: 1}, {Time: 150, Value: 2}})
	e.AdvanceTo(400)
	if len(ps) == 0 {
		t.Fatal("no partials emitted")
	}
	return e, ps
}

// TestDoubleRecyclePanics: recycling the same SlicePartial twice must panic,
// naming the offending slice id.
func TestDoubleRecyclePanics(t *testing.T) {
	e, ps := emitPartials(t)
	p := ps[0]
	id := p.ID
	e.RecyclePartial(p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second RecyclePartial did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "double recycle of SlicePartial") ||
			!strings.Contains(msg, fmt.Sprintf("slice id %d", id)) {
			t.Fatalf("panic %q does not name double recycle of slice id %d", msg, id)
		}
	}()
	e.RecyclePartial(p)
}

// TestRecycleReissueOK: the pool re-issuing a recycled partial clears the
// poison — the normal recycle → reuse → recycle cycle must not trip the
// checker.
func TestRecycleReissueOK(t *testing.T) {
	e, ps := emitPartials(t)
	e.RecyclePartial(ps[0])
	// Drive more slices through the same group: the pool re-issues the
	// recycled struct, which must arrive unpoisoned and recycle cleanly.
	e.ProcessBatch([]event.Event{{Time: 500, Value: 3}, {Time: 650, Value: 4}})
	e.AdvanceTo(900)
	if len(ps) < 2 {
		t.Fatal("no further partials emitted")
	}
	for _, p := range ps[1:] {
		e.RecyclePartial(p)
	}
}
