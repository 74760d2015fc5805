package core

import (
	"testing"

	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// TestSliceEmitMode exercises the local-node configuration directly: slices
// ship via OnSlice, dynamic window ends travel as EPs, and no windows are
// assembled locally.
// Events reports the total number of events across all contexts of the
// partial.
func (p *SlicePartial) Events() int64 {
	var n int64
	for i := range p.Aggs {
		n += p.Aggs[i].CountV
	}
	return n
}

func TestSliceEmitMode(t *testing.T) {
	queries := []query.Query{
		query.MustParse("tumbling(100ms) average key=0"),
		query.MustParse("session(50ms) count key=0"),
		query.MustParse("userdefined max key=0"),
	}
	for i := range queries {
		queries[i].ID = uint64(i + 1)
	}
	var partials []*SlicePartial
	pl := mustPlan(t, queries, plan.Options{Decentralized: true})
	e := NewFromPlan(pl, Config{OnSlice: func(p *SlicePartial) {
		cp := *p
		cp.Aggs = append([]operator.Agg(nil), p.Aggs...)
		cp.EPs = append([]EP(nil), p.EPs...)
		partials = append(partials, &cp)
	}})

	evs := []event.Event{
		{Time: 0, Value: 1}, {Time: 30, Value: 2},
		// gap > 50: session [0, 80) ends at next punctuation
		{Time: 150, Value: 3},
		{Time: 180, Marker: event.MarkerBoundary}, // trip [0, 180) ends
		{Time: 190, Value: 4},
	}
	e.ProcessBatch(evs)
	e.AdvanceTo(400)

	if got := e.Results(); len(got) != 0 {
		t.Fatalf("slice mode assembled %d windows locally", len(got))
	}
	if len(partials) == 0 {
		t.Fatal("no partials emitted")
	}
	var ids []uint64
	type epRec struct{ start, end int64 }
	var sessEPs, udEPs []epRec
	var total int64
	prevEnd := int64(-1)
	for _, p := range partials {
		ids = append(ids, p.ID)
		total += p.Ingested
		if p.Start < prevEnd {
			t.Errorf("slice [%d,%d) overlaps previous end %d", p.Start, p.End, prevEnd)
		}
		prevEnd = p.End
		if p.Events() != p.Ingested {
			t.Errorf("partial [%d,%d): Events()=%d, Ingested=%d (all-match predicate)",
				p.Start, p.End, p.Events(), p.Ingested)
		}
		for _, ep := range p.EPs {
			gq := pl.Groups[0].Queries[ep.QueryIdx]
			switch gq.Type {
			case query.Session:
				sessEPs = append(sessEPs, epRec{ep.Start, ep.End})
			case query.UserDefined:
				udEPs = append(udEPs, epRec{ep.Start, ep.End})
			}
		}
	}
	// Two sessions: [0,80) ended by the gap, [150,240) by the watermark.
	wantSess := []epRec{{0, 80}, {150, 240}}
	if len(sessEPs) != 2 || sessEPs[0] != wantSess[0] || sessEPs[1] != wantSess[1] {
		t.Errorf("session EPs = %v, want %v", sessEPs, wantSess)
	}
	// One trip closed by the marker at 180.
	if len(udEPs) != 1 || udEPs[0].start != 0 || udEPs[0].end != 180 {
		t.Errorf("user-defined EPs = %v, want [{0 180}]", udEPs)
	}
	sawSessionEP, sawUDEP := len(sessEPs) > 0, len(udEPs) > 0
	if total != 4 {
		t.Errorf("partials cover %d events, want 4", total)
	}
	if !sawSessionEP || !sawUDEP {
		t.Errorf("EPs: session=%v ud=%v", sawSessionEP, sawUDEP)
	}
	// Slice ids auto-increment (§5.1.1).
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Errorf("slice ids not consecutive: %v", ids)
		}
	}
}

// TestSliceEmitSkipsEmpty: punctuations without events ship nothing (the
// watermark carries progress).
func TestSliceEmitSkipsEmpty(t *testing.T) {
	q := query.MustParse("tumbling(10ms) sum key=0")
	q.ID = 1
	n := 0
	e := NewFromPlan(mustPlan(t, []query.Query{q}, plan.Options{Decentralized: true}), Config{OnSlice: func(p *SlicePartial) {
		if p.Ingested == 0 && len(p.EPs) == 0 {
			t.Errorf("empty partial [%d,%d) emitted", p.Start, p.End)
		}
		n++
	}})
	e.Process(event.Event{Time: 0, Value: 1})
	e.AdvanceTo(1000) // 100 empty punctuations after the single event
	if n != 1 {
		t.Errorf("emitted %d partials, want 1", n)
	}
}
