package main

import (
	"runtime"

	"desis"
	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/node"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/window"
)

// Replay rows drive one stage of the pipeline in isolation, on inputs with
// the workload's real shape: the plan's operator unions, the segment's
// events, the frames and partials captured from the traced run. Every row is
// the median of replayPasses passes.
const replayPasses = 5

// opCost is what one replayed operation costs.
type opCost struct {
	Ns, Allocs, Bytes float64
	N                 int // operations per pass
}

// measure runs pass replayPasses times and reports the median cost per
// operation; pass returns how many operations it performed. prepare, when
// set, runs before each pass, outside the timing.
func measure(prepare func(), pass func() int) opCost {
	var ns, allocs, bytes []float64
	n := 0
	for i := 0; i < replayPasses; i++ {
		if prepare != nil {
			prepare()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := nowNs()
		n = pass()
		t1 := nowNs()
		runtime.ReadMemStats(&m1)
		if n == 0 {
			return opCost{}
		}
		ns = append(ns, float64(t1-t0)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
	}
	return opCost{Ns: median(ns), Allocs: median(allocs), Bytes: median(bytes), N: n}
}

// sinkAgg keeps replayed aggregates alive so the compiler cannot drop the
// work.
var sinkAgg operator.Agg

// replayAggAdd folds the segment's events into one aggregate per selection
// context of every raw-ingesting group of the plan, exactly as the slicing
// loop would route them, and reports the cost of one Agg.Add call and how
// many Add calls an event causes. Aggregates reset every eventsPerSlice
// events of their group, so retained-value buffers grow as in a real slice.
func replayAggAdd(p *plan.Plan, evs []desis.Event, eventsPerSlice int) (cost opCost, addsPerEvent float64) {
	type target struct {
		agg   int
		value float64
	}
	var aggs []operator.Agg
	var ops []operator.Op
	byKey := map[uint32][][2]int{} // key -> (group index, first agg index)
	for gi, g := range p.Groups {
		if g.Fed() {
			continue
		}
		byKey[g.Key] = append(byKey[g.Key], [2]int{gi, len(aggs)})
		for range g.Contexts {
			aggs = append(aggs, operator.NewAgg(g.Ops))
			ops = append(ops, g.Ops)
		}
	}
	var targets []target
	for _, ev := range evs {
		if ev.Marker != event.MarkerNone {
			continue
		}
		for _, ga := range byKey[ev.Key] {
			for c, pred := range p.Groups[ga[0]].Contexts {
				if pred.Matches(ev.Value) {
					targets = append(targets, target{agg: ga[1] + c, value: ev.Value})
				}
			}
		}
	}
	if len(targets) == 0 || len(evs) == 0 {
		return opCost{}, 0
	}
	resetEvery := max(eventsPerSlice*len(targets)/len(evs), 1)
	cost = measure(func() {
		for i := range aggs {
			aggs[i].Reset(ops[i])
		}
	}, func() int {
		left := resetEvery
		for _, t := range targets {
			aggs[t.agg].Add(t.value)
			if left--; left == 0 {
				left = resetEvery
				for j := range aggs {
					aggs[j].Reset(ops[j])
				}
			}
		}
		return len(targets)
	})
	sinkAgg = aggs[0]
	return cost, float64(len(targets)) / float64(len(evs))
}

// replayAggMerge merges the captured slice aggregates into a scratch
// aggregate the way window assembly does, a window's worth at a time.
func replayAggMerge(partials []*core.SlicePartial, slicesPerWindow int) opCost {
	var aggs []*operator.Agg
	for _, p := range partials {
		for i := range p.Aggs {
			aggs = append(aggs, &p.Aggs[i])
		}
	}
	if len(aggs) == 0 {
		return opCost{}
	}
	slicesPerWindow = max(slicesPerWindow, 1)
	var scratch operator.Agg
	cost := measure(nil, func() int {
		for i, a := range aggs {
			if i%slicesPerWindow == 0 {
				scratch.Reset(a.Ops)
				scratch.Sorted = true
			}
			scratch.Merge(a)
		}
		return len(aggs)
	})
	sinkAgg = scratch
	return cost
}

// capturePartials runs the stream's first lap through a slice-emitting engine
// built from the workload's plan until it has shipped limit slice partials,
// and keeps deep copies of them: the engine workloads' stand-in for the
// frames a tree's wrappers capture.
func capturePartials(p *plan.Plan, src *source, limit int) []*core.SlicePartial {
	var out []*core.SlicePartial
	var eng *core.Engine
	eng = core.NewFromPlan(p.Clone(), core.Config{OnSlice: func(sp *core.SlicePartial) {
		if len(out) < limit {
			out = append(out, sp.Clone())
		}
		eng.RecyclePartial(sp)
	}})
	for g := 0; g < src.batches() && len(out) < limit; g++ {
		eng.ProcessBatch(src.batch(g))
	}
	return out
}

var sinkInt int64

// replayCalendar asks each group's calendar of fixed time windows for its
// next boundary, once per millisecond of a minute of event time.
func replayCalendar(p *plan.Plan) opCost {
	var cals []*window.Calendar
	for _, g := range p.Groups {
		var c window.Calendar
		for i, q := range g.Queries {
			if q.Measure != desis.Time {
				continue
			}
			switch q.Type {
			case desis.Tumbling:
				c.Add(i, q.Length, q.Length)
			case desis.Sliding:
				c.Add(i, q.Length, q.Slide)
			}
		}
		if !c.Empty() {
			cals = append(cals, &c)
		}
	}
	if len(cals) == 0 {
		return opCost{}
	}
	return measure(nil, func() int {
		n := 0
		for _, c := range cals {
			for t := int64(0); t < 60_000; t++ {
				sinkInt += c.NextBoundary(t)
				n++
			}
		}
		return n
	})
}

// replayReorderer runs the stream through the workload's reorderer alone,
// its output discarded: what the reorder buffer costs per event without the
// engine behind it.
func replayReorderer(w *workload, evs []desis.Event) opCost {
	return measure(nil, func() int {
		r := desis.NewReordererWithHorizon(w.ReorderLatenessMs, w.ReorderHorizonMs, func(ev desis.Event) { sinkInt += ev.Time })
		for _, ev := range evs {
			r.Process(ev)
		}
		return len(evs)
	})
}

var sinkBytes []byte

// replayEventCodec encodes and decodes raw-event batches of the forwarding
// size (256 events).
func replayEventCodec(evs []desis.Event) opCost {
	const per = 256
	n := len(evs) / per * per
	if n == 0 {
		return opCost{}
	}
	var buf []byte
	var dst []event.Event
	return measure(nil, func() int {
		for i := 0; i < n; i += per {
			buf = event.AppendBatch(buf[:0], evs[i:i+per])
			dst, _, _ = event.DecodeBatch(buf, dst[:0]) // the bytes were just written by AppendBatch
		}
		sinkBytes = buf
		return n
	})
}

// codecCosts is the replayed wire codec.
type codecCosts struct {
	Encode, Decode opCost
	MeanBytes      float64
}

// replayMessageCodec encodes and decodes the captured frames with the binary
// codec the links use.
func replayMessageCodec(framesIn []*message.Message) codecCosts {
	if len(framesIn) == 0 {
		return codecCosts{}
	}
	codec := message.Binary{}
	encoded := make([][]byte, len(framesIn))
	var total int
	for i, m := range framesIn {
		b, err := codec.Append(nil, m)
		if err != nil {
			return codecCosts{}
		}
		encoded[i] = b
		total += len(b)
	}
	var cc codecCosts
	cc.MeanBytes = float64(total) / float64(len(framesIn))
	cc.Encode = measure(nil, func() int {
		for _, m := range framesIn {
			b, _ := codec.Append(nil, m) // encodable: checked above
			sinkBytes = b
		}
		return len(framesIn)
	})
	cc.Decode = measure(nil, func() int {
		for _, b := range encoded {
			if m, err := codec.Decode(b); err == nil {
				sinkInt += int64(m.Kind)
			}
		}
		return len(encoded)
	})
	return cc
}

// unbatched flattens captured wire frames into the partial, watermark and
// event frames a node handles.
func unbatched(wire []*message.Message) []*message.Message {
	var out []*message.Message
	for _, m := range wire {
		out = append(out, frames(m)...)
	}
	return out
}

// replayMerger pushes the partials captured on the locals' links through a
// fresh Merger. The merger keeps and mutates what it is given, so every pass
// works on fresh copies, made outside the timing.
func replayMerger(perLocal [][]*message.Message) opCost {
	type in struct {
		from uint32
		m    *message.Message
	}
	var seq []in
	var children []uint32
	for i, fs := range perLocal {
		children = append(children, uint32(1+i))
		for _, m := range unbatched(fs) {
			if m.Kind == message.KindPartial {
				seq = append(seq, in{from: uint32(1 + i), m: m})
			}
		}
	}
	if len(seq) == 0 {
		return opCost{}
	}
	var fresh []*core.SlicePartial
	return measure(func() {
		fresh = fresh[:0]
		for _, s := range seq {
			fresh = append(fresh, s.m.Partial.Clone())
		}
	}, func() int {
		mg := node.NewMerger(children)
		mg.Out = func(p *core.SlicePartial) { sinkInt += p.End }
		for i, s := range seq {
			mg.HandlePartial(s.from, fresh[i])
		}
		return len(seq)
	})
}

// assemblerCosts is the replayed root assembly stage.
type assemblerCosts struct {
	AddPartial opCost
	// AdvanceNs and AdvanceAllocs are per emitted window.
	AdvanceNs, AdvanceAllocs float64
	Windows                  int
}

// replayAssembler feeds the frames captured on the intermediate's link — the
// merged partials and watermarks the root saw — through a fresh Assembler.
func replayAssembler(p *plan.Plan, wire []*message.Message) assemblerCosts {
	fs := unbatched(wire)
	var ac assemblerCosts
	var addNs, advNs, advAllocs []float64
	nPartials, windows := 0, 0
	for pass := 0; pass < replayPasses; pass++ {
		fresh := make([]*core.SlicePartial, len(fs))
		for i, m := range fs {
			if m.Kind == message.KindPartial {
				fresh[i] = m.Partial.Clone()
			}
		}
		windows, nPartials = 0, 0
		asm := node.NewAssembler(p.Clone().Groups, func(core.Result) { windows++ })
		var add, adv int64
		var mallocs uint64
		for i, m := range fs {
			switch m.Kind {
			case message.KindPartial:
				t0 := nowNs()
				asm.AddPartial(fresh[i])
				add += nowNs() - t0
				nPartials++
			case message.KindWatermark:
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := nowNs()
				asm.AdvanceTo(m.Watermark)
				adv += nowNs() - t0
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
			}
		}
		if nPartials == 0 || windows == 0 {
			return assemblerCosts{}
		}
		addNs = append(addNs, float64(add)/float64(nPartials))
		advNs = append(advNs, float64(adv)/float64(windows))
		advAllocs = append(advAllocs, float64(mallocs)/float64(windows))
	}
	ac.AddPartial = opCost{Ns: median(addNs), N: nPartials}
	ac.AdvanceNs, ac.AdvanceAllocs, ac.Windows = median(advNs), median(advAllocs), windows
	return ac
}
