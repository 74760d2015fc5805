package node

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"desis/internal/core"
	"desis/internal/operator"
	"desis/internal/telemetry"
)

// Merger schedule ops, each fuzzOpLen bytes: the opcode (mod fuzzOps), then
// four argument bytes a, b, c, d. Children are 1+a%4 and groups b%groups.
const (
	opAligned    = iota // the child's next 100 ms slice of the group: children agree on it
	opSplit             // the next 100 ms cut at a point that depends on the child
	opExtent            // [10c, 10c+10(1+d%16)), any order: the binary-search path
	opOwnMark           // the child's watermark: the end of its slowest group
	opWatermark         // watermark 10b from the child, possibly behind its last
	opReplay            // the child resends its last 1+b%8 frames (a reconnect)
	opMembership        // a%3: AddChild(1+b%5), RemoveChild(1+b%5), Hold(1+b%4)
	fuzzOps
	fuzzOpLen = 5
)

// fuzzFrame is one frame a child sent, kept so a replay can resend it.
type fuzzFrame struct {
	partial    bool
	group      uint32
	start, end int64 // the extent, or end alone: the watermark
	val        byte
}

// fuzzPartial builds the partial a frame carries: sum, count and min/max of a
// value whose float sums round (so the merge order shows in the bits), and an
// EP on every fourth value (so EP concatenation order shows).
func fuzzPartial(f fuzzFrame) *core.SlicePartial {
	a := operator.NewAgg(operator.OpSum | operator.OpCount | operator.OpDSort)
	v := float64(f.val) / 7
	a.Add(v)
	a.Add(v / 3)
	a.Finish()
	p := &core.SlicePartial{
		Group: f.group, Start: f.start, End: f.end,
		Ingested: 1 + int64(f.val%3), Aggs: []operator.Agg{a},
	}
	if f.val%4 == 0 {
		p.EPs = []core.EP{{QueryIdx: int32(f.val % 2), Start: f.start, End: f.end}}
	}
	return p
}

// mergerOutput is one thing a merger forwarded, tagged with the schedule op
// that caused it.
type mergerOutput struct {
	op         int
	watermark  bool
	end, start int64
	desc       string
}

func describePartial(p *core.SlicePartial) string {
	s := fmt.Sprintf("g%d [%d,%d) ingested=%d eps=%v", p.Group, p.Start, p.End, p.Ingested, p.EPs)
	for _, a := range p.Aggs {
		s += fmt.Sprintf(" agg{ops=%d n=%d sum=%x min=%x max=%x}", a.Ops, a.CountV,
			math.Float64bits(a.SumV), math.Float64bits(a.MinV), math.Float64bits(a.MaxV))
	}
	return s
}

// canonical orders the partials one op flushed with equal (End, Start) by
// description: the reference orders those across groups by map iteration,
// so they compare as a multiset.
func canonical(outs []mergerOutput) []mergerOutput {
	for i := 0; i < len(outs); {
		j := i + 1
		for j < len(outs) && !outs[i].watermark && !outs[j].watermark && outs[j].op == outs[i].op &&
			outs[j].end == outs[i].end && outs[j].start == outs[i].start {
			j++
		}
		slices.SortFunc(outs[i:j], func(x, y mergerOutput) int { return cmp.Compare(x.desc, y.desc) })
		i = j
	}
	return outs
}

// FuzzMergerMatchesReference drives the Merger and the map-keyed reference
// (refMerger) through one schedule — 0–4 initial children, 1–3 groups,
// aligned and child-specific extents, replays, per-child watermarks,
// AddChild/RemoveChild and Hold — and requires the same merged partials,
// watermarks, duplicate drops and pending count from both.
func FuzzMergerMatchesReference(f *testing.F) {
	op := func(code, a, b, c, d byte) []byte { return []byte{code, a, b, c, d} }
	sched := func(children, groups byte, ops ...[]byte) []byte {
		return slices.Concat(append([][]byte{{children, groups}}, ops...)...)
	}
	// The TestMerger* scenarios.
	f.Add(sched(2, 0, // TestMergerAlignedSlices
		op(opExtent, 0, 0, 0, 9), op(opExtent, 1, 0, 0, 9),
		op(opWatermark, 0, 10, 0, 0), op(opWatermark, 1, 10, 0, 0)))
	f.Add(sched(2, 0, // TestMergerWatermarkFlushesMisaligned
		op(opExtent, 0, 0, 0, 5), op(opExtent, 0, 0, 6, 3), op(opExtent, 1, 0, 0, 9),
		op(opWatermark, 0, 10, 0, 0), op(opWatermark, 1, 10, 0, 0)))
	f.Add(sched(3, 0, // TestMergerRemoveChildUnblocks
		op(opExtent, 0, 0, 0, 9), op(opExtent, 1, 0, 0, 9),
		op(opWatermark, 0, 10, 0, 0), op(opWatermark, 1, 10, 0, 0), op(opMembership, 1, 2, 0, 0)))
	f.Add(sched(1, 0, // TestMergerAddChild
		op(opMembership, 0, 1, 0, 0), op(opExtent, 0, 0, 0, 9), op(opWatermark, 0, 10, 0, 0),
		op(opExtent, 1, 0, 0, 9), op(opWatermark, 1, 10, 0, 0)))
	f.Add(sched(0, 0, // TestMergerHoldsUntilAllJoined
		op(opMembership, 2, 1, 0, 0), op(opMembership, 0, 0, 0, 0), op(opExtent, 0, 0, 0, 9),
		op(opWatermark, 0, 10, 0, 0), op(opMembership, 1, 0, 0, 0), op(opMembership, 0, 1, 0, 0),
		op(opExtent, 1, 0, 0, 9), op(opWatermark, 1, 10, 0, 0)))
	f.Add(sched(2, 0, // TestMergerDropsReplayOfCompleteSlice
		op(opAligned, 0, 0, 1, 0), op(opAligned, 1, 0, 2, 0), op(opReplay, 0, 0, 0, 0),
		op(opOwnMark, 0, 0, 0, 0), op(opOwnMark, 1, 0, 0, 0), op(opReplay, 1, 0, 0, 0)))
	// A hold for three children, during which the first two's slice is
	// replayed and the second departs: the third's partial still merges into
	// it.
	f.Add(sched(0, 0,
		op(opMembership, 2, 2, 0, 0), op(opMembership, 0, 0, 0, 0), op(opMembership, 0, 1, 0, 0),
		op(opAligned, 0, 0, 1, 0), op(opAligned, 1, 0, 2, 0),
		op(opReplay, 0, 0, 0, 0), op(opOwnMark, 0, 0, 0, 0), op(opOwnMark, 1, 0, 0, 0),
		op(opMembership, 1, 1, 0, 0), op(opMembership, 0, 2, 0, 0), op(opAligned, 2, 0, 3, 0),
		op(opOwnMark, 2, 0, 0, 0), op(opOwnMark, 0, 0, 0, 0)))
	// Seeded random schedules, so plain `go test` covers replays and
	// misaligned runs across groups too.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		b := make([]byte, 2+fuzzOpLen*150)
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var initial []uint32
		for id := uint32(1); id <= uint32(data[0]%5); id++ {
			initial = append(initial, id)
		}
		groups := uint32(1 + data[1]%3)
		data = data[2:]
		if len(data) > 200*fuzzOpLen {
			data = data[:200*fuzzOpLen]
		}

		m, ref := NewMerger(initial), newRefMerger(initial)
		reg, refReg := telemetry.NewRegistry(), telemetry.NewRegistry()
		m.AttachTelemetry(reg, "merger")
		ref.AttachTelemetry(refReg, "ref")
		var got, want []mergerOutput
		step := 0
		m.Out = func(p *core.SlicePartial) {
			got = append(got, mergerOutput{op: step, end: p.End, start: p.Start, desc: describePartial(p)})
		}
		ref.Out = func(p *core.SlicePartial) {
			want = append(want, mergerOutput{op: step, end: p.End, start: p.Start, desc: describePartial(p)})
		}
		m.OutWatermark = func(w int64) { got = append(got, mergerOutput{op: step, watermark: true, end: w}) }
		ref.OutWatermark = func(w int64) { want = append(want, mergerOutput{op: step, watermark: true, end: w}) }

		history := map[uint32][]fuzzFrame{}
		cursor := map[[2]uint32]int64{} // (child, group) -> next aligned slice index
		deliver := func(from uint32, fr fuzzFrame) {
			if fr.partial {
				m.HandlePartial(from, fuzzPartial(fr))
				ref.HandlePartial(from, fuzzPartial(fr))
			} else {
				m.HandleWatermark(from, fr.end)
				ref.HandleWatermark(from, fr.end)
			}
		}
		send := func(from uint32, fr fuzzFrame) {
			history[from] = append(history[from], fr)
			deliver(from, fr)
		}
		for ; len(data) >= fuzzOpLen; data = data[fuzzOpLen:] {
			code, a, b, c, d := data[0]%fuzzOps, data[1], data[2], data[3], data[4]
			child, group := uint32(1+a%4), uint32(b)%groups
			val := c ^ d
			switch code {
			case opAligned, opSplit:
				k := cursor[[2]uint32{child, group}]
				cursor[[2]uint32{child, group}] = k + 1
				start, end := k*100, (k+1)*100
				if code == opSplit {
					cut := start + 10*int64(child)
					send(child, fuzzFrame{partial: true, group: group, start: start, end: cut, val: val})
					start = cut
				}
				send(child, fuzzFrame{partial: true, group: group, start: start, end: end, val: val})
			case opExtent:
				start := int64(c) * 10
				send(child, fuzzFrame{partial: true, group: group, start: start, end: start + 10*int64(1+d%16), val: val})
			case opOwnMark:
				w := int64(math.MaxInt64)
				for g := uint32(0); g < groups; g++ {
					w = min(w, cursor[[2]uint32{child, g}]*100)
				}
				send(child, fuzzFrame{end: w})
			case opWatermark:
				send(child, fuzzFrame{end: int64(b) * 10})
			case opReplay:
				h := history[child]
				for _, fr := range h[max(0, len(h)-1-int(b%8)):] {
					deliver(child, fr)
				}
			case opMembership:
				switch id := uint32(1 + b%5); a % 3 {
				case 0:
					m.AddChild(id)
					ref.AddChild(id)
				case 1:
					m.RemoveChild(id)
					ref.RemoveChild(id)
				default:
					m.Hold(int(1 + b%4))
					ref.Hold(int(1 + b%4))
				}
			}
			if m.Watermark() != ref.Watermark() || m.PartialsSent() != ref.PartialsSent() ||
				m.NumChildren() != ref.NumChildren() || m.pending != len(ref.pending) {
				t.Fatalf("op %d (%d): watermark %d, sent %d, children %d, pending %d; reference %d, %d, %d, %d",
					step, code, m.Watermark(), m.PartialsSent(), m.NumChildren(), m.pending,
					ref.Watermark(), ref.PartialsSent(), ref.NumChildren(), len(ref.pending))
			}
			step++
		}
		if g, w := reg.Counter("merge.dup_dropped").Load(), refReg.Counter("merge.dup_dropped").Load(); g != w {
			t.Errorf("merge.dup_dropped = %d, reference %d", g, w)
		}
		got, want = canonical(got), canonical(want)
		for i := range max(len(got), len(want)) {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				var g, w mergerOutput
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				t.Fatalf("output %d of %d (reference %d) differs:\n got  %+v\n want %+v", i, len(got), len(want), g, w)
			}
		}
	})
}
