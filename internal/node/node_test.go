package node

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/gen"
	"desis/internal/message"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// --- Merger unit tests ---

func mkPartial(group uint32, start, end int64, sum float64, n int64) *core.SlicePartial {
	a := operator.NewAgg(operator.OpSum | operator.OpCount)
	a.SumV = sum
	a.CountV = n
	a.Finish()
	return &core.SlicePartial{
		Group: group, Start: start, End: end, Ingested: n,
		Aggs: []operator.Agg{a},
	}
}

// TestMergerAlignedSlices: two children's partials of one extent merge into
// one, which leaves only when the merged watermark passes it — not when the
// last child has contributed — and right before that watermark.
func TestMergerAlignedSlices(t *testing.T) {
	m := NewMerger([]uint32{1, 2})
	var out []*core.SlicePartial
	var wms []int64
	m.Out = func(p *core.SlicePartial) { out = append(out, p) }
	m.OutWatermark = func(w int64) {
		if len(out) != 1 {
			t.Errorf("watermark %d forwarded with %d partials before it, want 1", w, len(out))
		}
		wms = append(wms, w)
	}
	m.HandlePartial(1, mkPartial(0, 0, 100, 10, 2))
	m.HandlePartial(2, mkPartial(0, 0, 100, 20, 3))
	m.HandleWatermark(1, 100)
	if len(out) != 0 {
		t.Fatal("emitted before the merged watermark passed the slice")
	}
	m.HandleWatermark(2, 100)
	if len(out) != 1 || len(wms) != 1 {
		t.Fatalf("emitted %d partials and watermarks %v, want 1 and [100]", len(out), wms)
	}
	p := out[0]
	if p.Aggs[0].SumV != 30 || p.Aggs[0].CountV != 5 || p.Ingested != 5 {
		t.Errorf("merged partial = %+v", p)
	}
}

// TestMergerDropsReplayOfCompleteSlice: a replayed duplicate of a slice every
// child has contributed to, but that the watermark has not passed yet, is
// dropped, and the slice leaves once, at the watermark.
func TestMergerDropsReplayOfCompleteSlice(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMerger([]uint32{1, 2})
	m.AttachTelemetry(reg, "inter")
	var out []*core.SlicePartial
	m.Out = func(p *core.SlicePartial) { out = append(out, p) }
	m.HandlePartial(1, mkPartial(0, 0, 100, 1, 1))
	m.HandlePartial(2, mkPartial(0, 0, 100, 2, 1))
	m.HandlePartial(1, mkPartial(0, 0, 100, 1, 1)) // child 1 reconnects and replays
	if got := reg.Counter("merge.dup_dropped").Load(); got != 1 {
		t.Fatalf("merge.dup_dropped = %d after the replay, want 1", got)
	}
	m.HandleWatermark(1, 100)
	m.HandleWatermark(2, 100)
	m.HandlePartial(2, mkPartial(0, 0, 100, 2, 1)) // a replay behind the watermark
	m.HandleWatermark(1, 200)
	m.HandleWatermark(2, 200)
	if len(out) != 1 || out[0].Aggs[0].SumV != 3 {
		t.Fatalf("forwarded %v, want the slice once with sum 3", out)
	}
	if got := reg.Counter("merge.dup_dropped").Load(); got != 2 {
		t.Fatalf("merge.dup_dropped = %d after both replays, want 2", got)
	}
}

func TestMergerWatermarkFlushesMisaligned(t *testing.T) {
	m := NewMerger([]uint32{1, 2})
	var out []*core.SlicePartial
	var wms []int64
	m.Out = func(p *core.SlicePartial) { out = append(out, p) }
	m.OutWatermark = func(w int64) { wms = append(wms, w) }
	// Child 1 cut at a session start (dynamic): extents differ.
	m.HandlePartial(1, mkPartial(0, 0, 60, 5, 1))
	m.HandlePartial(1, mkPartial(0, 60, 100, 7, 1))
	m.HandlePartial(2, mkPartial(0, 0, 100, 9, 2))
	if len(out) != 0 {
		t.Fatal("misaligned slices merged")
	}
	m.HandleWatermark(1, 100)
	if len(out) != 0 {
		t.Fatal("flushed before min watermark advanced")
	}
	m.HandleWatermark(2, 100)
	if len(out) != 3 {
		t.Fatalf("flushed %d partials, want 3", len(out))
	}
	// Flush order: by (End, Start).
	if out[0].End != 60 || out[1].End != 100 || out[2].End != 100 {
		t.Errorf("flush order: %v %v %v", out[0].End, out[1].End, out[2].End)
	}
	if out[1].Start > out[2].Start {
		t.Error("equal-End flush not ordered by Start")
	}
	if len(wms) != 1 || wms[0] != 100 {
		t.Errorf("watermarks forwarded: %v", wms)
	}
}

func TestMergerRemoveChildUnblocks(t *testing.T) {
	m := NewMerger([]uint32{1, 2, 3})
	var out []*core.SlicePartial
	m.Out = func(p *core.SlicePartial) { out = append(out, p) }
	m.HandlePartial(1, mkPartial(0, 0, 100, 1, 1))
	m.HandlePartial(2, mkPartial(0, 0, 100, 2, 1))
	m.HandleWatermark(1, 100)
	m.HandleWatermark(2, 100)
	if len(out) != 0 {
		t.Fatal("emitted while child 3 still expected")
	}
	// Child 3 dies (§3.2): the pending slice completes without it.
	m.RemoveChild(3)
	if len(out) != 1 || out[0].Aggs[0].SumV != 3 {
		t.Fatalf("after RemoveChild: %v", out)
	}
	if m.NumChildren() != 2 {
		t.Errorf("NumChildren = %d", m.NumChildren())
	}
}

// TestMergerAddChild: a child joining at runtime holds the merged watermark
// back until it advances too, and its partial merges into the slice.
func TestMergerAddChild(t *testing.T) {
	m := NewMerger([]uint32{1})
	var out []*core.SlicePartial
	m.Out = func(p *core.SlicePartial) { out = append(out, p) }
	m.AddChild(2)
	m.HandlePartial(1, mkPartial(0, 0, 100, 1, 1))
	m.HandleWatermark(1, 100)
	if len(out) != 0 {
		t.Fatal("slice left while the new child's watermark was behind it")
	}
	m.HandlePartial(2, mkPartial(0, 0, 100, 2, 1))
	m.HandleWatermark(2, 100)
	if len(out) != 1 || out[0].Aggs[0].SumV != 3 {
		t.Fatalf("forwarded %v, want one partial with sum 3", out)
	}
}

// TestMergerPendingGauge: merge.pending counts the slices waiting for a
// child. A child that sends partials but never advances holds the merged
// watermark, so its slices pile up while its sibling's watermarks step on;
// removing it flushes them and the gauge returns to 0.
func TestMergerPendingGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMerger([]uint32{1, 2})
	m.AttachTelemetry(reg, "inter")
	out := 0
	m.Out = func(*core.SlicePartial) { out++ }
	g := reg.Gauge("merge.pending")
	for i := int64(0); i < 5; i++ {
		m.HandlePartial(2, mkPartial(0, i*100, (i+1)*100, 1, 1))
		m.HandleWatermark(1, (i+1)*100)
		if got := g.Load(); got != i+1 {
			t.Fatalf("after %d slices from the stalled child: merge.pending = %d, want %d", i+1, got, i+1)
		}
	}
	m.RemoveChild(2)
	if got := g.Load(); got != 0 || out != 5 {
		t.Fatalf("after RemoveChild: merge.pending = %d and %d partials forwarded, want 0 and 5", got, out)
	}
}

// TestMergerLatencySampled: merge.latency times one merged slice in
// mergeLatencySample, starting with the first, when the watermark releases
// it.
func TestMergerLatencySampled(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMerger([]uint32{1})
	m.AttachTelemetry(reg, "inter")
	for i := int64(0); i <= 2*mergeLatencySample; i++ {
		m.HandlePartial(1, mkPartial(0, i*100, (i+1)*100, 1, 1))
		if got := reg.Histogram("merge.latency").Export().Count; got != uint64((i+mergeLatencySample-1)/mergeLatencySample) {
			t.Fatalf("slice %d timed before the watermark released it: %d latency samples", i+1, got)
		}
		m.HandleWatermark(1, (i+1)*100)
		if want := uint64(1 + i/mergeLatencySample); reg.Histogram("merge.latency").Export().Count != want {
			t.Fatalf("after %d merged slices: %d latency samples, want %d", i+1, reg.Histogram("merge.latency").Export().Count, want)
		}
	}
}

// TestChildStreamRefusesPlanAndControlKinds: plan changes and control
// commands never travel up a child's data stream. A root and an intermediate
// refuse each of them, alone or inside a batch, and take the handshake and
// liveness kinds as carrying nothing.
func TestChildStreamRefusesPlanAndControlKinds(t *testing.T) {
	p, err := plan.New([]query.Query{mustQuery(t, "tumbling(100ms) sum key=0")}, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	root := NewRootFromPlan(p, []uint32{1}, func(core.Result) {})
	up, down := message.NewPipe(message.Binary{}, 4)
	defer down.Close()
	inter := NewIntermediate(100, []uint32{1}, up)
	parents := []struct {
		name   string
		handle func(*message.Message) error
	}{{"root", root.Handle}, {"intermediate", inter.Handle}}
	for _, k := range []message.Kind{
		message.KindPlanState, message.KindPlanDelta, message.KindAddQuery,
		message.KindRemoveQuery, message.KindPlanDump, message.KindStatsDump,
	} {
		for _, pt := range parents {
			for _, m := range []*message.Message{
				{Kind: k, From: 1},
				{Kind: message.KindBatch, From: 1, Batch: &message.Batch{Frames: []*message.Message{{Kind: k, From: 1}}}},
			} {
				if err := pt.handle(m); err == nil || !strings.Contains(err.Error(), "cannot handle message kind") {
					t.Errorf("%s handling kind %d (batched: %v) on a child stream: %v, want a refusal", pt.name, k, m.Kind == message.KindBatch, err)
				}
			}
		}
	}
	for _, k := range []message.Kind{message.KindHello, message.KindHeartbeat, message.KindGoodbye} {
		for _, pt := range parents {
			if err := pt.handle(&message.Message{Kind: k, From: 1}); err != nil {
				t.Errorf("%s handling kind %d: %v, want nil", pt.name, k, err)
			}
		}
	}
}

// TestMergerDropsIdleRuns: a group no child sends again (a removed query's,
// or an id a hostile child made up) keeps no state past maxIdleSteps
// watermark steps, while a group that keeps sending keeps its run.
func TestMergerDropsIdleRuns(t *testing.T) {
	m := NewMerger([]uint32{1})
	for g := uint32(1); g <= 1000; g++ {
		m.HandlePartial(1, mkPartial(g, 0, 100, 1, 1))
	}
	for i := int64(1); i <= maxIdleSteps+1; i++ {
		m.HandlePartial(1, mkPartial(0, i*100, (i+1)*100, 1, 1))
		m.HandleWatermark(1, (i+1)*100)
	}
	if len(m.runs) != 1 || m.runs[0] == nil {
		t.Fatalf("%d extent runs after %d watermark steps without partials for 1000 groups, want group 0's alone", len(m.runs), maxIdleSteps+1)
	}
}

// TestMergerHoldsUntilAllJoined: a merger told to expect two children lets
// nothing the first one sends advance the merged watermark — not its
// watermark, not even its departure — until the second has joined, so its
// slices stay pending for the second child's contribution.
func TestMergerHoldsUntilAllJoined(t *testing.T) {
	m := NewMerger(nil)
	m.Hold(2)
	var out []*core.SlicePartial
	var wms []int64
	m.Out = func(p *core.SlicePartial) { out = append(out, p) }
	m.OutWatermark = func(w int64) { wms = append(wms, w) }

	m.AddChild(1)
	m.HandlePartial(1, mkPartial(0, 0, 100, 1, 1))
	m.HandleWatermark(1, 100)
	m.RemoveChild(1) // streamed everything and left before its sibling came
	if len(out) != 0 || len(wms) != 0 {
		t.Fatalf("forwarded %d partials and watermarks %v with one of two children seen", len(out), wms)
	}
	m.AddChild(2)
	m.HandlePartial(2, mkPartial(0, 0, 100, 2, 1))
	if len(out) != 0 {
		t.Fatalf("forwarded %d partials before the second child's watermark", len(out))
	}
	m.HandleWatermark(2, 100)
	if len(out) != 1 || out[0].Aggs[0].SumV != 3 {
		t.Fatalf("after the second child's watermark: %v, want one partial with sum 3", out)
	}
	if len(wms) != 1 || wms[0] != 100 {
		t.Fatalf("watermarks %v, want [100]", wms)
	}
}

// --- Cluster vs central-engine equivalence ---

// splitStream deals a global stream round-robin to n locals; marker events
// are replicated to every local (each generator emits the boundary), which
// is how the paper's setup distributes user-defined events.
func splitStream(evs []event.Event, n int) [][]event.Event {
	out := make([][]event.Event, n)
	i := 0
	for _, ev := range evs {
		if ev.Marker != event.MarkerNone {
			for j := range out {
				out[j] = append(out[j], ev)
			}
			continue
		}
		out[i%n] = append(out[i%n], ev)
		i++
	}
	return out
}

// centralResults runs the plain central engine over the global stream.
func centralResults(t *testing.T, queries []query.Query, evs []event.Event, advTo int64) []core.Result {
	t.Helper()
	p, err := plan.New(queries, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewFromPlan(p, core.Config{})
	e.ProcessBatch(evs)
	e.AdvanceTo(advTo)
	return e.Results()
}

// clusterResults runs the same queries on an in-process topology.
func clusterResults(t *testing.T, queries []query.Query, evs []event.Event, advTo int64, locals, inters int) []core.Result {
	t.Helper()
	p, err := plan.New(queries, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(p, ClusterConfig{Locals: locals, Intermediates: inters})
	streams := splitStream(evs, locals)
	// Push in chunks with watermark advances in between, as generators do.
	const chunk = 40
	for off := 0; ; off += chunk {
		busy := false
		var maxT int64
		for i, s := range streams {
			if off >= len(s) {
				continue
			}
			hi := off + chunk
			if hi > len(s) {
				hi = len(s)
			}
			if err := c.Push(i, s[off:hi]); err != nil {
				t.Fatal(err)
			}
			if tm := s[hi-1].Time; tm > maxT {
				maxT = tm
			}
			busy = true
		}
		if !busy {
			break
		}
		if err := c.AdvanceAll(maxT); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AdvanceAll(advTo); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return c.Results()
}

// resultKey names a window result up to its values: query, key and bounds.
func resultKey(r core.Result) string {
	return fmt.Sprintf("q%d k%d [%d,%d)", r.QueryID, r.Key, r.Start, r.End)
}

// compareResultSets checks that got and want are the same multiset of
// results on (QueryID, Key, Start, End, Count, values): a duplicated window
// or a wrong key fails it as surely as a wrong value.
func compareResultSets(t *testing.T, got, want []core.Result) {
	t.Helper()
	byKey := func(rs []core.Result) map[string][]core.Result {
		m := make(map[string][]core.Result, len(rs))
		for _, r := range rs {
			m[resultKey(r)] = append(m[resultKey(r)], r)
		}
		return m
	}
	gm, wm := byKey(got), byKey(want)
	for k, ws := range wm {
		gs := gm[k]
		if len(gs) != len(ws) {
			t.Errorf("%s: %d results, want %d (want count %d)", k, len(gs), len(ws), ws[0].Count)
			continue
		}
		// Each wanted result claims one equal, unclaimed result.
		used := make([]bool, len(gs))
		for _, w := range ws {
			diff := "no result left unclaimed"
			for j, g := range gs {
				if used[j] {
					continue
				}
				if diff = resultDiff(g, w); diff == "" {
					used[j] = true
					break
				}
			}
			if diff != "" {
				t.Errorf("%s: %s", k, diff)
			}
		}
	}
	for k, gs := range gm {
		if _, ok := wm[k]; !ok {
			t.Errorf("extra result %s (count %d)", k, gs[0].Count)
		}
	}
}

// resultDiff describes how g's count and values differ from w's, or returns
// "" when they agree (values to a relative 1e-9).
func resultDiff(g, w core.Result) string {
	if g.Count != w.Count {
		return fmt.Sprintf("count = %d, want %d", g.Count, w.Count)
	}
	if len(g.Values) != len(w.Values) {
		return fmt.Sprintf("%d values, want %d", len(g.Values), len(w.Values))
	}
	for i, wv := range w.Values {
		gv := g.Values[i]
		if gv.OK != wv.OK {
			return fmt.Sprintf("%v: ok = %v, want %v", wv.Spec, gv.OK, wv.OK)
		}
		if wv.OK && math.Abs(gv.Value-wv.Value) > 1e-9*(1+math.Abs(wv.Value)) {
			return fmt.Sprintf("%v: value = %g, want %g", wv.Spec, gv.Value, wv.Value)
		}
	}
	return ""
}

// globalStream builds a strictly increasing timeline with occasional
// markers (deduplicated: one per boundary time).
func globalStream(rng *rand.Rand, n int) []event.Event {
	evs := make([]event.Event, 0, n)
	tm := int64(3)
	for i := 0; i < n; i++ {
		tm += 1 + int64(rng.Intn(12))
		ev := event.Event{Time: tm, Value: rng.Float64() * 100}
		if rng.Intn(41) == 0 {
			ev.Marker = event.MarkerBoundary
			ev.Value = 0
		}
		evs = append(evs, ev)
	}
	return evs
}

func mixedQueries(t *testing.T) []query.Query {
	t.Helper()
	specs := []string{
		"tumbling(100ms) average key=0",
		"sliding(150ms,50ms) sum key=0",
		"tumbling(200ms) median key=0",
		"session(60ms) count,max key=0",
		"userdefined max,count key=0",
		"tumbling(16ev) sum key=0",
		"tumbling(500ms) quantile(0.9) key=0",
	}
	var qs []query.Query
	for i, s := range specs {
		q := query.MustParse(s)
		q.ID = uint64(i + 1)
		qs = append(qs, q)
	}
	return qs
}

func TestClusterMatchesCentralDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	evs := globalStream(rng, 600)
	queries := mixedQueries(t)
	adv := evs[len(evs)-1].Time + 2000
	want := centralResults(t, queries, evs, adv)
	got := clusterResults(t, queries, evs, adv, 3, 0)
	compareResultSets(t, got, want)
}

func TestClusterMatchesCentralWithIntermediates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := globalStream(rng, 600)
	queries := mixedQueries(t)
	adv := evs[len(evs)-1].Time + 2000
	want := centralResults(t, queries, evs, adv)
	got := clusterResults(t, queries, evs, adv, 4, 2)
	compareResultSets(t, got, want)
}

func TestClusterSingleLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	evs := globalStream(rng, 300)
	queries := mixedQueries(t)
	adv := evs[len(evs)-1].Time + 2000
	want := centralResults(t, queries, evs, adv)
	got := clusterResults(t, queries, evs, adv, 1, 1)
	compareResultSets(t, got, want)
}

func TestClusterRandomizedQuick(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed*31 + 5))
		evs := globalStream(rng, 250)
		queries := mixedQueries(t)
		adv := evs[len(evs)-1].Time + 2000
		want := centralResults(t, queries, evs, adv)
		got := clusterResults(t, queries, evs, adv, 1+int(seed%4), int(seed%3))
		if t.Failed() {
			t.Fatalf("seed %d failed", seed)
		}
		compareResultSets(t, got, want)
		if t.Failed() {
			t.Fatalf("seed %d mismatched", seed)
		}
	}
}

// --- Network accounting ---

func TestClusterNetworkReduction(t *testing.T) {
	// Figure 11a: a decomposable query's partials are a tiny fraction of
	// the raw stream; a median query must ship every value (Figure 11b).
	rng := rand.New(rand.NewSource(13))
	evs := make([]event.Event, 20000)
	tm := int64(0)
	for i := range evs {
		tm += 1
		evs[i] = event.Event{Time: tm, Value: rng.Float64()}
	}
	run := func(spec string) uint64 {
		q := query.MustParse(spec)
		q.ID = 1
		p, err := plan.New([]query.Query{q}, plan.Options{Decentralized: true})
		if err != nil {
			t.Fatal(err)
		}
		c := NewCluster(p, ClusterConfig{Locals: 2, Intermediates: 1})
		streams := splitStream(evs, 2)
		for i, s := range streams {
			if err := c.Push(i, s); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.AdvanceAll(tm + 10000); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		local, _ := c.NetworkBytes()
		return local
	}
	avgBytes := run("tumbling(1000ms) average key=0")
	medBytes := run("tumbling(1000ms) median key=0")
	rawBytes := uint64(len(event.AppendBatch(nil, evs)))
	if avgBytes > rawBytes/20 {
		t.Errorf("decomposable traffic %d bytes, want < 5%% of raw %d", avgBytes, rawBytes)
	}
	// Median partials ship every value (8 bytes each: full-precision
	// values). The raw event batch spends about as much, its time, key and
	// marker columns being runs here, so the ratio is near one.
	if medBytes < rawBytes/3 {
		t.Errorf("median traffic %d bytes, want at least a third of raw %d", medBytes, rawBytes)
	}
	if medBytes < 10*avgBytes {
		t.Errorf("median traffic %d not >> decomposable traffic %d", medBytes, avgBytes)
	}
}

// TestClusterBatchThrottledLink pins the uplink batcher's case on a slow
// link: 16 sliding queries (one per key; the stream carries key 0) on two
// locals whose links are throttled to 1 Mbps (125 kB/s), so the partials of
// a 100 ms slide queue behind the link. Batching must leave the root's
// windows unchanged and at least halve the locals' wire bytes; outside
// -race, where the detector's overhead can outweigh the link, it must also
// ingest faster.
func TestClusterBatchThrottledLink(t *testing.T) {
	qs := make([]query.Query, 16)
	for i := range qs {
		qs[i] = query.MustParse(fmt.Sprintf("sliding(1000ms,100ms) sum key=%d", i))
		qs[i].ID = uint64(i + 1)
	}
	const locals, perLocal = 2, 20_000
	type leg struct {
		results []core.Result
		bytes   uint64
		rate    float64
	}
	run := func(batch bool) leg {
		p, err := plan.New(qs, plan.Options{Decentralized: true})
		if err != nil {
			t.Fatal(err)
		}
		c := NewCluster(p, ClusterConfig{Locals: locals, Bandwidth: 125_000, Batch: batch})
		// Each local ingests from its own goroutine, as a deployed local
		// would, advancing every 8 batches of 512 events.
		start := time.Now()
		ends := make([]int64, locals)
		errs := make(chan error, locals)
		for i := range ends {
			go func(i int) {
				s := gen.NewStream(gen.StreamConfig{Seed: 11 + int64(i)*7919, IntervalMS: 1})
				var buf []event.Event
				for sent, batches := 0, 1; sent < perLocal; sent, batches = sent+512, batches+1 {
					buf = s.NextBatch(buf[:0], min(512, perLocal-sent))
					if err := c.Push(i, buf); err != nil {
						errs <- err
						return
					}
					if batches%8 == 0 {
						if err := c.Advance(i, s.Now()); err != nil {
							errs <- err
							return
						}
					}
				}
				ends[i] = s.Now()
				errs <- nil
			}(i)
		}
		for range ends {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		end := max(ends[0], ends[1])
		if err := c.AdvanceAll(end + 120_000); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		local, _ := c.NetworkBytes()
		return leg{c.Results(), local, locals * perLocal / time.Since(start).Seconds()}
	}
	plain, batched := run(false), run(true)
	t.Logf("local bytes %d -> %d, events/s %.0f -> %.0f", plain.bytes, batched.bytes, plain.rate, batched.rate)
	if len(plain.results) == 0 {
		t.Fatal("the unbatched cluster emitted no windows")
	}
	compareResultSets(t, batched.results, plain.results)
	if 2*batched.bytes > plain.bytes {
		t.Errorf("batching sent %d local bytes against %d unbatched, want at most half", batched.bytes, plain.bytes)
	}
	if !raceBuild && batched.rate <= plain.rate {
		t.Errorf("batching ingested %.0f events/s against %.0f unbatched on a throttled link", batched.rate, plain.rate)
	}
}

// --- Runtime query management on a topology ---

func TestClusterAddRemoveQuery(t *testing.T) {
	base := query.MustParse("tumbling(100ms) sum key=0")
	base.ID = 1
	p, err := plan.New([]query.Query{base}, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(p, ClusterConfig{Locals: 2, Intermediates: 1})
	evs := make([]event.Event, 0, 60)
	for i := 0; i < 60; i++ {
		evs = append(evs, event.Event{Time: int64(i * 10), Value: 1})
	}
	streams := splitStream(evs, 2)
	half := len(streams[0]) / 2
	for i := range streams {
		if err := c.Push(i, streams[i][:half]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AdvanceAll(290); err != nil {
		t.Fatal(err)
	}
	added := query.MustParse("tumbling(200ms) count key=0")
	added.ID = 2
	if err := c.AddQuery(added); err != nil {
		t.Fatal(err)
	}
	for i := range streams {
		if err := c.Push(i, streams[i][half:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AdvanceAll(1200); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var q1, q2 int
	for _, r := range c.Results() {
		switch r.QueryID {
		case 1:
			q1++
		case 2:
			q2++
			if r.Start < 290 {
				t.Errorf("added query answered window starting %d before registration", r.Start)
			}
			want := 0
			for _, e := range evs {
				if e.Time >= r.Start && e.Time < r.End {
					want++
				}
			}
			if r.Count != int64(want) || len(r.Values) != 1 || r.Values[0].Value != float64(want) {
				t.Errorf("added query window %s: count %d, values %v, want %d events", resultKey(r), r.Count, r.Values, want)
			}
		}
	}
	if q1 == 0 || q2 == 0 {
		t.Fatalf("results: q1=%d q2=%d", q1, q2)
	}
}

// TestClusterAddQueryBesidePush: a plan change may run while another
// goroutine feeds the same local. Each local is a session, so the change and
// the feed take turns; a bare Local would race the engine's Apply against its
// event path, which -race reports.
func TestClusterAddQueryBesidePush(t *testing.T) {
	base := query.MustParse("tumbling(100ms) sum key=0")
	base.ID = 1
	p, err := plan.New([]query.Query{base}, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(p, ClusterConfig{Locals: 1})
	stop := make(chan struct{})
	fed := make(chan error, 1)
	go func() {
		for ts := int64(0); ; ts += 100 {
			select {
			case <-stop:
				fed <- nil
				return
			default:
			}
			if err := c.Push(0, stepEvents(ts, ts+100, 10)); err != nil {
				fed <- err
				return
			}
		}
	}()
	for id := uint64(2); id < 12; id++ {
		q := query.MustParse("tumbling(200ms) count key=0")
		q.ID = id
		if err := c.AddQuery(q); err != nil {
			t.Fatal(err)
		}
		if err := c.RemoveQuery(id); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-fed; err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterRemoveQuery(t *testing.T) {
	a := query.MustParse("tumbling(100ms) sum key=0")
	a.ID = 1
	b := query.MustParse("tumbling(100ms) count key=0")
	b.ID = 2
	p, err := plan.New([]query.Query{a, b}, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(p, ClusterConfig{Locals: 2})
	push := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ev := []event.Event{{Time: int64(i * 10), Value: 2}}
			if err := c.Push(i%2, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(0, 30)
	if err := c.AdvanceAll(290); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveQuery(2); err != nil {
		t.Fatal(err)
	}
	push(30, 60)
	if err := c.AdvanceAll(1000); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Results() {
		if r.QueryID == 2 && r.End > 300 {
			t.Errorf("removed query still answered %s", resultKey(r))
		}
	}
	if err := c.RemoveQuery(99); err == nil {
		t.Error("removing unknown query succeeded")
	}
}
