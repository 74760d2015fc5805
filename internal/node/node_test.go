package node

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/operator"
	"desis/internal/query"
)

// --- Merger unit tests ---

func mkPartial(group uint32, start, end, last int64, sum float64, n int64) *core.SlicePartial {
	a := operator.NewAgg(operator.OpSum | operator.OpCount)
	a.SumV = sum
	a.CountV = n
	a.Finish()
	return &core.SlicePartial{
		Group: group, Start: start, End: end, LastEvent: last, Ingested: n,
		Aggs: []operator.Agg{a},
	}
}

func TestMergerAlignedSlices(t *testing.T) {
	m := NewMerger([]uint32{1, 2})
	var out []*core.SlicePartial
	m.Out = func(p *core.SlicePartial) { out = append(out, p) }
	m.HandlePartial(1, mkPartial(0, 0, 100, 90, 10, 2))
	if len(out) != 0 {
		t.Fatal("emitted before all children reported")
	}
	m.HandlePartial(2, mkPartial(0, 0, 100, 95, 20, 3))
	if len(out) != 1 {
		t.Fatalf("emitted %d partials, want 1", len(out))
	}
	p := out[0]
	if p.Aggs[0].SumV != 30 || p.Aggs[0].CountV != 5 || p.Ingested != 5 || p.LastEvent != 95 {
		t.Errorf("merged partial = %+v", p)
	}
}

func TestMergerWatermarkFlushesMisaligned(t *testing.T) {
	m := NewMerger([]uint32{1, 2})
	var out []*core.SlicePartial
	var wms []int64
	m.Out = func(p *core.SlicePartial) { out = append(out, p) }
	m.OutWatermark = func(w int64) { wms = append(wms, w) }
	// Child 1 cut at a session start (dynamic): extents differ.
	m.HandlePartial(1, mkPartial(0, 0, 60, 50, 5, 1))
	m.HandlePartial(1, mkPartial(0, 60, 100, 90, 7, 1))
	m.HandlePartial(2, mkPartial(0, 0, 100, 80, 9, 2))
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
	m.HandlePartial(1, mkPartial(0, 0, 100, 90, 1, 1))
	m.HandlePartial(2, mkPartial(0, 0, 100, 90, 2, 1))
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

func TestMergerAddChild(t *testing.T) {
	m := NewMerger([]uint32{1})
	var out []*core.SlicePartial
	m.Out = func(p *core.SlicePartial) { out = append(out, p) }
	m.AddChild(2)
	m.HandlePartial(1, mkPartial(0, 0, 100, 90, 1, 1))
	if len(out) != 0 {
		t.Fatal("merge completed without new child")
	}
	m.HandlePartial(2, mkPartial(0, 0, 100, 90, 2, 1))
	if len(out) != 1 {
		t.Fatal("merge did not complete with new child")
	}
}

// TestMergerHoldsUntilAllJoined: a merger told to expect two children takes
// nothing the first one sends for complete — not its slices, not its
// watermark, not even its departure — until the second has joined.
func TestMergerHoldsUntilAllJoined(t *testing.T) {
	m := NewMerger(nil)
	m.Hold(2)
	var out []*core.SlicePartial
	var wms []int64
	m.Out = func(p *core.SlicePartial) { out = append(out, p) }
	m.OutWatermark = func(w int64) { wms = append(wms, w) }

	m.AddChild(1)
	m.HandlePartial(1, mkPartial(0, 0, 100, 90, 1, 1))
	m.HandleWatermark(1, 100)
	m.RemoveChild(1) // streamed everything and left before its sibling came
	if len(out) != 0 || len(wms) != 0 {
		t.Fatalf("forwarded %d partials and watermarks %v with one of two children seen", len(out), wms)
	}
	m.AddChild(2)
	m.HandlePartial(2, mkPartial(0, 0, 100, 95, 2, 1))
	if len(out) != 1 || out[0].Aggs[0].SumV != 3 {
		t.Fatalf("after the second child's partial: %v, want one partial with sum 3", out)
	}
	m.HandleWatermark(2, 100)
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
	groups, err := query.Analyze(queries, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(groups, core.Config{})
	e.ProcessBatch(evs)
	e.AdvanceTo(advTo)
	return e.Results()
}

// clusterResults runs the same queries on an in-process topology.
func clusterResults(t *testing.T, queries []query.Query, evs []event.Event, advTo int64, locals, inters int) []core.Result {
	t.Helper()
	groups, err := query.Analyze(queries, query.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(groups, ClusterConfig{Locals: locals, Intermediates: inters})
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

func resultKey(r core.Result) string {
	return fmt.Sprintf("q%d[%d,%d)", r.QueryID, r.Start, r.End)
}

func compareResultSets(t *testing.T, got, want []core.Result) {
	t.Helper()
	key := func(rs []core.Result) map[string]core.Result {
		m := make(map[string]core.Result, len(rs))
		for _, r := range rs {
			m[resultKey(r)] = r
		}
		return m
	}
	gm, wm := key(got), key(want)
	for k, w := range wm {
		g, ok := gm[k]
		if !ok {
			t.Errorf("missing result %s (want count %d)", k, w.Count)
			continue
		}
		if g.Count != w.Count {
			t.Errorf("%s: count = %d, want %d", k, g.Count, w.Count)
		}
		for i := range w.Values {
			if g.Values[i].OK != w.Values[i].OK {
				t.Errorf("%s %v: ok = %v, want %v", k, w.Values[i].Spec, g.Values[i].OK, w.Values[i].OK)
				continue
			}
			if w.Values[i].OK && math.Abs(g.Values[i].Value-w.Values[i].Value) > 1e-9*(1+math.Abs(w.Values[i].Value)) {
				t.Errorf("%s %v: value = %g, want %g", k, w.Values[i].Spec, g.Values[i].Value, w.Values[i].Value)
			}
		}
	}
	for k := range gm {
		if _, ok := wm[k]; !ok {
			t.Errorf("extra result %s (count %d)", k, gm[k].Count)
		}
	}
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
		groups, err := query.Analyze([]query.Query{q}, query.Options{Decentralized: true})
		if err != nil {
			t.Fatal(err)
		}
		c := NewCluster(groups, ClusterConfig{Locals: 2, Intermediates: 1})
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

// --- Runtime query management on a topology ---

func TestClusterAddRemoveQuery(t *testing.T) {
	base := query.MustParse("tumbling(100ms) sum key=0")
	base.ID = 1
	groups, err := query.Analyze([]query.Query{base}, query.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(groups, ClusterConfig{Locals: 2, Intermediates: 1})
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
			if r.Count != 20 && r.Values[0].Value != float64(r.Count) {
				t.Errorf("added query window %s count %d", resultKey(r), r.Count)
			}
		}
	}
	if q1 == 0 || q2 == 0 {
		t.Fatalf("results: q1=%d q2=%d", q1, q2)
	}
}

func TestClusterRemoveQuery(t *testing.T) {
	a := query.MustParse("tumbling(100ms) sum key=0")
	a.ID = 1
	b := query.MustParse("tumbling(100ms) count key=0")
	b.ID = 2
	groups, err := query.Analyze([]query.Query{a, b}, query.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(groups, ClusterConfig{Locals: 2})
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

// --- Codec choice on the wire ---

func TestClusterTextCodecWorks(t *testing.T) {
	// A median query ships every value, the traffic class where Disco's
	// string encoding costs the most (Figure 11b).
	q := query.MustParse("tumbling(100ms) median key=0")
	q.ID = 1
	groups, err := query.Analyze([]query.Query{q}, query.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(codec message.Codec) (uint64, []core.Result) {
		c := NewCluster(groups, ClusterConfig{Locals: 2, Codec: codec})
		for i := 0; i < 100; i++ {
			ev := event.Event{Time: int64(i * 5), Value: float64(i) * 1.2345678901234567}
			if err := c.Push(i%2, []event.Event{ev}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.AdvanceAll(2000); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		local, _ := c.NetworkBytes()
		rs := c.Results()
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
		return local, rs
	}
	binBytes, binRes := run(message.Binary{})
	txtBytes, txtRes := run(message.Text{})
	if len(binRes) == 0 || len(binRes) != len(txtRes) {
		t.Fatalf("results: binary %d, text %d", len(binRes), len(txtRes))
	}
	for i := range binRes {
		if binRes[i].Values[0].Value != txtRes[i].Values[0].Value {
			t.Errorf("window %d: binary %g, text %g", i, binRes[i].Values[0].Value, txtRes[i].Values[0].Value)
		}
	}
	if txtBytes <= binBytes {
		t.Errorf("text codec %d bytes <= binary %d bytes", txtBytes, binBytes)
	}
}
