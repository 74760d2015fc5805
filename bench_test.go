// One testing.B benchmark per reproduced table/figure of the paper's
// evaluation (§6), plus microbenchmarks of the hot paths. Each figure
// benchmark executes the corresponding experiment driver end to end at a
// reduced scale and logs the regenerated table; run cmd/desis-bench for
// paper-scale sweeps.
//
//	go test -bench=Fig6b -benchmem
//	go test -bench=. -benchmem
package desis_test

import (
	"math/rand"
	"strings"
	"testing"

	"desis"
	"desis/internal/bench"
	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/gen"
	"desis/internal/message"
	"desis/internal/node"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// benchCfg keeps per-iteration work small enough for testing.B's calibration.
var benchCfg = bench.Config{Events: 20_000, WindowCounts: []int{1, 10, 100}, Locals: 2, Keys: 16}

func runFigure(b *testing.B, id string) {
	b.Helper()
	var exp *bench.Experiment
	for i := range bench.Experiments {
		if bench.Experiments[i].ID == id {
			exp = &bench.Experiments[i]
			break
		}
	}
	if exp == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	var last []*bench.Table
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = tables
	}
	var sb strings.Builder
	for _, t := range last {
		t.Fprint(&sb)
	}
	b.Log("\n" + sb.String())
}

// --- Figure benchmarks (§6) ---

func BenchmarkFig6aLatencySingleWindow(b *testing.B)          { runFigure(b, "fig6a") }
func BenchmarkFig6bThroughputConcurrent(b *testing.B)         { runFigure(b, "fig6b") }
func BenchmarkFig7aScaleAvg(b *testing.B)                     { runFigure(b, "fig7a") }
func BenchmarkFig7bScaleMedian(b *testing.B)                  { runFigure(b, "fig7b") }
func BenchmarkFig7cNodeThroughputAvg(b *testing.B)            { runFigure(b, "fig7c") }
func BenchmarkFig7dNodeThroughputMedian(b *testing.B)         { runFigure(b, "fig7d") }
func BenchmarkFig7eKeys(b *testing.B)                         { runFigure(b, "fig7e") }
func BenchmarkFig7fWindowsSameKey(b *testing.B)               { runFigure(b, "fig7f") }
func BenchmarkFig8abTumblingThroughputSlices(b *testing.B)    { runFigure(b, "fig8ab") }
func BenchmarkFig8cdUserDefinedThroughputSlices(b *testing.B) { runFigure(b, "fig8cd") }
func BenchmarkFig9abAvgSum(b *testing.B)                      { runFigure(b, "fig9ab") }
func BenchmarkFig9cdQuantiles(b *testing.B)                   { runFigure(b, "fig9cd") }
func BenchmarkFig9efTwoFuncs(b *testing.B)                    { runFigure(b, "fig9ef") }
func BenchmarkFig9gQuantileMax(b *testing.B)                  { runFigure(b, "fig9g") }
func BenchmarkFig9hMeasures(b *testing.B)                     { runFigure(b, "fig9h") }
func BenchmarkFig10abSliceCount(b *testing.B)                 { runFigure(b, "fig10ab") }
func BenchmarkFig10cdSliceSize(b *testing.B)                  { runFigure(b, "fig10cd") }
func BenchmarkFig11aNetworkAvg(b *testing.B)                  { runFigure(b, "fig11a") }
func BenchmarkFig11bNetworkMedian(b *testing.B)               { runFigure(b, "fig11b") }
func BenchmarkFig11cNetworkKeys(b *testing.B)                 { runFigure(b, "fig11c") }
func BenchmarkFig11dNetworkWindows(b *testing.B)              { runFigure(b, "fig11d") }
func BenchmarkFig12aNodeLatencyAvg(b *testing.B)              { runFigure(b, "fig12a") }
func BenchmarkFig12bNodeLatencyMedian(b *testing.B)           { runFigure(b, "fig12b") }
func BenchmarkFig13aRealWorld(b *testing.B)                   { runFigure(b, "fig13a") }
func BenchmarkFig13bcPiCluster(b *testing.B)                  { runFigure(b, "fig13bc") }
func BenchmarkFig13dPiLatency(b *testing.B)                   { runFigure(b, "fig13d") }

// --- Ablation benchmarks (DESIGN.md §5) ---

func BenchmarkAblationPunctuationCalendar(b *testing.B) { runFigure(b, "ablation-calendar") }
func BenchmarkAblationOperatorSharing(b *testing.B)     { runFigure(b, "ablation-opsharing") }
func BenchmarkAblationPartialGranularity(b *testing.B)  { runFigure(b, "ablation-granularity") }
func BenchmarkAblationSortedBatches(b *testing.B)       { runFigure(b, "ablation-sortedbatches") }
func BenchmarkAblationCodecs(b *testing.B)              { runFigure(b, "ablation-codecs") }
func BenchmarkAblationShardedRoot(b *testing.B)         { runFigure(b, "ablation-shardedroot") }

// BenchmarkAssemblySliding measures window-emission throughput with 32
// overlapping sliding windows in one query-group, with the amortized
// assembly index (swag) against the per-window slice re-fold (naive). One
// b.N iteration is one ingested event; every 100ms of event time each mode
// assembles all 32 windows.
func BenchmarkAssemblySliding(b *testing.B) {
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"swag", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var qs []query.Query
			for i := 0; i < 32; i++ {
				qs = append(qs, query.Query{
					ID: uint64(i + 1), Pred: query.All(), Type: query.Sliding,
					Length: 2000 + int64(i)*500, Slide: 100,
					Funcs: []operator.FuncSpec{{Func: operator.Average}},
				})
			}
			p, err := plan.New(qs, plan.Options{})
			if err != nil {
				b.Fatal(err)
			}
			e := core.NewFromPlan(p, core.Config{OnResult: func(core.Result) {}, NaiveAssembly: mode.naive})
			s := gen.NewStream(gen.StreamConfig{Seed: 21, Keys: 1, IntervalMS: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Process(s.Next())
			}
			b.ReportMetric(float64(e.Stats().Windows)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}

// BenchmarkAssemblyManyQueries stresses assembly with a heterogeneous
// 64-query group: sliding windows of many lengths plus a shared
// non-decomposable quantile, so both the O(1) index path and the k-way run
// merge execute per punctuation.
func BenchmarkAssemblyManyQueries(b *testing.B) {
	for _, mode := range []struct {
		name  string
		naive bool
	}{{"swag", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var qs []query.Query
			for i := 0; i < 64; i++ {
				f := operator.FuncSpec{Func: operator.Sum}
				if i%8 == 0 {
					f = operator.FuncSpec{Func: operator.Quantile, Arg: 0.95}
				}
				qs = append(qs, query.Query{
					ID: uint64(i + 1), Pred: query.All(), Type: query.Sliding,
					Length: 500 + int64(i)*125, Slide: 250,
					Funcs: []operator.FuncSpec{f},
				})
			}
			p, err := plan.New(qs, plan.Options{})
			if err != nil {
				b.Fatal(err)
			}
			e := core.NewFromPlan(p, core.Config{OnResult: func(core.Result) {}, NaiveAssembly: mode.naive})
			s := gen.NewStream(gen.StreamConfig{Seed: 21, Keys: 1, IntervalMS: 1})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Process(s.Next())
			}
			b.ReportMetric(float64(e.Stats().Windows)/b.Elapsed().Seconds(), "windows/s")
		})
	}
}

// --- Hot-path microbenchmarks ---

// BenchmarkEngineProcess measures the engine's per-event cost with 100
// concurrent tumbling windows sharing one query-group.
func BenchmarkEngineProcess(b *testing.B) {
	qs := gen.TumblingSweep(100, 1000, 10000, operator.Average)
	p, err := plan.New(qs, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewFromPlan(p, core.Config{OnResult: func(core.Result) {}})
	s := gen.NewStream(gen.StreamConfig{Seed: 1, IntervalMS: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(s.Next())
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// ingestShape is one input of the batch-ingest benchmarks: a catalog, a
// stream segment that is replayed with its event time shifted by span on
// every lap, and the batch length ProcessBatch is fed in.
type ingestShape struct {
	name    string
	queries []string // a leading "*" marks a group-by template
	dedup   bool
	batch   int
	span    int64
	evs     []event.Event
}

// foldShapeQueries mirrors the benchmark's fold workload: long windows on
// four keys, one of them a session and one marker-delimited.
var foldShapeQueries = []string{
	"tumbling(10s) sum,count key=0",
	"sliding(30s,5s) average key=0",
	"sliding(60s,10s) min,max key=0",
	"tumbling(20s) sum,count key=0 value>=80",
	"tumbling(10s) geomean key=1",
	"sliding(20s,2s) average,count key=1",
	"sliding(60s,5s) max key=1",
	"tumbling(30s) min key=1",
	"session(500ms) sum,count key=2",
	"userdefined average key=3",
}

// ingestShapes lists the inputs: the one the quiet-run fast path is for
// first, then the ones it cannot help, which must not pay for it.
func ingestShapes() []ingestShape {
	const n = 1 << 16
	rng := gen.NewStream(gen.StreamConfig{Seed: 7, IntervalMS: 1})
	value := func() float64 { return rng.Next().Value }
	foldShape := make([]event.Event, 0, n)
	for i := 0; len(foldShape) < n; i++ {
		t := int64(i / 2)
		if i%4000 == 0 {
			foldShape = append(foldShape, event.Event{Time: t, Key: 3, Marker: event.MarkerBoundary})
		}
		key := uint32(i*2654435761>>16) & 3
		if key == 2 && t%4000 >= 3000 {
			key = 0 // the session key goes silent one second in four
		}
		v := value()
		if key == 1 {
			v = 1 // keeps the running product finite
		}
		foldShape = append(foldShape, event.Event{Time: t, Key: key, Value: v})
	}
	foldSpan := foldShape[len(foldShape)-1].Time/4000*4000 + 4000
	perMs := func(keys int) []event.Event {
		evs := make([]event.Event, max(n, keys))
		for i := range evs {
			evs[i] = event.Event{Time: int64(i), Key: uint32(i % keys), Value: value()}
		}
		return evs
	}
	return []ingestShape{
		{name: "fold-shape-4-keys", queries: foldShapeQueries, batch: 512, span: foldSpan, evs: foldShape},
		{name: "one-key", queries: []string{"tumbling(10s) sum,count key=0", "sliding(60s,10s) min,max key=0"}, batch: 512, span: n, evs: perMs(1)},
		{name: "1e5-distinct-keys", queries: []string{"*tumbling(3600s) sum,count"}, batch: 512, span: 100_000, evs: perMs(100_000)},
		{name: "dedup-group", queries: []string{"tumbling(10s) sum,count key=0", "tumbling(10s) max key=1"}, dedup: true, batch: 512, span: n, evs: perMs(2)},
		{name: "punctuation-every-8-events", queries: []string{"tumbling(8ms) sum,count key=0"}, batch: 512, span: n, evs: perMs(1)},
		{name: "batches-of-8", queries: foldShapeQueries, batch: 8, span: foldSpan, evs: foldShape},
	}
}

// runIngest drives one shape; batched selects ProcessBatch over a loop of
// Process.
func runIngest(b *testing.B, sh ingestShape, batched bool) {
	qs := make([]desis.Query, len(sh.queries))
	for i, s := range sh.queries {
		q := query.MustParse(strings.TrimPrefix(s, "*"))
		q.ID, q.AnyKey = uint64(i+1), strings.HasPrefix(s, "*")
		qs[i] = q
	}
	p, err := plan.New(qs, plan.Options{Dedup: sh.dedup})
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewFromPlan(p, core.Config{OnResult: func(core.Result) {}})
	evs := append([]event.Event(nil), sh.evs...)
	lap := func() {
		if batched {
			for i := 0; i < len(evs); i += sh.batch {
				e.ProcessBatch(evs[i:min(i+sh.batch, len(evs))])
			}
		} else {
			for _, ev := range evs {
				e.Process(ev)
			}
		}
		for i := range evs {
			evs[i].Time += sh.span
		}
	}
	benchLaps(b, len(evs), lap)
}

// benchLaps runs lap, which processes perLap events, once to warm up
// (instantiate templates, start every group, grow buffers) and then until
// b.N events are done, and reports the time per event.
func benchLaps(b *testing.B, perLap int, lap func()) {
	lap()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += perLap {
		lap()
	}
	b.StopTimer()
	laps := (b.N + perLap - 1) / perLap
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(laps*perLap), "ns/event")
}

// BenchmarkEngineProcessBatch measures batch ingest per event on the shape
// its quiet-run path is for and on the shapes that path cannot help.
func BenchmarkEngineProcessBatch(b *testing.B) {
	for _, sh := range ingestShapes() {
		b.Run(sh.name, func(b *testing.B) { runIngest(b, sh, true) })
	}
}

// BenchmarkEngineProcessLoop feeds the same shapes through Process one event
// at a time: what ProcessBatch cost before it scanned for quiet runs, and the
// line its slow shapes are held to.
func BenchmarkEngineProcessLoop(b *testing.B) {
	for _, sh := range ingestShapes() {
		b.Run(sh.name, func(b *testing.B) { runIngest(b, sh, false) })
	}
}

// BenchmarkEngineProcessQuantiles measures the shared non-decomposable sort
// with 100 distinct quantile queries.
func BenchmarkEngineProcessQuantiles(b *testing.B) {
	var qs []query.Query
	for i := 0; i < 100; i++ {
		qs = append(qs, query.Query{
			ID: uint64(i + 1), Pred: query.All(), Type: query.Tumbling, Length: 1000,
			Funcs: []operator.FuncSpec{{Func: operator.Quantile, Arg: float64(i+1) / 101}},
		})
	}
	p, err := plan.New(qs, plan.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := core.NewFromPlan(p, core.Config{OnResult: func(core.Result) {}})
	s := gen.NewStream(gen.StreamConfig{Seed: 1, IntervalMS: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(s.Next())
	}
}

// BenchmarkAggAdd measures the innermost operator loop.
func BenchmarkAggAdd(b *testing.B) {
	a := operator.NewAgg(operator.OpSum | operator.OpCount | operator.OpDSort)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Add(float64(i & 1023))
	}
}

// BenchmarkAggAddRun measures the same fold over runs of 128 values, per
// value.
func BenchmarkAggAddRun(b *testing.B) {
	a := operator.NewAgg(operator.OpSum | operator.OpCount | operator.OpDSort)
	var run [128]float64
	for i := range run {
		run[i] = float64(i * 37 & 1023)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(run) {
		a.AddRun(run[:])
	}
}

// BenchmarkPartialCodec measures encoding+decoding one slice partial.
func BenchmarkPartialCodec(b *testing.B) {
	agg := operator.NewAgg(operator.OpSum | operator.OpCount)
	for i := 0; i < 100; i++ {
		agg.Add(float64(i))
	}
	agg.Finish()
	m := &message.Message{Kind: message.KindPartial, From: 1, Partial: &core.SlicePartial{
		Group: 0, ID: 9, Start: 0, End: 1000, Ingested: 100,
		Aggs: []operator.Agg{agg},
	}}
	codec := message.Binary{}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = codec.Append(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergerHandlePartial measures the intermediate merge step.
func BenchmarkMergerHandlePartial(b *testing.B) {
	m := node.NewMerger([]uint32{1, 2})
	m.Out = func(*core.SlicePartial) {}
	mk := func(id uint64) *core.SlicePartial {
		agg := operator.NewAgg(operator.OpSum | operator.OpCount)
		agg.Add(1)
		agg.Finish()
		return &core.SlicePartial{
			ID: id, Start: int64(id) * 100, End: int64(id+1) * 100,
			Ingested: 1, Aggs: []operator.Agg{agg},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := mk(uint64(i))
		q := mk(uint64(i))
		m.HandlePartial(1, p)
		m.HandlePartial(2, q)
	}
}

// BenchmarkEventBatchCodec measures raw event batch framing, the dominant
// traffic of centralized deployments. Bytes are the encoded batch's.
func BenchmarkEventBatchCodec(b *testing.B) {
	s := gen.NewStream(gen.StreamConfig{Seed: 1, Keys: 8, IntervalMS: 1})
	evs := s.Events(512)
	buf := event.AppendBatch(nil, evs)
	var dst []event.Event
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = event.AppendBatch(buf[:0], evs)
		var err error
		if dst, _, err = event.DecodeBatch(buf, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicEngine measures the facade's end-to-end path.
func BenchmarkPublicEngine(b *testing.B) {
	eng, err := desis.NewEngine([]desis.Query{
		desis.MustParseQuery("tumbling(1s) average key=0"),
		desis.MustParseQuery("sliding(10s,2s) max key=0"),
	}, desis.Options{OnResult: func(desis.Result) {}})
	if err != nil {
		b.Fatal(err)
	}
	s := desis.NewStream(desis.StreamConfig{Seed: 1, IntervalMS: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Process(s.Next())
	}
}

// reorderShapes lists the Reorderer's inputs, one event per millisecond and
// about 200 events pending in each: the stream the run is for, the `late`
// workload's mix, and the one that never extends the run twice in a row.
func reorderShapes() []reorderShape {
	const n = 1 << 16
	inOrder := make([]desis.Event, n)
	for i := range inOrder {
		inOrder[i] = desis.Event{Time: int64(i), Value: float64(i & 127)}
	}
	// The benchmark's lateSpec: 10 % of events 1..1000 ms back, 0.5 %
	// 5..10 s back, behind a 200 ms buffer and a 2 s horizon, so ~2 % are
	// stragglers, ~8 % are forwarded and the far ones are dropped.
	rng := rand.New(rand.NewSource(7))
	late := append([]desis.Event(nil), inOrder...)
	for i := 12_000; i < n; i++ {
		switch u := rng.Float64(); {
		case u < 0.005:
			late[i].Time -= 5000 + rng.Int63n(5000)
		case u < 0.105:
			late[i].Time -= 1 + rng.Int63n(1000)
		}
	}
	// Blocks of 200 timestamps, each block descending: one arrival per
	// block extends the run, the other 199 go through the heap.
	descending := make([]desis.Event, n)
	for i := range descending {
		descending[i] = desis.Event{Time: int64(i/200*200 + 199 - i%200), Value: float64(i & 127)}
	}
	return []reorderShape{
		{name: "in-order", lateness: 200, evs: inOrder},
		{name: "10pct-late", lateness: 2200, horizon: 2000, evs: late},
		{name: "descending", lateness: 200, evs: descending},
	}
}

type reorderShape struct {
	name              string
	lateness, horizon int64
	evs               []desis.Event
}

var reorderSink int64

// BenchmarkReorderer measures Reorderer.Process per event into a sink that
// discards, laps shifted in event time like the ingest benchmarks.
func BenchmarkReorderer(b *testing.B) {
	for _, sh := range reorderShapes() {
		b.Run(sh.name, func(b *testing.B) {
			r := desis.NewReordererWithHorizon(sh.lateness, sh.horizon, func(ev desis.Event) { reorderSink += ev.Time })
			evs, span := sh.evs, int64(len(sh.evs))
			benchLaps(b, len(evs), func() {
				for _, ev := range evs {
					r.Process(ev)
				}
				for i := range evs {
					evs[i].Time += span
				}
			})
		})
	}
}
