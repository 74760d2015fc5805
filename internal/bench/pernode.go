package bench

import (
	"time"

	"desis/internal/core"
	"desis/internal/gen"
	"desis/internal/node"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// localSliceRate measures a local node's engine in slice-emitting mode:
// events per second of slicing + incremental aggregation.
func localSliceRate(qs []query.Query, sc gen.StreamConfig, events int) (float64, error) {
	p, err := plan.New(qs, plan.Options{Decentralized: true})
	if err != nil {
		return 0, err
	}
	e := core.NewFromPlan(p, core.Config{OnSlice: func(*core.SlicePartial) {}})
	s := gen.NewStream(sc)
	evs := s.Events(events)
	start := time.Now()
	e.ProcessBatch(evs)
	e.AdvanceTo(s.Now() + 60_000)
	return float64(events) / time.Since(start).Seconds(), nil
}

// mergeRate measures an intermediate/root merge stage: it replays nSlices
// aligned slices from children child nodes, each slice summarising
// eventsPerSlice events with ctxs selection contexts and followed by its
// child's watermark, and reports the equivalent events/second the stage
// sustains, merging and forwarding.
func mergeRate(children, nSlices, eventsPerSlice, ctxs int, ops operator.Op) float64 {
	ids := make([]uint32, children)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	m := node.NewMerger(ids)
	merged := 0
	m.Out = func(*core.SlicePartial) { merged++ }
	// Pre-build one partial template per child to keep generation cost out
	// of the measurement.
	mk := func(sliceID int) []*core.SlicePartial {
		out := make([]*core.SlicePartial, children)
		for c := range out {
			aggs := make([]operator.Agg, ctxs)
			for i := range aggs {
				aggs[i] = operator.NewAgg(ops)
				per := eventsPerSlice / ctxs / children
				for v := 0; v < per; v++ {
					aggs[i].Add(float64(v%97) * 1.3)
				}
				aggs[i].Finish()
			}
			out[c] = &core.SlicePartial{
				Group: 0, ID: uint64(sliceID),
				Start: int64(sliceID * 100), End: int64((sliceID + 1) * 100),
				Ingested: int64(eventsPerSlice / children),
				Aggs:     aggs,
			}
		}
		return out
	}
	batches := make([][]*core.SlicePartial, nSlices)
	for i := range batches {
		batches[i] = mk(i)
	}
	start := time.Now()
	for _, b := range batches {
		for c, p := range b {
			m.HandlePartial(ids[c], p)
			m.HandleWatermark(ids[c], p.End)
		}
	}
	el := time.Since(start).Seconds()
	return float64(nSlices*eventsPerSlice) / el
}

// assembleRate measures the root assembly stage over the same synthetic
// slice stream: partials in, windows out.
func assembleRate(qs []query.Query, nSlices, eventsPerSlice int) (float64, error) {
	p, err := plan.New(qs, plan.Options{Decentralized: true})
	if err != nil {
		return 0, err
	}
	results := 0
	asm := node.NewAssembler(p.Groups, func(core.Result) { results++ })
	g := p.Groups[0]
	partials := make([]*core.SlicePartial, nSlices)
	for i := range partials {
		aggs := make([]operator.Agg, len(g.Contexts))
		for j := range aggs {
			aggs[j] = operator.NewAgg(g.Ops)
			for v := 0; v < eventsPerSlice/len(g.Contexts); v++ {
				aggs[j].Add(float64(v%89) * 1.7)
			}
			aggs[j].Finish()
		}
		partials[i] = &core.SlicePartial{
			Group: g.ID, ID: uint64(i),
			Start: int64(i * 1000), End: int64((i + 1) * 1000),
			Ingested: int64(eventsPerSlice),
			Aggs:     aggs,
		}
	}
	start := time.Now()
	for i, p := range partials {
		asm.AddPartial(p)
		if i%16 == 15 {
			asm.AdvanceTo(p.End)
		}
	}
	asm.AdvanceTo(int64(nSlices+1) * 1000)
	el := time.Since(start).Seconds()
	return float64(nSlices*eventsPerSlice) / el, nil
}

// Fig7c reproduces Figure 7c: per-node throughput for a decomposable
// (average) workload as the number of partial results per slice (child
// nodes) grows.
func Fig7c(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig7c", Title: "Per-node throughput, average", XLabel: "partials per slice (children)", YLabel: "events/s"}
	qs := gen.TumblingSweep(10, 1000, 10000, operator.Average)
	sc := gen.StreamConfig{Seed: 3, Keys: 10, IntervalMS: 1}
	local, err := localSliceRate(qs, sc, cfg.Events)
	if err != nil {
		return nil, err
	}
	nSlices := cfg.Events / 1000
	if nSlices < 50 {
		nSlices = 50
	}
	for _, children := range []int{2, 8, 32, 128} {
		t.Add("local", float64(children), local)
		t.Add("intermediate", float64(children), mergeRate(children, nSlices, 10_000, 1, operator.OpSum|operator.OpCount))
		t.Add("root", float64(children), mergeRate(children, nSlices, 10_000, 1, operator.OpSum|operator.OpCount))
	}
	return t, nil
}

// Fig7d reproduces Figure 7d: the root's throughput for a non-decomposable
// (median) workload — every value travels to and is merged at the root.
func Fig7d(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig7d", Title: "Root throughput, median", XLabel: "partials per slice (children)", YLabel: "events/s"}
	nSlices := cfg.Events / 5000
	if nSlices < 20 {
		nSlices = 20
	}
	for _, children := range []int{2, 8, 32, 128} {
		t.Add("root", float64(children), mergeRate(children, nSlices, 5_000, 1, operator.OpNDSort|operator.OpCount))
	}
	return t, nil
}

// Fig7e reproduces Figure 7e: per-node throughput of a single query as the
// number of distinct selection operators (keys) grows — the local node pays
// per-event selection, the upper layers only merge.
func Fig7e(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig7e", Title: "Per-node throughput vs selection operators", XLabel: "selection contexts", YLabel: "events/s"}
	sc := gen.StreamConfig{Seed: 3, Keys: 1, IntervalMS: 1}
	for _, keys := range []int{1, 4, 16, 64} {
		// keys disjoint selection predicates over one stream: one
		// query-group with that many selection contexts (§4.2.3).
		var qs []query.Query
		for k := 0; k < keys; k++ {
			lo := float64(k) * (130.0 / float64(keys))
			hi := lo + 130.0/float64(keys)
			qs = append(qs, query.Query{
				ID: uint64(k + 1), Pred: query.Range(lo, hi),
				Type: query.Tumbling, Length: 1000,
				Funcs: []operator.FuncSpec{{Func: operator.Average}},
			})
		}
		local, err := localSliceRate(qs, sc, cfg.Events)
		if err != nil {
			return nil, err
		}
		t.Add("local", float64(keys), local)
		nSlices := cfg.Events / 1000
		if nSlices < 50 {
			nSlices = 50
		}
		t.Add("root", float64(keys), mergeRate(2, nSlices, 10_000, keys, operator.OpSum|operator.OpCount))
	}
	return t, nil
}

// Fig7f reproduces Figure 7f: per-node throughput with growing concurrent
// windows over the same key — flat everywhere, because the group shares one
// slice stream.
func Fig7f(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig7f", Title: "Per-node throughput vs concurrent windows (same key)", XLabel: "windows", YLabel: "events/s"}
	sc := gen.StreamConfig{Seed: 3, Keys: 1, IntervalMS: 1}
	for _, w := range cfg.WindowCounts {
		qs := gen.TumblingSweep(w, 1000, 10000, operator.Average)
		local, err := localSliceRate(qs, sc, scaleEvents(cfg.Events, 1))
		if err != nil {
			return nil, err
		}
		t.Add("local", float64(w), local)
		root, err := assembleRate(qs, 200, 10_000)
		if err != nil {
			return nil, err
		}
		t.Add("root", float64(w), root)
	}
	return t, nil
}

// Fig12 reproduces Figures 12a/12b: the latency contributed by each node
// type of the topology, for a 1-second tumbling window with a decomposable
// (average) or non-decomposable (median) function. X encodes the node type:
// 0 = local, 1 = intermediate, 2 = root. Centralized systems only have a
// root-stage latency.
func Fig12(cfg Config, median bool, id string) (*Table, error) {
	cfg = cfg.withDefaults()
	f := operator.Average
	if median {
		f = operator.Median
	}
	t := &Table{ID: id, Title: "Latency by node type (" + f.String() + ")", XLabel: "node (0=local,1=inter,2=root)", YLabel: "mean latency (us)"}
	qs := []query.Query{{
		ID: 1, Pred: query.All(), Type: query.Tumbling, Length: 1000,
		Funcs: []operator.FuncSpec{{Func: f}},
	}}
	sc := gen.StreamConfig{Seed: 8, Keys: 1, IntervalMS: 1}
	events := cfg.Events / 2

	// Desis stages.
	pl, err := plan.New(qs, plan.Options{Decentralized: true})
	if err != nil {
		return nil, err
	}
	// Local: duration of Process calls that close a slice.
	var localLat latencySamples
	var emitted []*core.SlicePartial
	e := core.NewFromPlan(pl, core.Config{OnSlice: func(p *core.SlicePartial) {
		cp := *p
		cp.Aggs = append([]operator.Agg(nil), p.Aggs...)
		emitted = append(emitted, &cp)
	}})
	s := gen.NewStream(sc)
	evs := s.Events(events)
	for i := range evs {
		n := len(emitted)
		t0 := time.Now()
		e.Process(evs[i])
		if len(emitted) > n {
			localLat.record(time.Since(t0), len(emitted)-n)
		}
	}
	e.AdvanceTo(s.Now() + 60_000)
	t.Add("Desis", 0, float64(localLat.mean().Nanoseconds())/1000)

	// Intermediate: merge completion latency over the emitted partials
	// replayed from two children, each followed by its child's watermark:
	// from the second contribution to the forward its watermark releases.
	m := node.NewMerger([]uint32{1, 2})
	m.Out = func(*core.SlicePartial) {}
	var interLat latencySamples
	for _, p := range emitted {
		m.HandlePartial(1, p)
		m.HandleWatermark(1, p.End)
		// A deep copy: the merger releases the second contribution to the
		// decode pool, which must not share storage with p.
		q := p.Clone()
		t0 := time.Now()
		m.HandlePartial(2, q)
		m.HandleWatermark(2, p.End)
		interLat.record(time.Since(t0), 1)
	}
	t.Add("Desis", 1, float64(interLat.mean().Nanoseconds())/1000)

	// Root: assembly latency per window.
	asm := node.NewAssembler(pl.Groups, func(core.Result) {})
	var rootLat latencySamples
	for _, p := range emitted {
		asm.AddPartial(p)
		t0 := time.Now()
		asm.AdvanceTo(p.End)
		rootLat.record(time.Since(t0), 1)
	}
	t.Add("Desis", 2, float64(rootLat.mean().Nanoseconds())/1000)

	// Centralized systems: their root latency is the system latency.
	for _, fac := range CentralSystems {
		if fac.Name == "Desis" || fac.Name == "DeSW" || fac.Name == "DeBucket" {
			continue
		}
		evs2, drain := stream(sc, events)
		mean, _, err := runLatency(fac, qs, evs2, drain)
		if err != nil {
			return nil, err
		}
		t.Add(fac.Name, 2, float64(mean.Nanoseconds())/1000)
	}
	return t, nil
}
