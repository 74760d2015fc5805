package bench

import (
	"sort"
	"sync"
	"time"

	"desis/internal/baseline"
	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/gen"
	"desis/internal/message"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// AblationCalendar measures the advance punctuation calendar against
// per-event boundary re-derivation (§6.2.1: Desis "is able to calculate
// window ends in advance instead of checking each arriving event").
func AblationCalendar(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "ablation-calendar", Title: "Advance punctuation calendar", XLabel: "windows", YLabel: "events/s"}
	sc := gen.StreamConfig{Seed: 9, Keys: 1, IntervalMS: 1}
	for _, w := range cfg.WindowCounts {
		qs := gen.TumblingSweep(w, 1000, 10000, operator.Average)
		events := scaleEvents(cfg.Events, 1)
		for _, mode := range []struct {
			name    string
			perSlow bool
		}{{"calendar", false}, {"per-event-check", true}} {
			p, err := plan.New(qs, plan.Options{})
			if err != nil {
				return nil, err
			}
			e := core.NewFromPlan(p, core.Config{PerEventBoundaryCheck: mode.perSlow})
			s := gen.NewStream(sc)
			evs := s.Events(events)
			start := time.Now()
			e.ProcessBatch(evs)
			e.AdvanceTo(s.Now() + 60_000)
			e.Results()
			t.Add(mode.name, float64(w), float64(events)/time.Since(start).Seconds())
		}
	}
	return t, nil
}

// AblationOperatorSharing isolates the Table-1 operator union: Desis' one
// shared non-decomposable sort versus one sort per distinct quantile
// function (the DeSW/Scotty strategy).
func AblationOperatorSharing(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "ablation-opsharing", Title: "Operator sharing across functions", XLabel: "distinct quantile functions", YLabel: "events/s"}
	sc := gen.StreamConfig{Seed: 9, Keys: 1, IntervalMS: 1}
	for _, w := range cfg.WindowCounts {
		qs := fig9Queries(w, "quantiles")
		events := scaleEvents(cfg.Events, w)
		evs, drain := stream(sc, events)
		for _, f := range []SystemFactory{OptimizationSystems[0], OptimizationSystems[1]} { // Desis, DeSW
			r, err := runCentral(f, qs, evs, drain)
			if err != nil {
				return nil, err
			}
			name := "shared-operators"
			if f.Name != "Desis" {
				name = "per-function"
			}
			t.Add(name, float64(w), r.Throughput)
		}
	}
	return t, nil
}

// AblationPartialGranularity compares per-slice partials (Desis) with
// per-window partials (Disco) on the wire as window overlap grows.
func AblationPartialGranularity(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "ablation-granularity", Title: "Per-slice vs per-window partials", XLabel: "overlapping windows", YLabel: "local bytes"}
	sc := gen.StreamConfig{Seed: 9, Keys: 1, IntervalMS: 1}
	for _, w := range []int{1, 4, 16} {
		var qs []query.Query
		for i := 1; i <= w; i++ {
			qs = append(qs, query.Query{
				ID: uint64(i), Pred: query.All(), Type: query.Sliding,
				Length: int64(i) * 1000, Slide: 1000,
				Funcs: []operator.FuncSpec{{Func: operator.Average}},
			})
		}
		for _, d := range Deployments[:2] { // Desis, Disco
			r, err := buildAndRun(d, qs, 2, 1, 0, sc, cfg.Events/4)
			if err != nil {
				return nil, err
			}
			name := "per-slice"
			if d.Name == "Disco" {
				name = "per-window"
			}
			t.Add(name, float64(w), float64(r.LocalBytes))
		}
	}
	return t, nil
}

// AblationCodecs compares Desis' binary codec with Disco's string codec on
// both traffic classes: raw event batches (what centralized systems and
// RootOnly groups ship) and slice partials (Desis' decomposable traffic).
func AblationCodecs(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "ablation-codecs", Title: "Wire codecs: bytes per message class", XLabel: "class (0=event batch, 1=partial)", YLabel: "bytes"}
	s := gen.NewStream(gen.StreamConfig{Seed: 12, Keys: 10, IntervalMS: 1})
	evs := s.Events(512)
	batch := &message.Message{Kind: message.KindEventBatch, From: 1, Events: evs}

	agg := operator.NewAgg(operator.OpSum | operator.OpCount)
	for i := 0; i < 1000; i++ {
		agg.Add(float64(i) * 1.37)
	}
	agg.Finish()
	partial := &message.Message{Kind: message.KindPartial, From: 1, Partial: &core.SlicePartial{
		Group: 3, ID: 12345, Start: 1_000_000, End: 1_001_000,
		Ingested: 1000, Aggs: []operator.Agg{agg},
	}}
	codecs := []message.Codec{message.Binary{}, baseline.Text{}}
	for _, c := range codecs {
		b, err := c.Append(nil, batch)
		if err != nil {
			return nil, err
		}
		t.Add(c.Name(), 0, float64(len(b)))
		p, err := c.Append(nil, partial)
		if err != nil {
			return nil, err
		}
		t.Add(c.Name(), 1, float64(len(p)))
	}
	return t, nil
}

// AblationShardedRoot quantifies the paper's proposed mitigation for the
// >10k-query result-materialisation bottleneck (§6.5.1): the same workload
// on 1 vs N key-sharded engines.
func AblationShardedRoot(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "ablation-shardedroot", Title: "Single vs sharded root engines", XLabel: "queries", YLabel: "events/s"}
	for _, w := range cfg.WindowCounts {
		var qs []query.Query
		for i := 0; i < w; i++ {
			qs = append(qs, query.Query{
				ID: uint64(i + 1), Key: uint32(i % 16), Pred: query.All(),
				Type: query.Tumbling, Length: int64(1000 * (1 + i%10)),
				Funcs: []operator.FuncSpec{{Func: operator.Average}},
			})
		}
		events := scaleEvents(cfg.Events, w)
		sc := gen.StreamConfig{Seed: 13, Keys: 16, IntervalMS: 1}
		evs, drain := stream(sc, events)
		// Single engine.
		p, err := plan.New(qs, plan.Options{})
		if err != nil {
			return nil, err
		}
		e := core.NewFromPlan(p, core.Config{OnResult: func(core.Result) {}})
		start := time.Now()
		e.ProcessBatch(evs)
		e.AdvanceTo(drain) // both variants include the drain
		single := float64(events) / time.Since(start).Seconds()
		t.Add("single-root", float64(w), single)
		// Sharded engines, fed round-robin by key from this thread; the
		// shards run in parallel goroutines via channels.
		sharded, err := shardedRate(qs, evs, drain, 4)
		if err != nil {
			return nil, err
		}
		t.Add("4-sharded-roots", float64(w), sharded)
	}
	return t, nil
}

// shardedRate mirrors desis.ParallelEngine inside the harness (the facade
// depends on internal packages, not vice versa).
func shardedRate(qs []query.Query, evs []event.Event, drain int64, n int) (float64, error) {
	type shard struct {
		e  *core.Engine
		ch chan []event.Event
	}
	shards := make([]*shard, n)
	var wg sync.WaitGroup
	for i := range shards {
		var part []query.Query
		for _, q := range qs {
			if int(q.Key)%n == i {
				part = append(part, q)
			}
		}
		p, err := plan.New(part, plan.Options{})
		if err != nil {
			return 0, err
		}
		sh := &shard{
			e:  core.NewFromPlan(p, core.Config{OnResult: func(core.Result) {}}),
			ch: make(chan []event.Event, 32),
		}
		shards[i] = sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range sh.ch {
				sh.e.ProcessBatch(b)
			}
			sh.e.AdvanceTo(drain)
		}()
	}
	start := time.Now()
	bufs := make([][]event.Event, n)
	for _, ev := range evs {
		s := int(ev.Key) % n
		bufs[s] = append(bufs[s], ev)
		if len(bufs[s]) >= 512 {
			shards[s].ch <- bufs[s]
			bufs[s] = nil
		}
	}
	for i, b := range bufs {
		if len(b) > 0 {
			shards[i].ch <- b
		}
		close(shards[i].ch)
	}
	wg.Wait()
	return float64(len(evs)) / time.Since(start).Seconds(), nil
}

// AblationSortedBatches compares the root's cost of merging pre-sorted
// per-slice value runs (what local nodes ship for non-decomposable
// functions, §5.2) against re-sorting raw batches at the root.
func AblationSortedBatches(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "ablation-sortedbatches", Title: "Sorted-run merge vs root-side sort", XLabel: "values per slice", YLabel: "values/s"}
	for _, per := range []int{1000, 10_000, 100_000} {
		slices := cfg.Events / per
		if slices < 8 {
			slices = 8
		}
		// Build the same value runs once.
		runs := make([][]float64, slices)
		x := 1.0
		for i := range runs {
			r := make([]float64, per)
			for j := range r {
				x = x*1103515245 + 12345
				if x > 1e18 {
					x /= 1e12
				}
				r[j] = x
			}
			runs[i] = r
		}
		total := float64(slices * per)

		// Sorted-run merge: each slice sorted at the local node, the root
		// only merges.
		sorted := make([][]float64, slices)
		for i, r := range runs {
			cp := append([]float64(nil), r...)
			sort.Float64s(cp)
			sorted[i] = cp
		}
		start := time.Now()
		agg := operator.NewAgg(operator.OpNDSort | operator.OpCount)
		agg.Finish()
		for _, r := range sorted {
			var b operator.Agg
			b.Reset(operator.OpNDSort | operator.OpCount)
			b.Values = r
			b.CountV = int64(len(r))
			b.Sorted = true
			agg.Merge(&b)
		}
		t.Add("merge-sorted-runs", float64(per), total/time.Since(start).Seconds())

		// Root-side sort: raw batches concatenated and sorted at the end.
		start = time.Now()
		var all []float64
		for _, r := range runs {
			all = append(all, r...)
		}
		sort.Float64s(all)
		t.Add("root-side-sort", float64(per), total/time.Since(start).Seconds())
	}
	return t, nil
}
