package bench

import (
	"fmt"
	"runtime"
	"time"

	"desis/internal/baseline"
	"desis/internal/event"
	"desis/internal/gen"
	"desis/internal/operator"
	"desis/internal/query"
)

// workloadStream is the standard 10-key sensor stream of §6.2.
func workloadStream(cfg Config, markers bool) (gen.StreamConfig, int) {
	sc := gen.StreamConfig{Seed: 1, Keys: 10, IntervalMS: 1}
	if markers {
		sc.MarkerEvery = 1000 // ~1 user-defined event per second (§6.3.1)
	}
	return sc, cfg.Events
}

// replicate builds n concurrent windows by cycling a base query set and
// re-assigning ids.
func replicate(base []query.Query, n int) []query.Query {
	out := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		q := base[i%len(base)]
		q.ID = uint64(i + 1)
		out = append(out, q)
	}
	return out
}

// scaleEvents shrinks per-run events as the query count grows so the slow
// baselines finish; throughput is a rate and stays comparable.
func scaleEvents(events, windows int) int {
	e := events / windows * 10
	if e > events {
		e = events
	}
	if floor := events / 10; e < floor {
		e = floor
	}
	if e < 2000 {
		e = 2000
	}
	return e
}

// Fig6a reproduces Figure 6a: latency of a single tumbling window with an
// average aggregation over 10 distinct keys, per system. X is 0 (single
// configuration); Y is mean window-emission latency in microseconds.
func Fig6a(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig6a", Title: "Latency of a single window", XLabel: "-", YLabel: "mean latency (us)"}
	var qs []query.Query
	for k := 0; k < 10; k++ {
		qs = append(qs, query.Query{
			ID: uint64(k + 1), Key: uint32(k), Pred: query.All(),
			Type: query.Tumbling, Length: 1000,
			Funcs: []operator.FuncSpec{{Func: operator.Average}},
		})
	}
	sc, n := workloadStream(cfg, false)
	evs, drain := stream(sc, n)
	for _, f := range CentralSystems {
		// Warm the code paths once, then measure.
		if _, _, err := runLatency(f, qs, evs, drain); err != nil {
			return nil, err
		}
		mean, _, err := runLatency(f, qs, evs, drain)
		if err != nil {
			return nil, err
		}
		t.Add(f.Name, 0, float64(mean.Nanoseconds())/1000)
	}
	return t, nil
}

// Fig6b reproduces Figure 6b: throughput of 1..1000 concurrent tumbling
// windows with lengths equally distributed over 1–10 s.
func Fig6b(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig6b", Title: "Throughput of concurrent windows", XLabel: "windows", YLabel: "events/s"}
	sc, n := workloadStream(cfg, false)
	for _, w := range cfg.WindowCounts {
		qs := gen.TumblingSweep(w, 1000, 10000, operator.Average)
		evs, drain := stream(sc, scaleEvents(n, w))
		for _, f := range CentralSystems {
			r, err := runCentral(f, qs, evs, drain)
			if err != nil {
				return nil, err
			}
			t.Add(f.Name, float64(w), r.Throughput)
		}
	}
	return t, nil
}

// fig8 runs the §6.3.1 optimization workload: concurrent windows of mixed
// lengths, optionally half user-defined, reporting throughput and slices per
// event-time minute.
func fig8(cfg Config, userDefined bool, idT, idS string) (*Table, *Table, error) {
	cfg = cfg.withDefaults()
	tt := &Table{ID: idT, Title: "Throughput of concurrent windows", XLabel: "windows", YLabel: "events/s"}
	ts := &Table{ID: idS, Title: "Slices per minute", XLabel: "windows", YLabel: "slices/min"}
	sc, n := workloadStream(cfg, userDefined)
	sc.Keys = 1 // same keys: one shared stream of windows (§6.3)
	for _, w := range cfg.WindowCounts {
		qs := gen.TumblingSweep(w, 1000, 10000, operator.Average)
		if userDefined {
			for i := range qs {
				if i%2 == 1 {
					qs[i] = query.Query{
						ID: qs[i].ID, Pred: query.All(), Type: query.UserDefined,
						Funcs: []operator.FuncSpec{{Func: operator.Average}},
					}
				}
			}
		}
		events := scaleEvents(n, w)
		evs, drain := stream(sc, events)
		minutes := float64(evs[len(evs)-1].Time-evs[0].Time) / 60000
		for _, f := range OptimizationSystems {
			r, err := runCentral(f, qs, evs, drain)
			if err != nil {
				return nil, nil, err
			}
			tt.Add(f.Name, float64(w), r.Throughput)
			ts.Add(f.Name, float64(w), float64(r.Slices)/minutes)
		}
	}
	return tt, ts, nil
}

// Fig8a and Fig8b reproduce Figures 8a/8b (concurrent tumbling windows).
func Fig8ab(cfg Config) (*Table, *Table, error) { return fig8(cfg, false, "fig8a", "fig8b") }

// Fig8cd reproduces Figures 8c/8d (half the windows user-defined).
func Fig8cd(cfg Config) (*Table, *Table, error) { return fig8(cfg, true, "fig8c", "fig8d") }

// fig9Workload builds the §6.3.2 mixes.
func fig9Queries(w int, kind string) []query.Query {
	var base []query.Query
	mk := func(funcs ...operator.FuncSpec) query.Query {
		return query.Query{Pred: query.All(), Type: query.Tumbling, Length: 1000, Funcs: funcs}
	}
	switch kind {
	case "avgsum":
		base = []query.Query{
			mk(operator.FuncSpec{Func: operator.Average}),
			mk(operator.FuncSpec{Func: operator.Sum}),
		}
	case "quantiles":
		base = nil
		for i := 0; i < w; i++ {
			arg := float64(1+i%999+1) / 1001
			base = append(base, mk(operator.FuncSpec{Func: operator.Quantile, Arg: arg}))
		}
	case "twofuncs":
		base = []query.Query{
			mk(operator.FuncSpec{Func: operator.Average}, operator.FuncSpec{Func: operator.Max}),
			mk(operator.FuncSpec{Func: operator.Sum}, operator.FuncSpec{Func: operator.Min}),
		}
	case "quantmax":
		base = nil
		for i := 0; i < w; i++ {
			arg := float64(1+i%999+1) / 1001
			base = append(base, mk(
				operator.FuncSpec{Func: operator.Quantile, Arg: arg},
				operator.FuncSpec{Func: operator.Max},
			))
		}
	case "measures":
		timeQ := mk(operator.FuncSpec{Func: operator.Average})
		countQ := query.Query{
			Pred: query.All(), Type: query.Tumbling, Measure: query.Count, Length: 10000,
			Funcs: []operator.FuncSpec{{Func: operator.Average}},
		}
		base = []query.Query{timeQ, countQ}
	}
	return replicate(base, w)
}

// Fig9 reproduces one panel of Figure 9. kind selects the workload:
// avgsum (9a/9b), quantiles (9c/9d), twofuncs (9e/9f), quantmax (9g),
// measures (9h). It returns the throughput table and the
// calculations-per-run table.
func Fig9(cfg Config, kind, idT, idC string) (*Table, *Table, error) {
	cfg = cfg.withDefaults()
	tt := &Table{ID: idT, Title: "Throughput, workload " + kind, XLabel: "windows", YLabel: "events/s"}
	tc := &Table{ID: idC, Title: "Executed calculations, workload " + kind, XLabel: "windows", YLabel: "calculations"}
	sc, n := workloadStream(cfg, false)
	sc.Keys = 1
	for _, w := range cfg.WindowCounts {
		qs := fig9Queries(w, kind)
		events := scaleEvents(n, w)
		evs, drain := stream(sc, events)
		for _, f := range OptimizationSystems {
			r, err := runCentral(f, qs, evs, drain)
			if err != nil {
				return nil, nil, err
			}
			tt.Add(f.Name, float64(w), r.Throughput)
			// Normalise calculations to per-10k-events so rows compare
			// across the event scaling.
			tc.Add(f.Name, float64(w), float64(r.Calculations)/float64(events)*10000)
		}
	}
	return tt, tc, nil
}

// Fig10 reproduces Figures 10a–10d: count-based windows where either the
// number of slices per window (sweepSlices=true) or the slice size varies.
// It returns throughput and latency tables.
func Fig10(cfg Config, sweepSlices bool, idT, idL string) (*Table, *Table, error) {
	cfg = cfg.withDefaults()
	xlabel := "slices/window"
	if !sweepSlices {
		xlabel = "events/slice"
	}
	tt := &Table{ID: idT, Title: "Throughput vs " + xlabel, XLabel: xlabel, YLabel: "events/s"}
	tl := &Table{ID: idL, Title: "Latency vs " + xlabel, XLabel: xlabel, YLabel: "mean latency (us)"}
	sc, n := workloadStream(cfg, false)
	sc.Keys = 1
	sweep := []int{1, 10, 100, 1000}
	for _, x := range sweep {
		sliceSize, slices := 1000, x
		if !sweepSlices {
			sliceSize, slices = x, 100
		}
		// Two count-based queries: the small one sets the slice grain, the
		// large one spans slices*sliceSize events.
		small := query.Query{
			ID: 1, Pred: query.All(), Type: query.Tumbling,
			Measure: query.Count, Length: int64(sliceSize),
			Funcs: []operator.FuncSpec{{Func: operator.Sum}},
		}
		big := small
		big.ID = 2
		big.Length = int64(sliceSize * slices)
		qs := []query.Query{small, big}
		events := n
		if minEvents := sliceSize * slices * 3; events < minEvents {
			events = minEvents
		}
		evs, drain := stream(sc, events)
		for _, f := range OptimizationSystems {
			r, err := runCentral(f, qs, evs, drain)
			if err != nil {
				return nil, nil, err
			}
			tt.Add(f.Name, float64(x), r.Throughput)
		}
		latEvents := events / 4
		if latEvents < sliceSize*slices*2 {
			latEvents = sliceSize * slices * 2
		}
		levs, ldrain := stream(sc, latEvents)
		for _, f := range OptimizationSystems {
			mean, _, err := runLatency(f, qs, levs, ldrain)
			if err != nil {
				return nil, nil, err
			}
			tl.Add(f.Name, float64(x), float64(mean.Nanoseconds())/1000)
		}
	}
	return tt, tl, nil
}

// Fig13a reproduces Figure 13a: throughput over the real-world-style random
// query mix as the number of queries grows.
func Fig13a(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig13a", Title: "Real-world query mix", XLabel: "queries", YLabel: "events/s"}
	sc := gen.StreamConfig{Seed: 5, Keys: 10, IntervalMS: 1, MarkerEvery: 2000, GapEvery: 5000, GapMS: 3000}
	for _, w := range cfg.WindowCounts {
		qs := gen.Queries(w, gen.QueryConfig{
			Seed: int64(w), Keys: 10, AllowCount: true,
			Types: []query.WindowType{query.Tumbling, query.Sliding, query.Session, query.UserDefined},
		})
		events := scaleEvents(cfg.Events, w)
		evs, drain := stream(sc, events)
		for _, f := range OptimizationSystems {
			r, err := runCentral(f, qs, evs, drain)
			if err != nil {
				return nil, err
			}
			t.Add(f.Name, float64(w), r.Throughput)
		}
	}
	return t, nil
}

// Fig7ab reproduces Figures 7a/7b: end-to-end throughput while adding local
// nodes, for a decomposable (average) and a non-decomposable (median)
// function. All locals connect through one intermediate, as in the paper.
func Fig7ab(cfg Config, median bool, id string) (*Table, error) {
	cfg = cfg.withDefaults()
	f := operator.Average
	if median {
		f = operator.Median
	}
	t := &Table{ID: id, Title: "Scalability with local nodes (" + f.String() + ")", XLabel: "local nodes", YLabel: "events/s"}
	qs := gen.TumblingSweep(10, 1000, 10000, f)
	sc := gen.StreamConfig{Seed: 3, Keys: 10, IntervalMS: 1}
	perLocal := cfg.Events / 2
	for locals := 1; locals <= cfg.Locals; locals++ {
		for _, d := range Deployments {
			r, err := buildAndRun(d, qs, locals, 1, 0, sc, perLocal)
			if err != nil {
				return nil, err
			}
			t.Add(d.Name, float64(locals), r.Throughput)
		}
	}
	return t, nil
}

// Fig11ab reproduces Figures 11a/11b: per-layer network overhead of one
// query in a local→intermediate→root chain, for average and median.
func Fig11ab(cfg Config, median bool, id string) (*Table, error) {
	cfg = cfg.withDefaults()
	f := operator.Average
	if median {
		f = operator.Median
	}
	t := &Table{ID: id, Title: "Network overhead by layer (" + f.String() + ")", XLabel: "layer (0=local,1=intermediate)", YLabel: "bytes"}
	qs := []query.Query{{
		ID: 1, Pred: query.All(), Type: query.Tumbling, Length: 1000,
		Funcs: []operator.FuncSpec{{Func: f}},
	}}
	sc := gen.StreamConfig{Seed: 4, Keys: 1, IntervalMS: 1}
	for _, d := range Deployments {
		r, err := buildAndRun(d, qs, 1, 1, 0, sc, cfg.Events)
		if err != nil {
			return nil, err
		}
		t.Add(d.Name, 0, float64(r.LocalBytes))
		t.Add(d.Name, 1, float64(r.InterBytes))
	}
	return t, nil
}

// Fig11c reproduces Figure 11c: network overhead of one query as the number
// of distinct keys grows (Desis and Disco).
func Fig11c(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig11c", Title: "Network overhead vs distinct keys", XLabel: "keys", YLabel: "bytes"}
	sc := gen.StreamConfig{Seed: 4, IntervalMS: 1}
	for keys := 1; keys <= cfg.Keys; keys *= 4 {
		var qs []query.Query
		for k := 0; k < keys; k++ {
			qs = append(qs, query.Query{
				ID: uint64(k + 1), Key: uint32(k), Pred: query.All(),
				Type: query.Tumbling, Length: 1000,
				Funcs: []operator.FuncSpec{{Func: operator.Average}},
			})
		}
		sc.Keys = keys
		for _, d := range Deployments[:2] { // Desis, Disco
			r, err := buildAndRun(d, qs, 1, 1, 0, sc, cfg.Events)
			if err != nil {
				return nil, err
			}
			t.Add(d.Name, float64(keys), float64(r.LocalBytes))
		}
	}
	return t, nil
}

// Fig11d reproduces Figure 11d: network overhead with growing concurrent
// windows over a single key — constant for Desis (slices shared), growing
// for Disco (per-window partials).
func Fig11d(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig11d", Title: "Network overhead vs concurrent windows", XLabel: "windows", YLabel: "bytes"}
	sc := gen.StreamConfig{Seed: 4, Keys: 1, IntervalMS: 1}
	for _, w := range cfg.WindowCounts {
		qs := gen.TumblingSweep(w, 1000, 10000, operator.Average)
		for _, d := range Deployments[:2] { // Desis, Disco
			r, err := buildAndRun(d, qs, 1, 1, 0, sc, cfg.Events/2)
			if err != nil {
				return nil, err
			}
			t.Add(d.Name, float64(w), float64(r.LocalBytes))
		}
	}
	return t, nil
}

// Fig13bc reproduces Figures 13b/13c: the Raspberry-Pi cluster, modelled as
// bandwidth-throttled links — throughput vs nodes (13b) and per-second
// network volume (13c). Fig13d covers the latency panel.
func Fig13bc(cfg Config, bandwidth float64) (*Table, *Table, error) {
	cfg = cfg.withDefaults()
	tb := &Table{ID: "fig13b", Title: "Throughput on bandwidth-limited cluster", XLabel: "local nodes", YLabel: "events/s"}
	tc := &Table{ID: "fig13c", Title: "Network volume per second", XLabel: "local nodes", YLabel: "bytes/s"}
	if bandwidth <= 0 {
		bandwidth = 4 << 20 // a deliberately small "1 GbE" stand-in so the plateau shows quickly
	}
	qs := gen.TumblingSweep(10, 1000, 10000, operator.Average)
	sc := gen.StreamConfig{Seed: 6, Keys: 10, IntervalMS: 1}
	perLocal := cfg.Events / 4
	for locals := 1; locals <= cfg.Locals; locals++ {
		for _, d := range Deployments {
			r, err := buildAndRun(d, qs, locals, 1, bandwidth, sc, perLocal)
			if err != nil {
				return nil, nil, err
			}
			tb.Add(d.Name, float64(locals), r.Throughput)
			bytesPerSec := float64(r.LocalBytes+r.InterBytes) * r.Throughput / float64(perLocal*locals)
			tc.Add(d.Name, float64(locals), bytesPerSec)
		}
	}
	return tb, tc, nil
}

// Fig13d reproduces Figure 13d (latency on the constrained cluster):
// end-to-end pipeline latency measured as the wall time between advancing
// every local node's watermark and the root catching up — the full
// local→intermediate→root round trip including throttled links.
func Fig13d(cfg Config, bandwidth float64) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{ID: "fig13d", Title: "Pipeline latency on bandwidth-limited cluster", XLabel: "-", YLabel: "mean latency (us)"}
	if bandwidth <= 0 {
		bandwidth = 4 << 20
	}
	qs := gen.TumblingSweep(10, 1000, 10000, operator.Average)
	for _, d := range Deployments {
		dep, err := d.Build(qs, 2, 1, bandwidth)
		if err != nil {
			return nil, err
		}
		sc := gen.StreamConfig{Seed: 7, Keys: 10, IntervalMS: 1}
		lat, err := pipelineLatency(dep, sc, cfg.Events/8)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		t.Add(d.Name, 0, float64(lat.Nanoseconds())/1000)
	}
	return t, nil
}

// pipelineLatency feeds rounds of events and measures how long the root
// takes to catch up with each watermark.
func pipelineLatency(d baseline.Deployment, sc gen.StreamConfig, events int) (time.Duration, error) {
	n := d.NumLocals()
	streams := make([]*gen.Stream, n)
	for i := range streams {
		c := sc
		c.Seed = sc.Seed + int64(i)*131
		streams[i] = gen.NewStream(c)
	}
	const rounds = 24
	perRound := events / rounds / n
	if perRound < 64 {
		perRound = 64
	}
	var total time.Duration
	measured := 0
	var batch []event.Event
	for r := 0; r < rounds; r++ {
		var maxT int64
		for i, s := range streams {
			batch = s.NextBatch(batch[:0], perRound)
			if err := d.Push(i, batch); err != nil {
				return 0, err
			}
			if s.Now() > maxT {
				maxT = s.Now()
			}
		}
		start := time.Now()
		if err := d.AdvanceAll(maxT); err != nil {
			return 0, err
		}
		for d.RootTime() < maxT {
			runtime.Gosched()
		}
		// Skip warm-up rounds.
		if r >= 4 {
			total += time.Since(start)
			measured++
		}
	}
	if err := d.Close(); err != nil {
		return 0, err
	}
	if measured == 0 {
		return 0, nil
	}
	return total / time.Duration(measured), nil
}

var errNoSuchFigure = fmt.Errorf("bench: unknown figure")
