package bench

import (
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/gen"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// TestMultiqueryWorkloadSmoke runs the examples/multiquery workload shape
// (1000 mixed queries incl. 250 distinct quantiles and 250 sessions) as a
// performance-regression canary: it must complete quickly; the assembly
// optimisations (k-way run merge, per-member operator masks, min/max from
// run endpoints) keep it that way.
func TestMultiqueryWorkloadSmoke(t *testing.T) {
	var qs []query.Query
	for i := 0; i < 1000; i++ {
		q := query.Query{ID: uint64(i + 1), Pred: query.All()}
		switch i % 4 {
		case 0:
			q.Type = query.Tumbling
			q.Length = int64(1000 + (i%10)*1000)
			q.Funcs = []operator.FuncSpec{{Func: operator.Average}}
		case 1:
			q.Type = query.Sliding
			q.Length = 10_000
			q.Slide = int64(500 + (i%8)*500)
			q.Funcs = []operator.FuncSpec{{Func: operator.Sum}}
		case 2:
			q.Type = query.Tumbling
			q.Length = 5000
			q.Funcs = []operator.FuncSpec{{Func: operator.Quantile, Arg: float64(1+i%99) / 100}}
		case 3:
			q.Type = query.Session
			q.Gap = int64(200 + (i%5)*100)
			q.Funcs = []operator.FuncSpec{{Func: operator.Max}}
		}
		qs = append(qs, q)
	}
	p, err := plan.New(qs, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewFromPlan(p, core.Config{OnResult: func(core.Result) {}})
	s := gen.NewStream(gen.StreamConfig{Seed: 7, Keys: 1, IntervalMS: 1, GapEvery: 50_000, GapMS: 2000})
	start := time.Now()
	const n = 150_000
	for i := 0; i < n; i++ {
		e.Process(s.Next())
	}
	t.Logf("throughput %.0f ev/s, windows %d", n/time.Since(start).Seconds(), e.Stats().Windows)
}
