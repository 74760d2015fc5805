package baseline

import (
	"fmt"
	"sort"
	"strings"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/plan"
	"desis/internal/query"
)

// partitioned shares partial results only within partitions of queries that
// have identical keys, selection predicates, aggregation functions, and
// (optionally) window measures. One slicing engine runs per partition, so an
// event is processed once per partition instead of once overall — the
// behaviour of Scotty and DeSW that Desis' operator sharing removes (§6.3).
type partitioned struct {
	name    string
	engines []*core.Engine
	byKey   map[uint32][]*core.Engine
	results []core.Result
}

// NewDeSW builds the Desis-Sharing-Windows baseline: sharing requires the
// same aggregation functions and the same window measure (§6.1.1).
func NewDeSW(queries []query.Query) (System, error) {
	return newPartitioned("DeSW", queries, true)
}

// NewScotty builds the Scotty baseline: general window slicing with sharing
// between windows that have the same aggregation functions (§6.1.1); it is a
// centralized system.
func NewScotty(queries []query.Query) (System, error) {
	return newPartitioned("Scotty", queries, false)
}

// partitionKey buckets queries into the groups a function-sharing slicer can
// serve with one slice stream.
func partitionKey(q query.Query, splitMeasure bool) string {
	specs := make([]string, len(q.Funcs))
	for i, f := range q.Funcs {
		specs[i] = f.String()
	}
	sort.Strings(specs)
	k := fmt.Sprintf("k%d|p%g:%g|f%s", q.Key, q.Pred.Min, q.Pred.Max, strings.Join(specs, ","))
	if splitMeasure {
		k += "|m" + q.Measure.String()
	}
	return k
}

func newPartitioned(name string, queries []query.Query, splitMeasure bool) (*partitioned, error) {
	parts := make(map[string][]query.Query)
	var order []string
	for _, q := range queries {
		k := partitionKey(q, splitMeasure)
		if _, ok := parts[k]; !ok {
			order = append(order, k)
		}
		parts[k] = append(parts[k], q)
	}
	s := &partitioned{name: name, byKey: make(map[uint32][]*core.Engine)}
	for _, k := range order {
		qs := parts[k]
		p, err := plan.New(qs, plan.Options{})
		if err != nil {
			return nil, err
		}
		e := core.NewFromPlan(p, core.Config{OnResult: func(r core.Result) {
			s.results = append(s.results, r)
		}})
		s.engines = append(s.engines, e)
		s.byKey[qs[0].Key] = append(s.byKey[qs[0].Key], e)
	}
	return s, nil
}

// Name implements System.
func (s *partitioned) Name() string { return s.name }

// Process implements System. Every partition of the event's key runs its own
// slicing — the per-event cost grows with the number of distinct function
// sets, which is the effect Figure 9 measures.
func (s *partitioned) Process(ev event.Event) {
	for _, e := range s.byKey[ev.Key] {
		e.Process(ev)
	}
}

// AdvanceTo implements System.
func (s *partitioned) AdvanceTo(t int64) {
	for _, e := range s.engines {
		e.AdvanceTo(t)
	}
}

// Results implements System.
func (s *partitioned) Results() []core.Result {
	r := s.results
	s.results = nil
	return r
}

// Calculations implements System.
func (s *partitioned) Calculations() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.Stats().Calculations
	}
	return n
}

// Slices implements System.
func (s *partitioned) Slices() uint64 {
	var n uint64
	for _, e := range s.engines {
		n += e.Stats().Slices
	}
	return n
}
