// Package desis is a stream processing engine for efficient window
// aggregation over many concurrent queries, in one process or across a
// decentralized topology of local, intermediate, and root nodes.
//
// It reproduces the system of "Desis: Efficient Window Aggregation in
// Decentralized Networks" (EDBT 2023): queries with the same key and
// compatible selection predicates form query-groups whose windows — of any
// type (tumbling, sliding, session, user-defined), measure (time, count),
// and aggregation function (sum, count, average, product, geometric mean,
// min, max, median, quantile) — share one stream of slices, and whose
// functions share the primitive operators they decompose into. In
// decentralized deployments, slicing is pushed down to the data sources and
// only per-slice partial results travel upward.
//
// # Quickstart
//
//	q1, _ := desis.ParseQuery("tumbling(1s) average key=0")
//	q2, _ := desis.ParseQuery("sliding(10s,2s) max,quantile(0.99) key=0")
//	eng, _ := desis.NewEngine([]desis.Query{q1, q2}, desis.Options{})
//	eng.Process(desis.Event{Time: 1200, Key: 0, Value: 98.5})
//	...
//	for _, r := range eng.Results() { fmt.Println(r.QueryID, r.Start, r.End) }
//
// See the examples directory for runnable programs, DESIGN.md for the
// architecture, and EXPERIMENTS.md for the reproduced evaluation.
package desis

import (
	"fmt"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/gen"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

// Event is one stream record: event-time milliseconds, a key selecting the
// sub-stream, an optional user-defined-window marker, and the value.
type Event = event.Event

// MarkerBoundary tags an event as a user-defined window boundary.
const MarkerBoundary = event.MarkerBoundary

// Query is one continuous windowed aggregation; build it literally or with
// ParseQuery.
type Query = query.Query

// Predicate selects events by value; see All, Above, Below, Range.
type Predicate = query.Predicate

// Predicate constructors.
var (
	// All matches every value.
	All = query.All
	// Above matches values >= min.
	Above = query.Above
	// Below matches values < max.
	Below = query.Below
	// Range matches min <= value < max.
	Range = query.Range
)

// Window types.
const (
	Tumbling    = query.Tumbling
	Sliding     = query.Sliding
	Session     = query.Session
	UserDefined = query.UserDefined
)

// Window measures.
const (
	Time  = query.Time
	Count = query.Count
)

// FuncSpec names an aggregation function (with the quantile argument when
// applicable).
type FuncSpec = operator.FuncSpec

// Aggregation functions.
const (
	Sum      = operator.Sum
	CountFn  = operator.Count
	Average  = operator.Average
	Product  = operator.Product
	GeoMean  = operator.GeoMean
	Min      = operator.Min
	Max      = operator.Max
	Median   = operator.Median
	Quantile = operator.Quantile
)

// Result is one window's output for one query.
type Result = core.Result

// FuncValue is one evaluated aggregation function inside a Result.
type FuncValue = core.FuncValue

// ParseQuery reads either query syntax: the compact mini-language
// ("sliding(10s,2s) sum,quantile(0.9) key=1 value>=80") or, when the input
// starts with SELECT, the SQL-style form
// ("SELECT sum(value), quantile(value, 0.9) FROM stream WHERE key = 1 AND
// value >= 80 WINDOW SLIDING 10s SLIDE 2s").
func ParseQuery(s string) (Query, error) { return query.ParseAny(s) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(s string) Query {
	q, err := ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return q
}

// OptimizeMode controls the factor-window plan optimizer (see
// Options.Optimize). The zero value enables it.
type OptimizeMode uint8

const (
	// OptimizeOn (the default) lets the planner place eligible correlated
	// windows into factor-fed groups: when one query's length and slide are
	// integer multiples of another query's slide (same key and predicate),
	// the long windows assemble from the short group's merged per-period
	// partials instead of from raw slices. Results are identical either way.
	OptimizeOn OptimizeMode = iota
	// OptimizeOff disables the rewrite — the ablation setting the factor
	// benchmark compares against.
	OptimizeOff
)

// Options configures an Engine.
type Options struct {
	// OnResult streams window results as they complete; when nil, results
	// accumulate and are fetched with Results.
	OnResult func(Result)
	// Dedup enables the deduplication non-aggregate operator (§4.2.3 of
	// the paper): events identical in (time, value) within one slice are
	// processed once.
	Dedup bool
	// Optimize controls the factor-window plan optimizer. The zero value
	// (OptimizeOn) enables it; set OptimizeOff to force every query onto
	// raw slices (ablation, and the off leg of desis-bench -exp factor).
	Optimize OptimizeMode
	// ReorderHorizon, when positive, lets engines commit events up to
	// this much event time behind the slicing frontier into their
	// already-closed slices, repairing the affected window aggregates
	// in place; window emission defers by the same horizon so repaired
	// windows emit once, complete. Pair with NewReordererWithHorizon to
	// shrink the reorder buffer: slice-stale-but-window-fresh events
	// forward immediately instead of buffering. Zero keeps strict
	// in-order semantics.
	ReorderHorizon time.Duration
	// PruneThreshold is how many closed slices a query-group retains
	// before pruning ones no open window can need; 0 selects the default
	// (64). Stats.Pruned counts what retention dropped.
	PruneThreshold int
	// InstanceTTL, when positive, evicts group instances of keys idle for
	// this long (event time): their state is parked as a compact snapshot
	// and revived on the key's next event, with window results identical
	// to a never-evicted run. Zero keeps every instance resident. At
	// group-by (key=*) cardinality this bounds memory by the active key
	// set instead of every key ever seen.
	InstanceTTL time.Duration
	// InstanceShards is the shard count of the engine's key→instance
	// maps; 0 selects the default (16).
	InstanceShards int
	// Telemetry, when non-nil, instruments the engine with per-group
	// counters and latency histograms readable while it runs (see
	// NewTelemetry). Shards of a ParallelEngine share the registry.
	Telemetry *Telemetry
}

func (o Options) optimizeOn() bool { return o.Optimize != OptimizeOff }

// validate rejects contradictory option combinations up-front, against the
// query set the engine is being built for.
func (o Options) validate(queries []Query) error {
	if o.ReorderHorizon > 0 && len(queries) > 0 {
		// The horizon only repairs fixed time windows without deduplication
		// (see Config.ReorderHorizon): if no configured query has such a
		// shape the engine would silently run strict-order everywhere. A
		// partial mismatch is legal and surfaces as the one-shot
		// engine.horizon_disabled telemetry gauge instead.
		usable := false
		for _, q := range queries {
			if q.Measure == Time && (q.Type == Tumbling || q.Type == Sliding) {
				usable = true
				break
			}
		}
		if o.Dedup || !usable {
			return fmt.Errorf("desis: Options.ReorderHorizon is ignored by every configured query shape (late repair needs time-measure tumbling/sliding windows without Dedup)")
		}
	}
	return nil
}

func (o Options) coreConfig() core.Config {
	return core.Config{
		OnResult:       o.OnResult,
		ReorderHorizon: o.ReorderHorizon.Milliseconds(),
		PruneThreshold: o.PruneThreshold,
		InstanceTTL:    o.InstanceTTL.Milliseconds(),
		InstanceShards: o.InstanceShards,
		Optimize:       o.optimizeOn(),
		Telemetry:      o.Telemetry.registry(),
	}
}

// Engine is the single-node aggregation engine: all queries share slices and
// operators according to their query-groups. Events must arrive in
// non-decreasing event-time order. An Engine is not safe for concurrent use;
// run one per goroutine or serialise access.
type Engine struct {
	e *core.Engine
}

// NewEngine analyzes the queries into an execution plan (the epoch-versioned
// catalog every tier shares, see internal/plan) and builds the engine from
// it. Query IDs must be unique; zero IDs are assigned sequentially. Queries
// with key=* (AnyKey) register as group-by templates, instantiated per
// observed key with the concrete key reported in Result.Key.
func NewEngine(queries []Query, opts Options) (*Engine, error) {
	queries = assignIDs(queries)
	if err := opts.validate(queries); err != nil {
		return nil, err
	}
	p, err := plan.New(queries, plan.Options{Dedup: opts.Dedup, Optimize: opts.optimizeOn()})
	if err != nil {
		return nil, err
	}
	return &Engine{e: core.NewFromPlan(p, opts.coreConfig())}, nil
}

func assignIDs(queries []Query) []Query {
	out := append([]Query(nil), queries...)
	next := uint64(1)
	seen := map[uint64]bool{}
	for _, q := range out {
		if q.ID != 0 {
			seen[q.ID] = true
		}
	}
	for i := range out {
		if out[i].ID == 0 {
			for seen[next] {
				next++
			}
			out[i].ID = next
			seen[next] = true
		}
	}
	return out
}

// Process ingests one event.
func (e *Engine) Process(ev Event) { e.e.Process(ev) }

// ProcessBatch ingests a batch of in-order events.
func (e *Engine) ProcessBatch(evs []Event) { e.e.ProcessBatch(evs) }

// AdvanceTo moves event time to t without data, closing windows that end at
// or before t (e.g. session gaps at the end of a stream).
func (e *Engine) AdvanceTo(t int64) { e.e.AdvanceTo(t) }

// Results returns and clears accumulated window results (only without an
// OnResult callback).
func (e *Engine) Results() []Result { return e.e.Results() }

// AddQuery registers a query at runtime and returns its id.
func (e *Engine) AddQuery(q Query) (uint64, error) {
	if q.ID == 0 {
		return 0, fmt.Errorf("desis: AddQuery needs an explicit non-zero query ID")
	}
	if _, err := e.e.AddQuery(q); err != nil {
		return 0, err
	}
	return q.ID, nil
}

// RemoveQuery unregisters a running query.
func (e *Engine) RemoveQuery(id uint64) error { return e.e.RemoveQuery(id) }

// PlanEpoch returns the epoch of the engine's execution plan: 0 after
// construction, incremented by every runtime catalog change (AddQuery,
// RemoveQuery, template instantiation).
func (e *Engine) PlanEpoch() uint64 { return e.e.PlanEpoch() }

// DescribePlan renders the engine's live query catalog (groups, members,
// placement, templates and instances) for humans.
func (e *Engine) DescribePlan() string { return e.e.Plan().Describe() }

// Stats reports the engine's work counters.
type Stats = core.Stats

// Stats returns the engine's counters (events, operator calculations,
// slices, windows).
func (e *Engine) Stats() Stats { return e.e.Stats() }

// InstanceStats reports the key-space tier's lifecycle counters: live
// (materialised) group instances, instances parked by the idle-TTL
// eviction, and cumulative revivals. Without InstanceTTL only Live moves.
type InstanceStats = core.InstanceStats

// InstanceStats returns the engine's instance lifecycle counters.
func (e *Engine) InstanceStats() InstanceStats { return e.e.InstanceStats() }

// Snapshot serialises the engine's complete state for checkpointing. The
// engine must be quiescent. Persist the query set alongside; RestoreEngine
// needs both.
func (e *Engine) Snapshot() []byte { return e.e.Snapshot(nil) }

// RestoreEngine rebuilds an engine from the exact query set (same queries,
// ids, and order) and a snapshot taken by Snapshot, resuming precisely
// where the checkpoint was cut.
func RestoreEngine(queries []Query, opts Options, snapshot []byte) (*Engine, error) {
	queries = assignIDs(queries)
	if err := opts.validate(queries); err != nil {
		return nil, err
	}
	groups, err := query.Analyze(queries, query.Options{Dedup: opts.Dedup, Optimize: opts.optimizeOn()})
	if err != nil {
		return nil, err
	}
	e, err := core.Restore(groups, opts.coreConfig(), snapshot)
	if err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

// StreamConfig configures the synthetic sensor-stream generator used by the
// examples and benchmarks.
type StreamConfig = gen.StreamConfig

// Stream generates deterministic synthetic events.
type Stream = gen.Stream

// NewStream builds a synthetic stream generator.
func NewStream(cfg StreamConfig) *Stream { return gen.NewStream(cfg) }
