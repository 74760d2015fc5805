// Package core implements the Desis aggregation engine (§4): it slices the
// concurrent windows of each query-group at every start/end punctuation,
// executes the group's operator union once per event, and assembles window
// results (or emits per-slice partial results, when deployed on a local node
// of a decentralized topology) from the shared slices.
package core

import (
	"desis/internal/operator"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// FuncValue is the evaluated value of one aggregation function of a query.
type FuncValue struct {
	// Spec is the function that was evaluated.
	Spec operator.FuncSpec
	// Value is the result; meaningless when OK is false.
	Value float64
	// OK is false when the window was empty and the function is undefined
	// on empty input (everything except count).
	OK bool
}

// Result is the output of one window of one query.
type Result struct {
	// QueryID identifies the query (the template id for group-by queries).
	QueryID uint64
	// Key is the event key the window aggregated — meaningful for group-by
	// template instances, fixed to the query's key otherwise.
	Key uint32
	// Start and End bound the window: event-time milliseconds for
	// time-based windows, event ordinals for count-based ones.
	Start, End int64
	// Count is the number of events aggregated into the window.
	Count int64
	// Values holds one entry per aggregation function of the query.
	Values []FuncValue
}

// EP is an end punctuation that travelled with a slice partial: it tells
// upstream nodes that a dynamic (session or user-defined) window of the
// group ended (§5.1.2). Fixed windows need no EPs — their boundaries are
// recomputed from the window attributes on every node.
type EP struct {
	// QueryIdx indexes the group's Queries slice. Groups are formed
	// deterministically, so the index means the same on every node.
	QueryIdx int32
	// Start and End are the window bounds in event time.
	Start, End int64
	// GapStart is the time of the last event before the inactivity gap for
	// session windows (the root checks that gaps cover each other); zero
	// for user-defined windows.
	GapStart int64
}

// SlicePartial is the per-slice partial result a local or intermediate node
// ships to its parent (§5.1). It carries one aggregate per selection context
// of the group.
type SlicePartial struct {
	// Group identifies the query-group.
	Group uint32
	// ID is the auto-incrementing slice id within (node, group).
	ID uint64
	// Start and End bound the slice in event time.
	Start, End int64
	// LastEvent is the time of the newest event the producing node had
	// seen when the slice closed; it doubles as the node's watermark.
	LastEvent int64
	// Ingested is the number of events the slice ingested before selection
	// predicates, i.e. the activity signal session reconstruction needs —
	// an event can extend a session even when every predicate rejects it.
	Ingested int64
	// Aggs holds the partial aggregate per selection context.
	Aggs []operator.Agg
	// EPs lists dynamic window ends that coincide with this slice close.
	EPs []EP
}

// Clone returns a deep copy sharing no memory with p, safe to retain after p
// is recycled. Used by the uplink batcher's queue, which must not hold
// references into the engine's partial pool.
func (p *SlicePartial) Clone() *SlicePartial {
	c := *p
	c.Aggs = make([]operator.Agg, len(p.Aggs))
	for i := range p.Aggs {
		c.Aggs[i] = p.Aggs[i].CloneState()
	}
	c.EPs = append([]EP(nil), p.EPs...)
	return &c
}

// Events reports the total number of events across all contexts of the
// partial.
func (p *SlicePartial) Events() int64 {
	var n int64
	for i := range p.Aggs {
		n += p.Aggs[i].CountV
	}
	return n
}

// Stats counts the engine's work, matching the accounting of the paper's
// evaluation.
type Stats struct {
	// Events is the number of events ingested (after key routing).
	Events uint64
	// Calculations is the number of logical operator executions: per event
	// and matching selection context, the Table-1 operator union size of
	// the group (Figures 9b, 9d, 9f).
	Calculations uint64
	// Slices is the number of slices produced (Figures 8b, 8d).
	Slices uint64
	// Windows is the number of window results emitted.
	Windows uint64
	// Pruned is the number of closed slices dropped by retention pruning
	// (see Config.PruneThreshold).
	Pruned uint64
	// LateCommits is the number of out-of-order events committed into
	// already-closed slices (see Config.ReorderHorizon).
	LateCommits uint64
	// LateDropped is the number of out-of-order events dropped because
	// they fell behind the emission frontier (or the group cannot repair
	// late commits: slice-emitting mode, dedup, count/session/user-defined
	// windows).
	LateDropped uint64
}

// DefaultPruneThreshold is the closed-slice count below which a group skips
// retention pruning (Config.PruneThreshold = 0 selects it).
const DefaultPruneThreshold = 64

// PlacementFilter selects which groups of the execution plan an engine
// materialises. The plan itself is always held complete, so runtime deltas
// reconcile identically on every tier; the filter only gates local state.
type PlacementFilter uint8

// The placement filters.
const (
	// AllGroups materialises every group (central deployments).
	AllGroups PlacementFilter = iota
	// DistributedOnly materialises the distributed groups — what a local
	// node slices; root-only groups' raw events are forwarded instead.
	DistributedOnly
	// RootOnlyGroups materialises the root-only groups — what the root's
	// own engine evaluates over forwarded raw events.
	RootOnlyGroups
)

// accepts reports whether the filter admits a group of the given placement.
func (f PlacementFilter) accepts(p query.Placement) bool {
	switch f {
	case DistributedOnly:
		return p == query.Distributed
	case RootOnlyGroups:
		return p == query.RootOnly
	}
	return true
}

// Config configures an Engine.
type Config struct {
	// OnResult receives window results as they are produced. When nil,
	// results accumulate and are retrieved with Results.
	OnResult func(Result)
	// OnSlice, when non-nil, puts the engine into slice-emitting mode: the
	// mode local nodes run in. Slices are shipped instead of stored and no
	// windows are assembled locally.
	OnSlice func(*SlicePartial)
	// OnWindowAgg, when non-nil, intercepts window completion with the
	// merged (finished) aggregate instead of evaluating the functions and
	// emitting a Result. Disco-style systems use it to ship per-window
	// partial results (§5: "Disco has to send partial results per window").
	// The aggregate is only valid for the duration of the call.
	OnWindowAgg func(queryID uint64, start, end int64, agg *operator.Agg)
	// PerEventBoundaryCheck disables the advance punctuation calendar and
	// re-derives the next boundary on every event — the strategy of the
	// baseline systems, kept for the ablation benchmark.
	PerEventBoundaryCheck bool
	// Assembly selects the window-assembly strategy (see AssemblyKind):
	// two-stacks (default, O(1) amortized), DABA-Lite (worst-case O(1),
	// no rebuild bursts), or naive per-window re-folding (the ablation
	// baseline, the seed behavior).
	Assembly AssemblyKind
	// ReorderHorizon, when positive, admits events up to this many
	// event-time milliseconds behind a group's last punctuation: the late
	// event commits into the already-closed slice covering it (or a slice
	// inserted for it) and the assembly index repairs the affected rows,
	// while window emission at boundaries younger than the horizon defers
	// until the horizon passes. Pairs with NewReordererWithHorizon, which
	// forwards slice-stale-but-window-fresh events instead of buffering
	// them. 0 (the default) keeps strict in-order semantics.
	ReorderHorizon int64
	// SweepClock, when non-nil, replaces the per-engine event counter
	// that paces TTL sweep steps with a shared clock: every engine ticks
	// it per event and sweeps when the global tick count advanced by
	// InstanceSweepEvery since its own last sweep. ParallelEngine shares
	// one clock across shards so sweep cadence stays uniform under skewed
	// shard load. Only meaningful with InstanceTTL set.
	SweepClock *SweepClock
	// PruneThreshold is the closed-slice count a group retains before
	// pruning slices no open window can need; 0 selects
	// DefaultPruneThreshold. Larger values trade memory for fewer
	// compactions.
	PruneThreshold int
	// InstanceTTL, when positive, evicts keys idle for this many
	// event-time milliseconds: their group instances are serialised into a
	// compact snapshot and dropped, to be revived on the key's next event
	// (or plan delta, or AdvanceTo) with windows identical to a
	// never-evicted run. 0 disables eviction. See keyspace.go.
	InstanceTTL int64
	// InstanceShards is the shard count of the engine's key→instance maps;
	// 0 selects DefaultInstanceShards. More shards shorten TTL sweep steps
	// at the cost of more (small) maps.
	InstanceShards int
	// InstanceSweepEvery is how many ingested events pass between two TTL
	// sweep steps; 0 selects DefaultInstanceSweepEvery. Only meaningful
	// with InstanceTTL set.
	InstanceSweepEvery int
	// Decentralized applies the decentralized placement rules when queries
	// are added at runtime (count-based windows are RootOnly, §5.2). Only
	// consulted by the legacy New constructor when it wraps groups into a
	// plan; NewFromPlan callers encode placement in the plan itself.
	Decentralized bool
	// Optimize enables the factor-window optimizer for queries added at
	// runtime: eligible correlated windows place into fed groups assembled
	// from another group's super-slices (see internal/query/factor.go). Like
	// Decentralized, it is only consulted by the groups-based constructors
	// (New, Restore) when they wrap the groups into a plan; NewFromPlan
	// callers carry the flag in the plan itself, where it rides the wire so
	// every tier of a topology replays deltas identically.
	Optimize bool
	// Placement gates which groups of the plan this engine materialises.
	Placement PlacementFilter
	// Telemetry, when non-nil, attaches the engine to a telemetry registry
	// at construction (equivalent to calling AttachTelemetry afterwards):
	// per-group event/slice/window counters plus the assembly-latency
	// histogram. Nil costs one predictable branch per instrumented site.
	Telemetry *telemetry.Registry
	// TraceName labels this engine's slice-lifecycle trace events (the
	// node= field) under the desis_trace build tag; unused otherwise.
	TraceName string
}

// groupOf re-exports the analyzer's group type for readability.
type groupOf = query.Group
