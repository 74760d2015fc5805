package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// Engine is the Desis aggregation engine: it executes every query-group over
// the incoming stream, sharing slices and operators between all windows of a
// group. One Engine instance runs per node; on local nodes it is configured
// with OnSlice and emits per-slice partial results instead of assembling
// windows.
//
// The engine owns a copy of the deployment's execution plan and materialises
// group state exclusively from it: the initial build and every runtime
// catalog change (Apply) flow through the same reconciliation (syncPlan), so
// an engine built from a plan at epoch N is identical to one that started
// earlier and applied the deltas leading to epoch N.
type Engine struct {
	cfg      Config
	plan     *plan.Plan
	byID     map[uint32]*groupState
	results  []Result
	stats    engineStats
	tmplKeys map[uint32]bool // keys whose template instantiation ran

	// horizonDisabled latches when any group's shape forced its effective
	// reorder horizon to 0 while Config.ReorderHorizon was positive — the
	// partial-degradation signal the engine.horizon_disabled gauge surfaces
	// (a full degradation is a config error the facade rejects up-front).
	horizonDisabled bool

	// The key-space tier (keyspace.go): instances live in hash-sharded
	// per-key maps, idle keys park as snapshot blobs, and ordered caches
	// the ascending-id iteration order AdvanceTo and Snapshot need.
	shards       [instanceShards]instShard
	byIDPeak     int // occupancy byID's buckets were grown for (shrinkIndexes)
	ordered      []*groupState
	orderedStale bool
	now          int64 // engine event clock: max event time / AdvanceTo seen
	ttl          int64 // idle horizon in event-time ms; 0 disables eviction
	sweepEvery   uint32
	sweepTick    uint32
	sweepCursor  int
	// sweepClock, when set, paces sweeps from the shared tick count
	// instead of the per-engine sweepTick counter (see SweepClock).
	sweepClock    *SweepClock
	lastSweepTick uint64

	// Batch ingest (batch.go): the generation the keys' quiet bounds are
	// checked against, and the scratch holding the memo in front of the
	// shard maps and the prefix being folded.
	quietGen uint64
	scratch  *batchScratch

	// Engine-level free lists recycling evicted keys' pooled memory into
	// future installs, and the scratch buffer eviction snapshots reuse.
	aggFree     [][]operator.Agg
	partialFree []*SlicePartial
	snapScratch []byte

	// tel, when attached, receives per-group counters and the assembly
	// latency histogram. telAsm is cached so the assembly path pays one
	// nil check, not a registry lookup; the lifecycle gauges are cached
	// likewise (nil-safe, so an unattached engine pays nothing).
	tel        *telemetry.Registry
	telAsm     *telemetry.Histogram
	telLive    *telemetry.Gauge
	telEvicted *telemetry.Gauge
	telRevived *telemetry.Gauge
}

// engineStats is the engine's work accounting. The counters are atomic
// because Stats() may be read concurrently with ingestion — most visibly
// through ParallelEngine.Stats(), which sums shard engines while their
// goroutines run Process. The single-writer ingest path still owns all
// increments; atomics only make the cross-goroutine reads defined.
type engineStats struct {
	events, calculations, slices, windows, pruned atomic.Uint64
	lateCommits, lateDropped                      atomic.Uint64

	// Key-space tier lifecycle accounting (see InstanceStats).
	instLive, instEvicted, instRevived atomic.Int64
}

// NewFromPlan builds an engine from an execution plan, taking ownership of
// it. Config.Placement selects which groups of the plan this engine
// materialises (a local node runs the distributed groups, the root engine
// the root-only ones); the plan itself always stays complete so runtime
// deltas reconcile identically on every tier.
func NewFromPlan(p *plan.Plan, cfg Config) *Engine {
	e := &Engine{
		cfg:      cfg,
		plan:     p,
		byID:     make(map[uint32]*groupState),
		quietGen: 1,
	}
	for i := range e.shards {
		e.shards[i] = instShard{
			byKey:   make(map[uint32]*keyEntry),
			evicted: make(map[uint32][]byte),
		}
	}
	e.ttl = cfg.InstanceTTL
	e.sweepClock = cfg.SweepClock
	e.sweepEvery = uint32(cfg.InstanceSweepEvery)
	if cfg.InstanceSweepEvery <= 0 {
		e.sweepEvery = DefaultInstanceSweepEvery
	}
	// Warm the catalog index now: the first runtime delta should pay its own
	// cost, not the O(catalog) lazy index build.
	p.Warm()
	e.syncPlan()
	if cfg.Telemetry != nil {
		e.AttachTelemetry(cfg.Telemetry)
	}
	return e
}

// AttachTelemetry connects the engine to a telemetry registry: per-group
// event/slice/window counters (group.<id>.…) and the window-assembly
// latency histogram. Groups installed later (runtime deltas, template
// instantiation) register on install. Attaching is idempotent; an engine
// without telemetry pays one nil-pointer branch per instrumented site
// and allocates nothing.
func (e *Engine) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	e.tel = reg
	e.telAsm = reg.Histogram("engine.assembly_latency")
	e.telLive = reg.Gauge("engine.instances_live")
	e.telEvicted = reg.Gauge("engine.instances_evicted")
	e.telRevived = reg.Gauge("engine.instances_revived")
	e.telLive.Set(e.stats.instLive.Load())
	e.telEvicted.Set(e.stats.instEvicted.Load())
	e.telRevived.Set(e.stats.instRevived.Load())
	if e.horizonDisabled {
		// Replay the one-shot signal for registries attached after the fact.
		reg.Gauge("engine.horizon_disabled").Set(1)
	}
	for _, gs := range e.orderedGroups() {
		gs.attachTelemetry(reg)
	}
}

// Plan exposes the engine's execution plan. Callers must treat it as
// read-only; mutation goes through Apply.
func (e *Engine) Plan() *plan.Plan { return e.plan }

// PlanEpoch returns the epoch of the engine's plan.
func (e *Engine) PlanEpoch() uint64 { return e.plan.Epoch }

// RecyclePartial returns a partial emitted through Config.OnSlice to the
// engine's pools once the consumer is done with it (e.g. after the wire
// codec encoded it). The partial and its aggregates must not be used
// afterwards. Passing partials the engine did not emit is a no-op.
func (e *Engine) RecyclePartial(p *SlicePartial) {
	if p == nil {
		return
	}
	if gs := e.byID[p.Group]; gs != nil {
		gs.recyclePartial(p)
	}
}

func (e *Engine) install(gs *groupState) {
	e.byID[gs.id] = gs
	if gs.feedFrom != nil {
		gs.feedFrom.taps = append(gs.feedFrom.taps, gs)
	}
	if len(e.byID) > e.byIDPeak {
		e.byIDPeak = len(e.byID)
	}
	sh := &e.shards[e.instShardOf(gs.key)]
	ent := sh.byKey[gs.key]
	if ent == nil {
		ent = &keyEntry{lastTouch: e.now}
		sh.byKey[gs.key] = ent
		if len(sh.byKey) > sh.byKeyPeak {
			sh.byKeyPeak = len(sh.byKey)
		}
	}
	// Installs happen in ascending group-id order (plan construction and
	// runtime deltas both append monotonically increasing ids; revival
	// replays blobs in eviction order, which preserved it), so ent.groups
	// stays sorted without ever sorting.
	ent.groups = append(ent.groups, gs)
	e.orderedStale = true
	e.stats.instLive.Add(1)
	e.telLive.Add(1)
	if e.tel != nil {
		gs.attachTelemetry(e.tel)
	}
}

// Process ingests one event, routing it to every group of its key through
// the sharded instance maps. The first event of an unseen key instantiates
// any registered group-by templates for it; an event for a parked key
// revives it first.
//
//desis:hotpath
func (e *Engine) Process(ev event.Event) { e.process(ev, nil) }

// process is Process with the key's resident entry when the caller already
// routed the event (ProcessBatch hands it every event that is not quiet, see
// batch.go); nil looks it up.
//
//desis:hotpath
func (e *Engine) process(ev event.Event, ent *keyEntry) {
	if ev.Time > e.now {
		e.now = ev.Time
	}
	if len(e.plan.Templates) > 0 && !e.tmplKeys[ev.Key] {
		//lint:ignore hotalloc cold path: template instantiation runs once per unseen key, through the full plan-delta machinery
		e.instantiateTemplates(ev.Key)
		ent = nil // the instances may be the key's first groups
	}
	if ent == nil {
		if ent = e.lookup(ev.Key); ent == nil {
			if len(e.shards[e.instShardOf(ev.Key)].evicted) == 0 {
				return
			}
			//lint:ignore hotalloc cold path: reviving a parked key replays its eviction snapshot, once per idle period
			ent = e.reviveKey(ev.Key)
			if ent == nil {
				return
			}
		}
	}
	ent.lastTouch = e.now
	ent.gen = 0 // the event may move a punctuation: the key's quiet bounds go
	for _, gs := range ent.groups {
		gs.process(ev)
	}
	if e.ttl > 0 {
		e.maybeSweep(1)
	}
}

// Apply mutates the engine's plan by one delta and reconciles group state
// with the result. It is the single mutation path: AddQuery, RemoveQuery
// and template instantiation all funnel through here, as do deltas arriving
// over the wire in decentralized deployments.
func (e *Engine) Apply(d plan.Delta) error {
	if err := e.plan.Apply(d); err != nil {
		return err
	}
	e.quietGen++
	if d.Kind == plan.DeltaInstantiate {
		if e.tmplKeys == nil {
			e.tmplKeys = make(map[uint32]bool)
		}
		e.tmplKeys[d.Key] = true
	}
	if d.Kind == plan.DeltaRemoveQuery && len(e.plan.Templates) == 0 {
		// Removing the last template forgets the seen-key set: the entries
		// only gate instantiation, and a template registered later must
		// re-observe its keys (instantiateForSeenKeys over a stale set
		// would materialise instances for keys the new template never saw).
		e.tmplKeys = nil
	}
	// Only the groups the delta mutated need reconciling; every other group
	// was reconciled when it last changed, so delta application stays O(1)
	// in the catalog size.
	for _, g := range e.plan.Touched() {
		e.syncGroup(g)
	}
	return nil
}

// ResyncPlan replaces the engine's plan with a newer full copy of the same
// lineage (a reconnecting node that is too stale for an epoch diff receives
// one) and reconciles group state. The new plan must extend the current one:
// every materialised group must still exist with at least its known members.
func (e *Engine) ResyncPlan(p *plan.Plan) error {
	if p.Epoch < e.plan.Epoch {
		return fmt.Errorf("core: resync plan epoch %d behind engine epoch %d", p.Epoch, e.plan.Epoch)
	}
	// Parked keys are not validated here: their snapshots replay against
	// the new plan on revival, where the same divergence panics.
	for _, gs := range e.orderedGroups() {
		g := p.GroupByID(gs.id)
		if g == nil {
			return fmt.Errorf("core: resync plan lost group %d", gs.id)
		}
		if len(g.Queries) < len(gs.members) || g.Key != gs.key || g.Placement != gs.placement {
			return fmt.Errorf("core: resync plan diverges on group %d", gs.id)
		}
	}
	e.plan = p
	p.Warm()
	e.quietGen++
	e.syncPlan()
	return nil
}

// syncPlan reconciles every materialised group with the plan's catalog: the
// one install path shared by initial construction, runtime deltas, and full
// resyncs.
func (e *Engine) syncPlan() {
	for _, g := range e.plan.Groups {
		e.syncGroup(g)
	}
	for _, in := range e.plan.Instances {
		if e.tmplKeys == nil {
			e.tmplKeys = make(map[uint32]bool)
		}
		e.tmplKeys[in.Key] = true
	}
}

// syncGroup brings one group's runtime state in line with its catalog entry:
// missing state is installed (subject to the placement filter), new contexts
// and members are registered, a changed operator mask takes effect from an
// administrative punctuation at the current event time, and tombstoned
// members are dropped from the trackers. Existing members and slices are
// untouched, so the member indices EPs carry stay stable across the
// topology.
func (e *Engine) syncGroup(g *groupOf) {
	if e.keyParked(g.Key) {
		// A delta touched a parked key: revive before reconciling, so the
		// reconciliation below sees the same live state a never-evicted
		// engine would. reviveKey re-enters syncGroup for each restored
		// group (with the key no longer parked); the pass below is then
		// idempotent. A blob never covers a group the delta just created,
		// so fall through to install those.
		e.reviveKey(g.Key)
	}
	gs := e.byID[g.ID]
	if gs == nil {
		// The placement filter selects the tier's share of the plan; the
		// ownership check keeps a shard from materialising groups whose keys
		// the shard map routes elsewhere.
		if !e.cfg.Placement.accepts(g.Placement) || !e.plan.Owns(g.Key) {
			return
		}
		gs = newGroupState(e, g)
		e.install(gs)
		gs.alignFed(0)
		return
	}
	changed := false
	if len(g.Contexts) > len(gs.contexts) {
		gs.contexts = append(gs.contexts, g.Contexts[len(gs.contexts):]...)
		changed = true
	}
	if g.Ops != gs.ops {
		gs.ops = g.Ops
		gs.logicalOps = uint64(g.LogicalOps.NumOps())
		changed = true
	}
	if len(g.Queries) > len(gs.members) {
		changed = true
	}
	if changed && gs.started {
		// Close the running slice at an administrative punctuation so every
		// slice has a uniform operator mask and joining members register at
		// the current stream position (they answer no earlier windows).
		cut := gs.lastEventTime
		if cut < gs.lastPunct {
			cut = gs.lastPunct
		}
		gs.closeSlice(cut)
		gs.flushPending()
		gs.cur.aggs = gs.newAggs()
	}
	if n := len(gs.members); len(g.Queries) > n {
		for i := n; i < len(g.Queries); i++ {
			gs.addMember(g.Queries[i])
		}
		// Fed members register against the feeder's stream position, not
		// this group's (raw events never advance it); see alignFed.
		gs.alignFed(n)
	}
	for i := range gs.members {
		if g.Queries[i].Removed && !gs.members[i].removed {
			gs.removeMember(i)
			changed = true
		}
	}
	if changed && gs.started {
		gs.nextTimeBound = gs.cal.NextBoundary(gs.lastPunct)
		gs.nextCountID = gs.countCal.NextBoundary(gs.count)
	}
}

// AddQuery admits a query at runtime (§3.2) through a plan delta. The query
// joins an existing compatible query-group when one exists — the group's
// current slice is closed at an administrative punctuation so the widened
// operator set applies from here on — or founds a new group. Windows that
// started before registration are not answered. It returns the id of the
// group the query joined (0 for group-by templates, which live in the
// catalog until keys instantiate them).
func (e *Engine) AddQuery(q query.Query) (groupID uint32, err error) {
	if err := e.Apply(e.plan.AddDelta(q)); err != nil {
		return 0, err
	}
	if q.AnyKey {
		return 0, e.instantiateForSeenKeys(q)
	}
	g, _, ok := e.plan.Lookup(q.ID)
	if !ok {
		return 0, fmt.Errorf("core: query %d vanished after admission", q.ID)
	}
	return g.ID, nil
}

// instantiateForSeenKeys materialises a just-registered template for every
// key whose instantiation already ran; keys not yet seen pick it up with
// their next event.
func (e *Engine) instantiateForSeenKeys(t query.Query) error {
	for k := range e.tmplKeys {
		if !e.plan.Owns(k) || e.plan.Instantiated(t.ID, k) {
			continue
		}
		if err := e.Apply(e.plan.InstantiateDelta(t.ID, k)); err != nil {
			return err
		}
	}
	return nil
}

// instantiateTemplates materialises every registered template for a freshly
// observed key — but only when this engine's plan owns the key, so in a
// sharded deployment exactly one shard instantiates each key.
func (e *Engine) instantiateTemplates(k uint32) {
	if e.tmplKeys == nil {
		e.tmplKeys = make(map[uint32]bool)
	}
	e.tmplKeys[k] = true
	if !e.plan.Owns(k) {
		return
	}
	for _, t := range e.plan.Templates {
		if e.plan.Instantiated(t.ID, k) {
			continue
		}
		// Template queries validated at admission; instantiation of a fresh
		// key cannot fail placement.
		_ = e.Apply(e.plan.InstantiateDelta(t.ID, k))
	}
}

// RemoveQuery retires a running query immediately through a plan delta; its
// open windows are abandoned (§3.2 also allows waiting for the last window,
// which callers get by delaying this call until the window result arrives).
// For group-by templates it removes the template and every per-key instance.
func (e *Engine) RemoveQuery(id uint64) error {
	return e.Apply(e.plan.RemoveDelta(id))
}

// AdvanceTo moves event time forward to t without ingesting data: every
// punctuation at or before t fires. Decentralized deployments drive this
// from watermarks (§5.1.2); tests and harnesses use it to drain the final
// windows of a replayed stream.
func (e *Engine) AdvanceTo(t int64) {
	if t > e.now {
		e.now = t
	}
	e.quietGen++
	// Parked keys owe punctuation work too (idle started groups emit empty
	// windows at every boundary), so a watermark revives the whole key
	// space; the sweep re-parks what stays idle.
	e.reviveAll()
	for _, gs := range e.orderedGroups() {
		gs.advanceTime(t)
		// An explicit watermark asserts nothing older than t is coming, so
		// deferred emissions up to t fire even inside the reorder horizon.
		gs.drainDeferred(t)
	}
}

// Results returns and clears the window results accumulated so far. It is
// only useful when no OnResult callback was configured.
func (e *Engine) Results() []Result {
	r := e.results
	e.results = nil
	return r
}

// Stats returns a snapshot of the engine's work counters. It is safe to
// call concurrently with ingestion: each counter is read atomically (the
// snapshot is per-counter consistent, not a cross-counter cut).
func (e *Engine) Stats() Stats {
	return Stats{
		Events:       e.stats.events.Load(),
		Calculations: e.stats.calculations.Load(),
		Slices:       e.stats.slices.Load(),
		Windows:      e.stats.windows.Load(),
		Pruned:       e.stats.pruned.Load(),
		LateCommits:  e.stats.lateCommits.Load(),
		LateDropped:  e.stats.lateDropped.Load(),
	}
}

// recordAssembly feeds the window-assembly latency histogram with one
// sample per punctuation boundary: the time to assemble and emit every
// member window ending there, which is the delay the last result of the
// boundary observes (and where the index's flip bursts surface). t0 is
// zero when telemetry is unattached (see groupState.beginAssembly).
func (e *Engine) recordAssembly(t0 time.Time) {
	if !t0.IsZero() {
		e.telAsm.Record(time.Since(t0))
	}
}

func (e *Engine) emit(r Result) {
	e.stats.windows.Add(1)
	if e.cfg.OnResult != nil {
		e.cfg.OnResult(r)
		return
	}
	e.results = append(e.results, r)
}

// noteHorizonDisabled latches the engine.horizon_disabled gauge: some group
// cannot honor the configured reorder horizon (shape- or mode-incompatible,
// see groupState.refreshOOO) and silently runs strict-order instead. One-shot
// so the hot reconcile path pays at most one gauge write per engine lifetime.
func (e *Engine) noteHorizonDisabled() {
	if e.horizonDisabled {
		return
	}
	e.horizonDisabled = true
	if e.tel != nil {
		e.tel.Gauge("engine.horizon_disabled").Set(1)
	}
}
