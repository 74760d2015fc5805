package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
)

// The key-space tier: at group-by scale (one instance per user key, §6.5)
// the engine cannot afford either a flat instance list scanned on reconcile
// or resident state for every key that ever appeared. Instances therefore
// live in hash-sharded maps — the same key→shard routing the execution plan
// uses across engines (plan.ShardOf), extended one level down — and idle
// keys are parked: a TTL sweep serialises a cold key's groups through the
// snapshot machinery into one compact blob, returns their aggregate rows and
// partials to the engine-level free lists, and drops the live state. The
// key's next event (or a plan delta touching it, or an AdvanceTo) restores
// the blob, producing windows identical to a never-evicted run.

// instanceShards is the instance-map shard count. More shards shorten TTL
// sweep steps at the cost of more (small) maps.
const instanceShards = 16

// DefaultInstanceSweepEvery is how many ingested events pass between two
// TTL sweep steps when Config.InstanceSweepEvery = 0.
const DefaultInstanceSweepEvery = 1024

// sweepBatch bounds how many keys one sweep step examines, so eviction work
// amortises into the ingest path instead of pausing it: a step costs at most
// one bounded map scan. Go map iteration starts at a random bucket, so
// repeated partial scans cover the shard probabilistically; the TTL is a
// floor, not an exact horizon.
const sweepBatch = 512

// engineFreeCap bounds the engine-level aggregate-row and partial free
// lists that recycle evicted keys' pool contents into future installs.
const engineFreeCap = 256

// keyEntry is one key's resident state: its materialised group instances
// (ascending group id, the order installs happen in), the event-time clock
// of its last touch, read by the TTL sweep, and what batch ingest keeps per
// key (batch.go): the quiet bounds, current while gen equals the engine's
// quietGen, and the run the prefix being scanned holds for the key.
type keyEntry struct {
	groups    []*groupState
	lastTouch int64

	gen   uint64
	quiet quietState
	run   keyRun
}

// instShard is one shard of the key-space tier: the resident entries and
// the parked keys' snapshot blobs (each blob starts with its group count).
// Only the lifecycle code (install, evict, revive, shrink — see the
// sliceinvariant writer set) mutates the maps; everything else reads.
// byKeyPeak is the occupancy the map's buckets were grown for, read by the
// shrink pass.
type instShard struct {
	byKey     map[uint32]*keyEntry
	evicted   map[uint32][]byte
	byKeyPeak int
}

// instShardOf routes a key to its instance-map shard, mirroring the plan's
// key→shard map one level down.
func (e *Engine) instShardOf(key uint32) uint32 {
	return key % instanceShards
}

// keyParked reports whether key currently lives as an eviction snapshot.
func (e *Engine) keyParked(key uint32) bool {
	sh := &e.shards[e.instShardOf(key)]
	_, ok := sh.evicted[key]
	return ok
}

// orderedGroups returns the materialised groups in ascending id order — the
// install order of a never-evicting engine, so iteration-order-dependent
// paths (AdvanceTo, Snapshot) behave identically across evict/revive
// cycles. The slice is cached and rebuilt only after a lifecycle change.
func (e *Engine) orderedGroups() []*groupState {
	if !e.orderedStale {
		return e.ordered
	}
	e.ordered = e.ordered[:0]
	for _, gs := range e.byID {
		e.ordered = append(e.ordered, gs)
	}
	sort.Slice(e.ordered, func(i, j int) bool { return e.ordered[i].id < e.ordered[j].id })
	if n := len(e.ordered); cap(e.ordered) >= instShrinkFloor && n*instShrinkRatio < cap(e.ordered) {
		// Drop the peak-sized backing array once eviction has emptied it.
		e.ordered = append(make([]*groupState, 0, n), e.ordered...)
	}
	e.orderedStale = false
	return e.ordered
}

// maybeSweep advances the sweep clock by n ingested events (one from
// Process, a quiet prefix's count from ProcessBatch, which cuts its prefixes
// at untilSweep so the clock does not pass the period inside one) and, every
// InstanceSweepEvery events, scans a bounded batch of one shard for keys
// idle past the TTL. It reports whether it did.
//
//desis:hotpath
func (e *Engine) maybeSweep(n uint32) bool {
	if c := e.sweepClock; c != nil {
		// Shared clock: sweep when the global tick count — total events
		// across every engine on the clock — advanced a full period since
		// this engine's last sweep, so sweep cadence stays uniform under
		// skewed shard load.
		tick := c.Advance(uint64(n))
		if tick-e.lastSweepTick < uint64(e.sweepEvery) {
			return false
		}
		e.lastSweepTick = tick
	} else {
		e.sweepTick += n
		if e.sweepTick < e.sweepEvery {
			return false
		}
		e.sweepTick = 0
	}
	//lint:ignore hotalloc amortised cold path: one bounded shard scan every InstanceSweepEvery ticks; eviction snapshots reuse the engine's scratch buffer
	e.sweepStep()
	return true
}

// untilSweep is how many more events the sweep clock takes before a sweep
// falls due, at least one. Under a shared clock that is a reading: other
// engines keep ticking, so the sweep may come due earlier (never later) than
// it says, and a prefix cut here then runs it up to its own length late.
func (e *Engine) untilSweep() int {
	if c := e.sweepClock; c != nil {
		if gone := c.Now() - e.lastSweepTick; gone < uint64(e.sweepEvery) {
			return int(uint64(e.sweepEvery) - gone)
		}
		return 1
	}
	return int(e.sweepEvery - e.sweepTick)
}

// sweepStep examines up to sweepBatch keys of the cursor shard and evicts
// the ones idle past the TTL.
func (e *Engine) sweepStep() {
	sh := &e.shards[e.sweepCursor]
	e.sweepCursor++
	if e.sweepCursor == len(e.shards) {
		e.sweepCursor = 0
	}
	cutoff := e.now - e.ttl
	scanned := 0
	for key, ent := range sh.byKey {
		if ent.lastTouch <= cutoff {
			e.evictKey(sh, key, ent)
		}
		scanned++
		if scanned >= sweepBatch {
			break
		}
	}
	e.shrinkIndexes(sh)
}

// Map buckets never shrink on delete, so after a mass eviction the
// key→instance indexes would pin bucket arrays sized for their peak forever
// — the same unbounded-growth shape as the slice-scoped dedup map
// (group.go). The sweep's cold path therefore reallocates any index whose
// occupancy collapsed far below the peak it was grown for.
const (
	instShrinkRatio = 4   // occupancy must be this far below the peak
	instShrinkFloor = 512 // peaks below this are not worth reclaiming
)

// shrinkIndexes reallocates the shard's key map and the engine's group
// index at their working size once eviction has emptied them far enough.
func (e *Engine) shrinkIndexes(sh *instShard) {
	if n := len(sh.byKey); sh.byKeyPeak >= instShrinkFloor && n*instShrinkRatio < sh.byKeyPeak {
		m := make(map[uint32]*keyEntry, n)
		for k, v := range sh.byKey {
			m[k] = v
		}
		sh.byKey = m
		sh.byKeyPeak = n
	}
	if n := len(e.byID); e.byIDPeak >= instShrinkFloor && n*instShrinkRatio < e.byIDPeak {
		m := make(map[uint32]*groupState, n)
		for id, gs := range e.byID {
			m[id] = gs
		}
		e.byID = m
		e.byIDPeak = n
	}
}

// evictKey parks one idle key: every group is serialised into a single blob
// via the snapshot machinery, the aggregate rows and partials return to the
// engine free lists, and the live state is dropped. The plan keeps the
// groups and instantiation records, so eviction is invisible to the catalog
// and a parked key cannot be re-instantiated.
func (e *Engine) evictKey(sh *instShard, key uint32, ent *keyEntry) {
	buf := e.snapScratch[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ent.groups)))
	for _, gs := range ent.groups {
		invariant.Assertf(gs.pending == nil, "evicting group %d with a staged partial", gs.id)
		buf = gs.snapshot(buf)
	}
	e.snapScratch = buf
	blob := make([]byte, len(buf))
	copy(blob, buf)
	sh.evicted[key] = blob
	for _, gs := range ent.groups {
		delete(e.byID, gs.id)
		e.reclaim(gs)
	}
	delete(sh.byKey, key)
	e.memoDrop(key)
	e.orderedStale = true
	n := int64(len(ent.groups))
	e.stats.instLive.Add(-n)
	e.stats.instEvicted.Add(n)
	e.telLive.Add(-n)
	e.telEvicted.Add(n)
}

// reclaim feeds an evicted group's pooled memory into the engine-level free
// lists so future installs (revivals included) start with warm pools.
func (e *Engine) reclaim(gs *groupState) {
	e.freeAggs(gs.cur.aggs)
	gs.cur.aggs = nil
	for i := range gs.closed {
		e.freeAggs(gs.closed[i].aggs)
		gs.closed[i].aggs = nil
	}
	gs.closed = nil
	for _, row := range gs.aggPool {
		e.freeAggs(row)
	}
	gs.aggPool = nil
	for _, p := range gs.partialPool {
		if len(e.partialFree) < engineFreeCap {
			e.partialFree = append(e.partialFree, p)
		}
	}
	gs.partialPool = nil
}

// freeAggs parks one aggregate row on the engine free list (bounded).
func (e *Engine) freeAggs(aggs []operator.Agg) {
	if aggs == nil || len(e.aggFree) >= engineFreeCap {
		return
	}
	e.aggFree = append(e.aggFree, aggs)
}

// takeAggRow pops an engine-pooled aggregate row, nil when empty. The
// caller re-checks capacity and resets the aggregates, exactly like a
// group-pool hit.
func (e *Engine) takeAggRow() []operator.Agg {
	n := len(e.aggFree)
	if n == 0 {
		return nil
	}
	row := e.aggFree[n-1]
	e.aggFree[n-1] = nil
	e.aggFree = e.aggFree[:n-1]
	return row
}

// takePartial pops an engine-pooled partial for group gid, nil when the
// free list is empty.
func (e *Engine) takePartial(gid uint32) *SlicePartial {
	n := len(e.partialFree)
	if n == 0 {
		return nil
	}
	p := e.partialFree[n-1]
	e.partialFree[n-1] = nil
	e.partialFree = e.partialFree[:n-1]
	if invariant.Enabled {
		invariant.UnpoisonPartial(p)
	}
	p.Group = gid
	p.Ingested = 0
	p.EPs = p.EPs[:0]
	p.Aggs = nil
	return p
}

// reviveKey restores a parked key: each group in the blob is rebuilt from
// its catalog entry, its snapshot record replayed, and the result installed
// and reconciled against the current plan (deltas may have arrived while
// the key was parked — the tolerant restore reads the members the snapshot
// knew and syncGroup registers the rest, exactly as a never-evicted group
// would have at delta time, because no events intervened). Returns the
// revived entry, or the resident one when the key was not parked.
func (e *Engine) reviveKey(key uint32) *keyEntry {
	sh := &e.shards[e.instShardOf(key)]
	blob, ok := sh.evicted[key]
	if !ok {
		return sh.byKey[key]
	}
	delete(sh.evicted, key)
	r := &event.Reader{Buf: blob}
	n := int(r.U32())
	for i := 0; i < n; i++ {
		id := r.U32()
		g := e.plan.GroupByID(id)
		if g == nil {
			// Groups never leave the catalog (removal tombstones members);
			// a missing id means the blob is corrupt.
			panic(fmt.Sprintf("core: eviction snapshot of key %d names unknown group %d", key, id))
		}
		gs := newGroupShell(e, g)
		if err := gs.restoreBody(r, g.Queries); err != nil {
			panic(fmt.Sprintf("core: eviction snapshot of key %d: %v", key, err))
		}
		e.install(gs)
	}
	if r.Err != nil {
		panic(fmt.Sprintf("core: eviction snapshot of key %d: %v", key, r.Err))
	}
	ent := sh.byKey[key]
	invariant.Assertf(ent != nil && len(ent.groups) == n,
		"revive of key %d installed %d groups, blob held %d", key, len(ent.groups), n)
	// install already counted the groups live again; only the parked and
	// revived counters move here.
	e.stats.instEvicted.Add(int64(-n))
	e.stats.instRevived.Add(int64(n))
	e.telEvicted.Add(int64(-n))
	e.telRevived.Add(int64(n))
	// Reconcile against the current catalog: members added while parked
	// register now, tombstones drop now — the same syncGroup a live group
	// would have seen when the delta applied.
	for _, gs := range ent.groups {
		e.syncGroup(e.plan.GroupByID(gs.id))
	}
	return ent
}

// reviveAll restores every parked key. AdvanceTo and Snapshot run it first:
// punctuations owe results for idle keys too (empty windows included), and
// a full checkpoint must cover the whole key space.
func (e *Engine) reviveAll() {
	for i := range e.shards {
		sh := &e.shards[i]
		for key := range sh.evicted {
			e.reviveKey(key)
		}
	}
}

// InstanceStats is the key-space tier's lifecycle accounting, also surfaced
// as the engine.instances_live/evicted/revived telemetry gauges.
type InstanceStats struct {
	// Live counts materialised group instances.
	Live int
	// Evicted counts group instances currently parked as snapshots.
	Evicted int
	// Revived counts revivals since construction (cumulative).
	Revived uint64
}

// InstanceStats reports the key-space tier's counters. Safe to call
// concurrently with ingestion; each counter is read atomically.
func (e *Engine) InstanceStats() InstanceStats {
	return InstanceStats{
		Live:    int(e.stats.instLive.Load()),
		Evicted: int(e.stats.instEvicted.Load()),
		Revived: uint64(e.stats.instRevived.Load()),
	}
}
