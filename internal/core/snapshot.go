package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/window"
)

// windowDynamicState aliases the trackers' serialisable state.
type windowDynamicState = window.DynamicState

// Engine snapshots extend the paper's basic fault tolerance (§3.2, which
// covers node/query membership) with state checkpointing: a node can
// serialise every group's slicing position, open and closed slices, and
// dynamic-window trackers, and a restarted node resumes exactly where the
// snapshot was taken. Snapshots pair with the same query set: callers
// persist the queries (they are small) alongside the snapshot.

// snapshotMagic guards against feeding arbitrary bytes to Restore.
const snapshotMagic = 0x44455349 // "DESI"

// snapshotVersion bumps when the layout changes (v2: Stats.Pruned; v3: plan
// epoch; v4: per-group dedup state, which evict/revive must carry or a
// revived key would re-admit duplicates its slice already saw; v5: per-group
// out-of-order commit state — the emission frontier and deferred window
// boundaries, see Config.ReorderHorizon; v6: per-group factor-feed state —
// the super production bound and count-axis accumulator, see factor.go; v7:
// slice sequence numbers and each member's udOpenSeq, without which a
// restored user-defined window takes in a zero-span slice its closing marker
// cut at the window's start time; v8: slices no longer carry their newest
// event time, which nothing read).
const snapshotVersion = 8

// Snapshot appends a serialised checkpoint of the engine's complete mutable
// state to buf. The engine must be quiescent (no concurrent Process). The
// checkpoint records the plan epoch it was cut at: restoring requires an
// engine built from the same catalog at the same epoch. Parked keys are
// revived first so the checkpoint covers the whole key space in one format;
// group records appear in ascending id order, which is the install order of
// a never-evicting engine.
func (e *Engine) Snapshot(buf []byte) []byte {
	e.reviveAll()
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, snapshotMagic)
	buf = le.AppendUint32(buf, snapshotVersion)
	buf = le.AppendUint64(buf, e.plan.Epoch)
	buf = le.AppendUint64(buf, e.stats.events.Load())
	buf = le.AppendUint64(buf, e.stats.calculations.Load())
	buf = le.AppendUint64(buf, e.stats.slices.Load())
	buf = le.AppendUint64(buf, e.stats.windows.Load())
	buf = le.AppendUint64(buf, e.stats.pruned.Load())
	ordered := e.orderedGroups()
	buf = le.AppendUint32(buf, uint32(len(ordered)))
	for _, gs := range ordered {
		buf = gs.snapshot(buf)
	}
	return buf
}

func (g *groupState) snapshot(buf []byte) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, g.id)
	buf = event.AppendBool(buf, g.started)
	buf = le.AppendUint64(buf, uint64(g.lastPunct))
	buf = le.AppendUint64(buf, uint64(g.count))
	buf = le.AppendUint64(buf, uint64(g.lastEventTime))
	buf = le.AppendUint64(buf, g.nextSliceID)
	buf = le.AppendUint64(buf, uint64(len(g.members)))
	for _, m := range g.members {
		buf = event.AppendBool(buf, m.removed)
		buf = le.AppendUint64(buf, uint64(m.regTime))
		buf = le.AppendUint64(buf, uint64(m.regCount))
		buf = le.AppendUint64(buf, m.udOpenSeq)
	}
	// Open slice.
	buf = appendSlice(buf, &g.cur)
	// Closed slices.
	buf = le.AppendUint32(buf, uint32(len(g.closed)))
	for i := range g.closed {
		buf = appendSlice(buf, &g.closed[i])
	}
	// Dynamic trackers.
	sess, lastEv, have := g.sessions.State()
	buf = le.AppendUint64(buf, uint64(lastEv))
	buf = event.AppendBool(buf, have)
	buf = appendDynamic(buf, sess)
	buf = appendDynamic(buf, g.ud.State())
	// Dedup state (v4): the open slice's seen set, sorted so identical
	// engine states serialise to identical bytes.
	buf = le.AppendUint32(buf, uint32(len(g.dedup)))
	if len(g.dedup) > 0 {
		keys := make([]dedupKey, 0, len(g.dedup))
		for k := range g.dedup {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].t != keys[j].t {
				return keys[i].t < keys[j].t
			}
			return math.Float64bits(keys[i].v) < math.Float64bits(keys[j].v)
		})
		for _, k := range keys {
			buf = le.AppendUint64(buf, uint64(k.t))
			buf = le.AppendUint64(buf, math.Float64bits(k.v))
		}
	}
	// Out-of-order commit state (v5). The assembly index itself is derived
	// state and rebuilds lazily; only the emission frontier and the not-yet
	// emitted boundaries must survive.
	buf = le.AppendUint64(buf, uint64(g.emittedBound))
	buf = le.AppendUint32(buf, uint32(len(g.deferred)))
	for _, b := range g.deferred {
		buf = le.AppendUint64(buf, uint64(b))
	}
	// Factor-feed state (v6): zero for groups that are not fed. The feed
	// topology itself is plan state and relinks on restore/revival.
	buf = le.AppendUint64(buf, uint64(g.fedBound))
	buf = le.AppendUint64(buf, uint64(g.fedCount))
	return buf
}

func appendSlice(buf []byte, s *sliceRec) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, s.seq)
	buf = le.AppendUint64(buf, uint64(s.start))
	buf = le.AppendUint64(buf, uint64(s.end))
	buf = le.AppendUint64(buf, uint64(s.startCount))
	buf = le.AppendUint64(buf, uint64(s.endCount))
	buf = le.AppendUint32(buf, uint32(len(s.aggs)))
	for i := range s.aggs {
		buf = operator.AppendAgg(buf, &s.aggs[i])
	}
	return buf
}

func appendDynamic(buf []byte, entries []windowDynamicState) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = le.AppendUint32(buf, uint32(e.ID))
		buf = event.AppendBool(buf, e.Active)
		buf = le.AppendUint64(buf, uint64(e.Start))
	}
	return buf
}

// RestoreFromPlan rebuilds an engine from an execution plan and a checkpoint
// produced by Snapshot, taking ownership of the plan. A plan with history
// (Epoch > 0) must be at the snapshot's epoch — the guarantee a
// decentralized restore needs before resuming a delta stream. A plan at
// epoch 0 is a catalog re-analyzed from a persisted query set, which starts
// at epoch 0 however many deltas produced the catalog the snapshot was cut
// under; its epoch is not checked, and a catalog that differs fails the
// group-by-group checks instead.
func RestoreFromPlan(p *plan.Plan, cfg Config, snap []byte) (*Engine, error) {
	e := NewFromPlan(p, cfg)
	r := &event.Reader{Buf: snap}
	if r.U32() != snapshotMagic {
		return nil, fmt.Errorf("core: not a snapshot")
	}
	if v := r.U32(); v != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", v, snapshotVersion)
	}
	epoch := r.U64()
	if p.Epoch > 0 && r.Err == nil && epoch != p.Epoch {
		return nil, fmt.Errorf("core: snapshot cut at plan epoch %d, engine plan at %d", epoch, p.Epoch)
	}
	e.stats.events.Store(r.U64())
	e.stats.calculations.Store(r.U64())
	e.stats.slices.Store(r.U64())
	e.stats.windows.Store(r.U64())
	e.stats.pruned.Store(r.U64())
	n := int(r.U32())
	ordered := e.orderedGroups()
	if r.Err == nil && n != len(ordered) {
		return nil, fmt.Errorf("core: snapshot has %d groups, engine has %d", n, len(ordered))
	}
	for i := 0; i < n && r.Err == nil; i++ {
		if err := ordered[i].restore(r); err != nil {
			return nil, err
		}
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return e, nil
}

func (g *groupState) restore(r *event.Reader) error {
	if id := r.U32(); r.Err == nil && id != g.id {
		return fmt.Errorf("core: snapshot group id %d, engine group %d", id, g.id)
	}
	return g.restoreBody(r, nil)
}

// restoreBody replays one group record (everything after the id). With grow
// nil (full-engine restore) the member count must match exactly; with grow
// set to the group's catalog queries (revival of an eviction snapshot) the
// snapshot may know fewer members than the catalog — members admitted while
// the key was parked — and the missing ones are registered by the caller's
// subsequent syncGroup, exactly as a live group would have registered them
// when the delta applied (no events intervened while parked, so the
// registration positions agree).
func (g *groupState) restoreBody(r *event.Reader, grow []query.GroupQuery) error {
	g.started = r.Bool()
	g.lastPunct = int64(r.U64())
	g.count = int64(r.U64())
	g.lastEventTime = int64(r.U64())
	g.nextSliceID = r.U64()
	nm := int(r.U64())
	if r.Err == nil {
		if grow == nil && nm != len(g.members) {
			return fmt.Errorf("core: snapshot has %d members, group %d has %d", nm, g.id, len(g.members))
		}
		if grow != nil && (nm < 0 || nm > len(grow)) {
			return fmt.Errorf("core: snapshot of group %d has %d members, catalog has %d", g.id, nm, len(grow))
		}
	}
	for i := 0; i < nm && r.Err == nil; i++ {
		if i >= len(g.members) {
			g.addMember(grow[i])
		}
		removed := r.Bool()
		g.members[i].regTime = int64(r.U64())
		g.members[i].regCount = int64(r.U64())
		g.members[i].udOpenSeq = r.U64()
		if removed && !g.members[i].removed {
			g.removeMember(i)
		}
	}
	// Counts go through r.Count, each against its element's least size
	// (a slice record is 44 bytes, a dedup key 16, a boundary 8), so a
	// corrupt count fails before anything is sized from it.
	readSlice(r, &g.cur, false)
	nc := r.Count(44)
	g.closed = g.closed[:0]
	for i := 0; i < nc && r.Err == nil; i++ {
		var s sliceRec
		readSlice(r, &s, true)
		g.closed = append(g.closed, s)
	}
	lastEv := int64(r.U64())
	have := r.Bool()
	g.sessions.SetState(readDynamic(r), lastEv, have)
	g.ud.SetState(readDynamic(r))
	nd := r.Count(16)
	if nd > 0 && g.dedup == nil {
		g.dedup = make(map[dedupKey]struct{}, nd)
	}
	for i := 0; i < nd; i++ {
		k := dedupKey{t: int64(r.U64()), v: r.F64()}
		g.dedup[k] = struct{}{}
	}
	g.emittedBound = int64(r.U64())
	g.deferred = g.deferred[:0]
	for i, n := 0, r.Count(8); i < n; i++ {
		g.deferred = append(g.deferred, int64(r.U64()))
	}
	g.fedBound = int64(r.U64())
	g.fedCount = int64(r.U64())
	g.refreshOOO()
	if g.started {
		g.nextTimeBound = g.cal.NextBoundary(g.lastPunct)
		g.nextCountID = g.countCal.NextBoundary(g.count)
	}
	return r.Err
}

// readSlice decodes one slice record. A closed slice was finished before the
// snapshot was cut and comes back finished, with its run endpoints set as
// closeSlice sets them; the open slice is mid-accumulation and comes back
// unsorted.
func readSlice(r *event.Reader, s *sliceRec, closed bool) {
	s.seq = r.U64()
	s.start = int64(r.U64())
	s.end = int64(r.U64())
	s.startCount = int64(r.U64())
	s.endCount = int64(r.U64())
	s.aggs = make([]operator.Agg, r.Count(1)) // an agg is at least its mask byte
	for i := 0; i < len(s.aggs) && r.Err == nil; i++ {
		operator.DecodeAgg(r, &s.aggs[i])
	}
	if r.Err != nil {
		return
	}
	if closed {
		finishAggs(s.aggs)
	} else {
		for i := range s.aggs {
			s.aggs[i].Sorted = false
		}
	}
}

// readDynamic reads tracker entries of 13 bytes each.
func readDynamic(r *event.Reader) []windowDynamicState {
	n := r.Count(13)
	out := make([]windowDynamicState, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, windowDynamicState{
			ID:     int(r.U32()),
			Active: r.Bool(),
			Start:  int64(r.U64()),
		})
	}
	return out
}
