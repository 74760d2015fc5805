package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

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
	buf = appendU32s(buf, snapshotMagic)
	buf = appendU32s(buf, snapshotVersion)
	buf = appendU64s(buf, e.plan.Epoch)
	buf = appendU64s(buf, e.stats.events.Load())
	buf = appendU64s(buf, e.stats.calculations.Load())
	buf = appendU64s(buf, e.stats.slices.Load())
	buf = appendU64s(buf, e.stats.windows.Load())
	buf = appendU64s(buf, e.stats.pruned.Load())
	ordered := e.orderedGroups()
	buf = appendU32s(buf, uint32(len(ordered)))
	for _, gs := range ordered {
		buf = gs.snapshot(buf)
	}
	return buf
}

func (g *groupState) snapshot(buf []byte) []byte {
	buf = appendU32s(buf, g.id)
	buf = appendBool(buf, g.started)
	buf = appendU64s(buf, uint64(g.lastPunct))
	buf = appendU64s(buf, uint64(g.count))
	buf = appendU64s(buf, uint64(g.lastEventTime))
	buf = appendU64s(buf, g.nextSliceID)
	buf = appendU64s(buf, uint64(len(g.members)))
	for _, m := range g.members {
		buf = appendBool(buf, m.removed)
		buf = appendU64s(buf, uint64(m.regTime))
		buf = appendU64s(buf, uint64(m.regCount))
		buf = appendU64s(buf, m.udOpenSeq)
	}
	// Open slice.
	buf = appendSlice(buf, &g.cur)
	// Closed slices.
	buf = appendU32s(buf, uint32(len(g.closed)))
	for i := range g.closed {
		buf = appendSlice(buf, &g.closed[i])
	}
	// Dynamic trackers.
	sess, lastEv, have := g.sessions.State()
	buf = appendU64s(buf, uint64(lastEv))
	buf = appendBool(buf, have)
	buf = appendDynamic(buf, sess)
	buf = appendDynamic(buf, g.ud.State())
	// Dedup state (v4): the open slice's seen set, sorted so identical
	// engine states serialise to identical bytes.
	buf = appendU32s(buf, uint32(len(g.dedup)))
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
			buf = appendU64s(buf, uint64(k.t))
			buf = appendU64s(buf, math.Float64bits(k.v))
		}
	}
	// Out-of-order commit state (v5). The assembly index itself is derived
	// state and rebuilds lazily; only the emission frontier and the not-yet
	// emitted boundaries must survive.
	buf = appendU64s(buf, uint64(g.emittedBound))
	buf = appendU32s(buf, uint32(len(g.deferred)))
	for _, b := range g.deferred {
		buf = appendU64s(buf, uint64(b))
	}
	// Factor-feed state (v6): zero for groups that are not fed. The feed
	// topology itself is plan state and relinks on restore/revival.
	buf = appendU64s(buf, uint64(g.fedBound))
	buf = appendU64s(buf, uint64(g.fedCount))
	return buf
}

func appendSlice(buf []byte, s *sliceRec) []byte {
	buf = appendU64s(buf, s.seq)
	buf = appendU64s(buf, uint64(s.start))
	buf = appendU64s(buf, uint64(s.end))
	buf = appendU64s(buf, uint64(s.startCount))
	buf = appendU64s(buf, uint64(s.endCount))
	buf = appendU32s(buf, uint32(len(s.aggs)))
	for i := range s.aggs {
		buf = operator.AppendAgg(buf, &s.aggs[i])
	}
	return buf
}

func appendDynamic(buf []byte, entries []windowDynamicState) []byte {
	buf = appendU32s(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = appendU32s(buf, uint32(e.ID))
		buf = appendBool(buf, e.Active)
		buf = appendU64s(buf, uint64(e.Start))
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
	r := &snapReader{buf: snap}
	if r.u32() != snapshotMagic {
		return nil, fmt.Errorf("core: not a snapshot")
	}
	if v := r.u32(); v != snapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", v, snapshotVersion)
	}
	epoch := r.u64()
	if p.Epoch > 0 && r.err == nil && epoch != p.Epoch {
		return nil, fmt.Errorf("core: snapshot cut at plan epoch %d, engine plan at %d", epoch, p.Epoch)
	}
	e.stats.events.Store(r.u64())
	e.stats.calculations.Store(r.u64())
	e.stats.slices.Store(r.u64())
	e.stats.windows.Store(r.u64())
	e.stats.pruned.Store(r.u64())
	n := int(r.u32())
	ordered := e.orderedGroups()
	if r.err == nil && n != len(ordered) {
		return nil, fmt.Errorf("core: snapshot has %d groups, engine has %d", n, len(ordered))
	}
	for i := 0; i < n && r.err == nil; i++ {
		if err := ordered[i].restore(r); err != nil {
			return nil, err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return e, nil
}

func (g *groupState) restore(r *snapReader) error {
	if id := r.u32(); r.err == nil && id != g.id {
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
func (g *groupState) restoreBody(r *snapReader, grow []query.GroupQuery) error {
	g.started = r.bool()
	g.lastPunct = int64(r.u64())
	g.count = int64(r.u64())
	g.lastEventTime = int64(r.u64())
	g.nextSliceID = r.u64()
	nm := int(r.u64())
	if r.err == nil {
		if grow == nil && nm != len(g.members) {
			return fmt.Errorf("core: snapshot has %d members, group %d has %d", nm, g.id, len(g.members))
		}
		if grow != nil && nm > len(grow) {
			return fmt.Errorf("core: snapshot of group %d has %d members, catalog has %d", g.id, nm, len(grow))
		}
	}
	for i := 0; i < nm && r.err == nil; i++ {
		if i >= len(g.members) {
			g.addMember(grow[i])
		}
		removed := r.bool()
		g.members[i].regTime = int64(r.u64())
		g.members[i].regCount = int64(r.u64())
		g.members[i].udOpenSeq = r.u64()
		if removed && !g.members[i].removed {
			g.removeMember(i)
		}
	}
	if err := readSlice(r, &g.cur, false); err != nil {
		return err
	}
	nc := int(r.u32())
	g.closed = g.closed[:0]
	for i := 0; i < nc && r.err == nil; i++ {
		var s sliceRec
		if err := readSlice(r, &s, true); err != nil {
			return err
		}
		g.closed = append(g.closed, s)
	}
	lastEv := int64(r.u64())
	have := r.bool()
	g.sessions.SetState(readDynamic(r), lastEv, have)
	g.ud.SetState(readDynamic(r))
	nd := int(r.u32())
	if nd > 0 && g.dedup == nil {
		g.dedup = make(map[dedupKey]struct{}, nd)
	}
	for i := 0; i < nd && r.err == nil; i++ {
		k := dedupKey{t: int64(r.u64()), v: math.Float64frombits(r.u64())}
		g.dedup[k] = struct{}{}
	}
	g.emittedBound = int64(r.u64())
	g.deferred = g.deferred[:0]
	for i, n := 0, int(r.u32()); i < n && r.err == nil; i++ {
		g.deferred = append(g.deferred, int64(r.u64()))
	}
	g.fedBound = int64(r.u64())
	g.fedCount = int64(r.u64())
	g.refreshOOO()
	if g.started {
		g.nextTimeBound = g.cal.NextBoundary(g.lastPunct)
		g.nextCountID = g.countCal.NextBoundary(g.count)
	}
	return r.err
}

// readSlice decodes one slice record. A closed slice was finished before the
// snapshot was cut and comes back finished, with its run endpoints set as
// closeSlice sets them; the open slice is mid-accumulation and comes back
// unsorted.
func readSlice(r *snapReader, s *sliceRec, closed bool) error {
	s.seq = r.u64()
	s.start = int64(r.u64())
	s.end = int64(r.u64())
	s.startCount = int64(r.u64())
	s.endCount = int64(r.u64())
	n := int(r.u32())
	s.aggs = make([]operator.Agg, n)
	for i := 0; i < n && r.err == nil; i++ {
		rest, err := operator.DecodeAgg(r.buf, &s.aggs[i])
		if err != nil {
			r.err = err
			return err
		}
		r.buf = rest
	}
	if closed {
		finishAggs(s.aggs)
	} else {
		for i := range s.aggs {
			s.aggs[i].Sorted = false
		}
	}
	return r.err
}

func readDynamic(r *snapReader) []windowDynamicState {
	n := int(r.u32())
	out := make([]windowDynamicState, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, windowDynamicState{
			ID:     int(r.u32()),
			Active: r.bool(),
			Start:  int64(r.u64()),
		})
	}
	return out
}

// --- little-endian helpers ---

func appendU32s(buf []byte, v uint32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	return append(buf, t[:]...)
}

func appendU64s(buf []byte, v uint64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	return append(buf, t[:]...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("core: truncated snapshot")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) bool() bool {
	b := r.take(1)
	return b != nil && b[0] == 1
}
