package node

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"desis/internal/core"
	"desis/internal/invariant"
	"desis/internal/message"
	"desis/internal/operator"
	"desis/internal/query"
	"desis/internal/telemetry"
	"desis/internal/window"
)

// Assembler is the root node's window-merging stage (§5.1.3): it gathers
// merged slice partials, re-derives fixed window boundaries from the window
// attributes, closes session and user-defined windows from unions of the
// children's EPs once the watermark passes them (the gap covering of
// §5.1.2), and emits final query results.
//
// Partials arrive matured, as the root's merger flushes them: every partial
// added before AdvanceTo(w) ends at or before w, and one group's partials
// come in (End, Start) order, so a user-defined member's bar is the partial
// of its newest marker.
type Assembler struct {
	states   map[uint32]*rootGroup
	onResult func(core.Result)
	// addedEnd is the newest End added since the last AdvanceTo, which the
	// checked build holds to the watermark AdvanceTo is given.
	addedEnd int64
	// tel registers a group.<id>.windows counter per distributed group, so
	// root-assembled windows land under the same names the single-node
	// engine uses and cluster-wide merges line up per group.
	tel       *telemetry.Registry
	traceName string
}

type rootGroup struct {
	g          *query.Group
	telWindows *telemetry.Counter
	cal        window.Calendar
	store      []storedPartial       // sorted by Start, unless unsorted
	unsorted   bool                  // a partial added since the last AdvanceTo started before its predecessor
	unions     map[int32]*unionState // session and user-defined members
	started    bool
	lastPunct  int64
	fin        operator.WindowFinisher // scratch aggregate and value runs of the window being assembled
	reg        []int64                 // per-member registration time (runtime AddQuery)
	removed    []bool                  // per-member removal flag (indices stay stable)
	memos      [][]operator.SelectMemo // per-member rank selection memos (operator.NewSelectMemos)
	stored     uint64                  // partials stored so far: the next storedPartial.key
}

// storedPartial is a partial in a group's store with the key that
// names its value runs to the selection memos. Partials with equal extents
// (two children's session EPs) are different runs, so the key counts the
// group's stored partials instead of reading the extent.
type storedPartial struct {
	*core.SlicePartial
	key uint64
}

// unionState closes the windows of one session or user-defined member.
// Every EP [Start, End) a child sends joins the union of open intervals, and
// a union closes as one window once the watermark passes its end. For
// sessions this is §5.1.2's "gaps covering each other": each child's EP
// spans its own session [first event, last event + gap), and overlapping
// child sessions belong to one global session.
type unionState struct {
	openStart int64
	open      []interval // pairwise disjoint
	// barStart/barEnd remember, for a user-defined member, the extent of
	// the partial that carried the most recent EP: it holds pre-marker
	// events and must not leak into the window opening at the same
	// timestamp (stream-order membership — only zero-span partials are
	// ambiguous by extent).
	barStart, barEnd int64
	barSet           bool
}

type interval struct{ start, end int64 }

// NewAssembler builds the assembly stage for the distributed groups.
func NewAssembler(groups []*query.Group, onResult func(core.Result)) *Assembler {
	a := &Assembler{states: make(map[uint32]*rootGroup), onResult: onResult, addedEnd: math.MinInt64}
	for _, g := range groups {
		if g.Placement != query.Distributed {
			continue
		}
		a.installGroup(g)
	}
	return a
}

// AttachTelemetry registers per-group window counters in reg and labels
// trace events with traceName; groups installed later register on install.
func (a *Assembler) AttachTelemetry(reg *telemetry.Registry, traceName string) {
	a.tel = reg
	a.traceName = traceName
	if reg == nil {
		return
	}
	for _, rg := range a.states {
		rg.telWindows = reg.Counter(fmt.Sprintf("group.%d.windows", rg.g.ID))
	}
}

func (a *Assembler) installGroup(g *query.Group) {
	rg := &rootGroup{g: g, unions: make(map[int32]*unionState)}
	if a.tel != nil {
		rg.telWindows = a.tel.Counter(fmt.Sprintf("group.%d.windows", g.ID))
	}
	for idx := range g.Queries {
		rg.registerMember(idx, 0)
	}
	a.states[g.ID] = rg
	// A catalog arriving with tombstoned members (a plan resend after
	// removals) must not resurrect them.
	for idx := range g.Queries {
		if g.Queries[idx].Removed {
			a.RemoveMember(g.ID, idx)
		}
	}
}

func (rg *rootGroup) registerMember(idx int, regTime int64) {
	gq := rg.g.Queries[idx]
	switch gq.Type {
	case query.Tumbling:
		if gq.Measure == query.Time {
			rg.cal.Add(idx, gq.Length, gq.Length)
		}
	case query.Sliding:
		if gq.Measure == query.Time {
			rg.cal.Add(idx, gq.Length, gq.Slide)
		}
	case query.Session, query.UserDefined:
		rg.unions[int32(idx)] = &unionState{openStart: regTime}
	}
	rg.reg = append(rg.reg, regTime)
	rg.removed = append(rg.removed, false)
	rg.memos = append(rg.memos, operator.NewSelectMemos(gq.Funcs))
}

// SyncGroup reconciles the assembler with a group's catalog entry after a
// plan delta applied: new members register with the current watermark as
// their registration time (they only answer windows starting afterwards), and
// freshly tombstoned members are unregistered. Indices stay stable either
// way.
func (a *Assembler) SyncGroup(g *query.Group, regTime int64) {
	rg, ok := a.states[g.ID]
	if !ok {
		a.installGroup(g)
		return
	}
	for idx := len(rg.reg); idx < len(g.Queries); idx++ {
		rg.registerMember(idx, regTime)
	}
	for idx := range g.Queries {
		if g.Queries[idx].Removed && !rg.removed[idx] {
			a.RemoveMember(g.ID, idx)
		}
	}
}

// RemoveMember unregisters one member; indices of the others are stable.
func (a *Assembler) RemoveMember(groupID uint32, idx int) {
	rg, ok := a.states[groupID]
	if !ok || idx >= len(rg.removed) {
		return
	}
	rg.removed[idx] = true
	rg.cal.Remove(idx)
	delete(rg.unions, int32(idx))
}

// AddPartial stores a matured merged partial: its EPs join their members'
// unions and it extends the group's store. The assembler owns p from here:
// prune releases it to the decode pool once no window can need it.
func (a *Assembler) AddPartial(p *core.SlicePartial) {
	rg, ok := a.states[p.Group]
	if !ok {
		message.ReleasePartial(p)
		return
	}
	a.addedEnd = max(a.addedEnd, p.End)
	if !rg.started {
		rg.started = true
		rg.lastPunct = p.Start
		for _, u := range rg.unions {
			u.openStart = p.Start
		}
	}
	for _, ep := range p.EPs {
		u, ok := rg.unions[ep.QueryIdx]
		if !ok {
			continue
		}
		u.add(ep.Start, ep.End)
		if rg.g.Queries[ep.QueryIdx].Type == query.UserDefined {
			u.barStart, u.barEnd, u.barSet = p.Start, p.End, true
		}
	}
	// In-order partials extend the store in place; only one that starts
	// before the store's last entry makes it owe a sort.
	if n := len(rg.store); n > 0 && p.Start < rg.store[n-1].Start {
		rg.unsorted = true
	}
	rg.store = append(rg.store, storedPartial{p, rg.stored})
	rg.stored++
}

// AdvanceTo closes everything the watermark W has matured: fixed boundaries
// <= W, and session and user-defined unions that end at or before W.
func (a *Assembler) AdvanceTo(w int64) {
	if invariant.Enabled {
		invariant.Assertf(a.addedEnd <= w, "assembler advanced to %d with a partial ending at %d added since: partials must arrive matured", w, a.addedEnd)
	}
	a.addedEnd = math.MinInt64
	for _, rg := range a.states {
		a.advanceGroup(rg, w)
	}
}

func (a *Assembler) advanceGroup(rg *rootGroup, w int64) {
	if rg.unsorted {
		slices.SortFunc(rg.store, func(p, q storedPartial) int { return cmp.Compare(p.Start, q.Start) })
		rg.unsorted = false
	}
	if !rg.started {
		return
	}
	// Fixed windows: every boundary the watermark passed.
	for b := rg.cal.NextBoundary(rg.lastPunct); b <= w && b != window.NoBoundary; b = rg.cal.NextBoundary(b) {
		rg.cal.EndsAt(b, func(idx int, ws int64) {
			a.assemble(rg, idx, ws, b)
		})
		rg.lastPunct = b
	}
	// Unions the watermark passed.
	for idx, u := range rg.unions {
		kept := u.open[:0]
		for _, c := range u.open {
			if c.end <= w {
				a.assemble(rg, int(idx), c.start, c.end)
				u.openStart = max(u.openStart, c.end)
			} else {
				kept = append(kept, c)
			}
		}
		u.open = kept
	}
	a.prune(rg, w)
}

// add joins the EP interval [s, e) to the open unions. It absorbs every
// union it overlaps, so [0,10), [20,30) and then [5,25) leave one [0,30);
// intervals that only touch stay apart, as do consecutive user-defined
// windows and sessions split by exactly the gap.
func (u *unionState) add(s, e int64) {
	kept := u.open[:0]
	for _, c := range u.open {
		if s < c.end && c.start < e {
			s, e = min(s, c.start), max(e, c.end)
		} else {
			kept = append(kept, c)
		}
	}
	u.open = append(kept, interval{start: s, end: e})
}

// assemble merges the stored partials covering [ws, we) for the member at
// idx and emits the result.
func (a *Assembler) assemble(rg *rootGroup, idx int, ws, we int64) {
	if idx < len(rg.removed) && rg.removed[idx] {
		return
	}
	if idx < len(rg.reg) && ws < rg.reg[idx] {
		return
	}
	m := rg.g.Queries[idx]
	lo := sort.Search(len(rg.store), func(i int) bool { return rg.store[i].Start >= ws })
	// Merge only the fields this member's functions need (core does the
	// same).
	rg.fin.Begin(operator.Union(m.Funcs)|operator.OpCount, rg.g.Ops)
	u := rg.unions[int32(idx)]
	for i := lo; i < len(rg.store); i++ {
		p := rg.store[i].SlicePartial
		if invariant.Enabled {
			invariant.AssertPartialLive(p)
		}
		if p.Start >= we {
			break
		}
		if u != nil && u.barSet && we > u.barEnd &&
			p.Start == p.End && p.Start == u.barStart && p.End == u.barEnd {
			// Zero-span partial cut by the marker that closed the previous
			// user-defined window: its events precede this window.
			continue
		}
		if p.End <= we && m.Ctx < len(p.Aggs) {
			rg.fin.Agg.Merge(&p.Aggs[m.Ctx])
			if rg.fin.ReadsRuns() {
				rg.fin.AddRun(rg.store[i].key, p.Aggs[m.Ctx].Values)
			}
		}
	}
	rg.telWindows.Inc()
	if telemetry.TraceEnabled {
		telemetry.TraceSlice(telemetry.TraceAssemble, a.traceName, uint64(rg.g.ID), 0, ws, we)
	}
	a.onResult(core.Result{
		QueryID: m.ID,
		Key:     rg.g.Key,
		Start:   ws,
		End:     we,
		Count:   rg.fin.Agg.CountV,
		Values:  core.FinishValues(&rg.fin, m.Funcs, rg.memos[idx]),
	})
}

// prune drops stored partials no open or future window can need.
func (a *Assembler) prune(rg *rootGroup, w int64) {
	if len(rg.store) < 64 {
		return
	}
	tNeed := rg.cal.EarliestOpenStart(rg.lastPunct)
	for _, u := range rg.unions {
		tNeed = min(tNeed, u.openStart)
		for _, c := range u.open {
			tNeed = min(tNeed, c.start)
		}
	}
	n := 0
	for n < len(rg.store) && rg.store[n].Start < tNeed {
		message.ReleasePartial(rg.store[n].SlicePartial)
		n++
	}
	if n > 0 {
		kept := copy(rg.store, rg.store[n:])
		// Zero the vacated tail: the released partials are pool storage now
		// and must not stay reachable past len.
		clear(rg.store[kept:])
		rg.store = rg.store[:kept]
	}
}
