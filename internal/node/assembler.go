package node

import (
	"cmp"
	"fmt"
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
// attributes, reconstructs session windows from activity extents (the gap
// covering of §5.1.2), closes user-defined windows from EP unions and
// watermarks, and emits final query results.
type Assembler struct {
	states   map[uint32]*rootGroup
	onResult func(core.Result)
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
	buffer     []*core.SlicePartial // arrived, waiting for the watermark
	store      []*core.SlicePartial // processed, sorted by Start
	take       []*core.SlicePartial // scratch: the partials one watermark matured, empty between calls
	sess       map[int32]*sessCand
	uds        map[int32]*udState
	started    bool
	lastPunct  int64
	fin        operator.WindowFinisher // scratch aggregate and value runs of the window being assembled
	reg        []int64                 // per-member registration time (runtime AddQuery)
	removed    []bool                  // per-member removal flag (indices stay stable)
	hints      [][]float64             // per-member selection hints (core.NewHints)
}

// sessCand is the open global session of one session query, tracked from
// activity extents of merged partials: a new partial whose start lies beyond
// lastActivity+gap means the children's gaps covered each other and the
// session ended (§5.1.2).
type sessCand struct {
	gap          int64
	active       bool
	start        int64
	lastActivity int64
}

// udState tracks one user-defined-window query: open candidates are unions
// of overlapping child EP intervals, closed once the watermark passes them.
type udState struct {
	openStart int64
	cands     []udCand
	// barStart/barEnd remember the extent of the partial that carried the
	// most recent EP: it holds pre-marker events and must not leak into
	// the window opening at the same timestamp (stream-order membership —
	// only zero-span partials are ambiguous by extent).
	barStart, barEnd int64
	barSet           bool
}

type udCand struct{ start, end int64 }

// NewAssembler builds the assembly stage for the distributed groups.
func NewAssembler(groups []*query.Group, onResult func(core.Result)) *Assembler {
	a := &Assembler{states: make(map[uint32]*rootGroup), onResult: onResult}
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
	rg := &rootGroup{g: g, sess: make(map[int32]*sessCand), uds: make(map[int32]*udState)}
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
	case query.Session:
		rg.sess[int32(idx)] = &sessCand{gap: gq.Gap}
	case query.UserDefined:
		rg.uds[int32(idx)] = &udState{openStart: regTime}
	}
	rg.reg = append(rg.reg, regTime)
	rg.removed = append(rg.removed, false)
	rg.hints = append(rg.hints, core.NewHints(gq.Funcs))
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
	delete(rg.sess, int32(idx))
	delete(rg.uds, int32(idx))
}

// AddPartial buffers a merged partial until the watermark matures it. The
// assembler owns p from here: prune releases it to the decode pool once no
// window can need it.
func (a *Assembler) AddPartial(p *core.SlicePartial) {
	rg, ok := a.states[p.Group]
	if !ok {
		message.ReleasePartial(p)
		return
	}
	rg.buffer = append(rg.buffer, p)
}

// AdvanceTo processes everything the watermark W has matured: partials with
// End <= W, fixed boundaries <= W, expired sessions, and user-defined
// candidates.
func (a *Assembler) AdvanceTo(w int64) {
	for _, rg := range a.states {
		a.advanceGroup(rg, w)
	}
}

func (a *Assembler) advanceGroup(rg *rootGroup, w int64) {
	// Mature partials, in (End, Start) order so session activity tracking
	// sees a coherent timeline.
	take := rg.take[:0]
	rest := rg.buffer[:0]
	for _, p := range rg.buffer {
		if p.End <= w {
			take = append(take, p)
		} else {
			rest = append(rest, p)
		}
	}
	// Zero the dead tail: the matured partials are recycled after assembly,
	// and the buffer must not keep the recycled pointers reachable past len.
	clear(rg.buffer[len(rest):])
	rg.buffer = rest
	slices.SortFunc(take, func(p, q *core.SlicePartial) int {
		if c := cmp.Compare(p.End, q.End); c != 0 {
			return c
		}
		return cmp.Compare(p.Start, q.Start)
	})
	// In-order partials extend the store in place; only one that starts
	// before the store's last entry makes it owe a sort.
	unsorted := false
	for _, p := range take {
		if !rg.started {
			rg.started = true
			rg.lastPunct = p.Start
			for _, us := range rg.uds {
				us.openStart = p.Start
			}
		}
		if p.Ingested > 0 {
			a.trackSessions(rg, p)
		}
		for _, ep := range p.EPs {
			if us, ok := rg.uds[ep.QueryIdx]; ok {
				addUDCandidate(us, ep.Start, ep.End)
				us.barStart, us.barEnd, us.barSet = p.Start, p.End, true
			}
		}
		if n := len(rg.store); n > 0 && p.Start < rg.store[n-1].Start {
			unsorted = true
		}
		rg.store = append(rg.store, p)
	}
	clear(take) // the store owns them now
	rg.take = take[:0]
	if unsorted {
		slices.SortFunc(rg.store, func(p, q *core.SlicePartial) int { return cmp.Compare(p.Start, q.Start) })
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
	// Sessions whose gap elapsed below the watermark.
	for idx, sc := range rg.sess {
		if sc.active && sc.lastActivity+sc.gap <= w {
			a.assemble(rg, int(idx), sc.start, sc.lastActivity+sc.gap)
			sc.active = false
		}
	}
	// User-defined candidates the watermark passed.
	for idx, us := range rg.uds {
		kept := us.cands[:0]
		for _, c := range us.cands {
			if c.end <= w {
				a.assemble(rg, int(idx), c.start, c.end)
				if c.end > us.openStart {
					us.openStart = c.end
				}
			} else {
				kept = append(kept, c)
			}
		}
		us.cands = kept
	}
	a.prune(rg, w)
}

// trackSessions extends or restarts every session candidate with the
// activity extent of one matured partial.
func (a *Assembler) trackSessions(rg *rootGroup, p *core.SlicePartial) {
	for idx, sc := range rg.sess {
		if sc.active && p.Start >= sc.lastActivity+sc.gap {
			a.assemble(rg, int(idx), sc.start, sc.lastActivity+sc.gap)
			sc.active = false
		}
		if !sc.active {
			sc.active = true
			sc.start = p.Start
			sc.lastActivity = p.LastEvent
			continue
		}
		if p.Start < sc.start {
			sc.start = p.Start
		}
		if p.LastEvent > sc.lastActivity {
			sc.lastActivity = p.LastEvent
		}
	}
}

// addUDCandidate unions the EP interval [s, e) into the query's open
// candidates; overlapping intervals from different children merge — the
// interval form of "gaps covering each other".
func addUDCandidate(us *udState, s, e int64) {
	for i := range us.cands {
		c := &us.cands[i]
		if s < c.end && c.start < e {
			if s < c.start {
				c.start = s
			}
			if e > c.end {
				c.end = e
			}
			return
		}
	}
	us.cands = append(us.cands, udCand{start: s, end: e})
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
	us := rg.uds[int32(idx)]
	for i := lo; i < len(rg.store); i++ {
		p := rg.store[i]
		if invariant.Enabled {
			invariant.AssertPartialLive(p)
		}
		if p.Start >= we {
			break
		}
		if us != nil && us.barSet && we > us.barEnd &&
			p.Start == p.End && p.Start == us.barStart && p.End == us.barEnd {
			// Zero-span partial cut by the marker that closed the previous
			// user-defined window: its events precede this window.
			continue
		}
		if p.End <= we && m.Ctx < len(p.Aggs) {
			rg.fin.Agg.Merge(&p.Aggs[m.Ctx])
			if rg.fin.ReadsRuns() {
				rg.fin.AddRun(p.Aggs[m.Ctx].Values)
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
		Values:  core.FinishValues(&rg.fin, m.Funcs, rg.hints[idx]),
	})
}

// prune drops stored partials no open or future window can need.
func (a *Assembler) prune(rg *rootGroup, w int64) {
	if len(rg.store) < 64 {
		return
	}
	tNeed := rg.cal.EarliestOpenStart(rg.lastPunct)
	for _, sc := range rg.sess {
		if sc.active && sc.start < tNeed {
			tNeed = sc.start
		}
	}
	for _, us := range rg.uds {
		if us.openStart < tNeed {
			tNeed = us.openStart
		}
		for _, c := range us.cands {
			if c.start < tNeed {
				tNeed = c.start
			}
		}
	}
	n := 0
	for n < len(rg.store) && rg.store[n].Start < tNeed {
		message.ReleasePartial(rg.store[n])
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

// Group returns the state's group by id, for runtime query management.
func (a *Assembler) Group(id uint32) (*query.Group, bool) {
	rg, ok := a.states[id]
	if !ok {
		return nil, false
	}
	return rg.g, true
}
