package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/operator"
	"desis/internal/query"
	"desis/internal/telemetry"
	"desis/internal/window"
)

// sliceRec is one closed slice: its extent on the time and count axes plus
// one partial aggregate per selection context of the group.
type sliceRec struct {
	seq                  uint64 // creation order, monotone with position
	start, end           int64  // event-time extent [start, end)
	startCount, endCount int64  // count-axis extent (events ingested)
	lastEvent            int64  // newest event time at close
	aggs                 []operator.Agg
}

// member is a query inside a group, with registration bookkeeping so queries
// added at runtime only answer windows that started after they arrived.
type member struct {
	query.GroupQuery
	// ops is the member's own operator need (plus count): window assembly
	// merges only these fields, so e.g. an average window in a group that
	// also serves quantiles does not merge the retained value arrays.
	ops      operator.Op
	removed  bool
	regTime  int64
	regCount int64
	// udOpenSeq is, for user-defined members, the sequence number of the
	// first slice belonging to the currently open window. Membership of
	// user-defined windows follows stream order, so a zero-span slice cut
	// by the closing marker (same timestamp as the window start) must not
	// leak into the next window; the sequence filter excludes it.
	udOpenSeq uint64
	// hints holds, per function, the value it had in the member's previous
	// window: the first pivot of the next window's rank selection (see
	// FinishValues, NewHints). Derived state: never snapshotted, and never
	// invalidated — any value is a valid pivot.
	hints []float64
}

// groupState is the runtime of one query-group: the shared slice stream and
// all window trackers (§4.1, Figure 4).
type groupState struct {
	e          *Engine
	id         uint32
	key        uint32
	placement  query.Placement
	contexts   []query.Predicate
	members    []member
	ops        operator.Op
	logicalOps uint64 // Table-1 union size, for calculation accounting

	cal      window.Calendar    // fixed time-based windows
	countCal window.Calendar    // fixed count-based windows
	sessions window.Sessions    // session windows
	ud       window.UserDefined // user-defined (marker) windows

	started       bool
	cur           sliceRec // open slice
	lastPunct     int64    // end of the last closed slice on the time axis
	nextTimeBound int64
	count         int64 // events ingested (count-axis position)
	nextCountID   int64
	lastEventTime int64
	nextSliceID   uint64

	closed  []sliceRec    // closed slices, monotone in start and startCount
	idx     assemblyIndex // pre-aggregates over closed (assembly.go index seam)
	pending *SlicePartial
	fin     operator.WindowFinisher // scratch aggregate and value runs of the window being assembled

	// aggPool and partialPool recycle the per-slice aggregate rows (their
	// Values buffers keep their capacity) and staged partials, so the
	// steady-state ingest path allocates nothing: pruned slices and
	// recycled partials feed the next closeSlice.
	aggPool     [][]operator.Agg
	partialPool []*SlicePartial

	// Out-of-order commit state (Config.ReorderHorizon). oooHorizon is the
	// group's effective horizon: the configured one when every tracker
	// supports late repair, else 0 (see refreshOOO). emittedBound is the
	// emission frontier — the highest window end already emitted; late
	// events older than it are dropped. deferred holds window boundaries
	// whose emission waits for the horizon to pass (ascending FIFO), and
	// lateDelta is the per-context scratch delta handed to the index.
	oooHorizon   int64
	emittedBound int64
	deferred     []int64
	lateDelta    []operator.Agg

	// Factor-feed runtime (factor.go; annotations from query/factor.go).
	// feedFrom is resolved at install time and nil when the group is not fed
	// or the engine runs in slice-emitting mode (where fed groups degrade to
	// ordinary raw ingestion). fedBound is the next super boundary owed to
	// this group (a multiple of feedPeriod), fedCount its count-axis
	// accumulator; both persist in snapshots. taps lists the fed groups this
	// group feeds, maintained by Engine.install.
	feedFrom   *groupState
	feedCtx    int
	feedPeriod int64
	fedBound   int64
	fedCount   int64
	taps       []*groupState

	// dedup implements the deduplication non-aggregate operator (§4.2.3):
	// events identical in (time, value) within the current slice are
	// dropped. nil when the group does not request deduplication.
	// dedupPeak tracks the occupancy the map's buckets were grown for and
	// dedupLow counts consecutive collapsed slices; see resetDedup.
	dedup     map[dedupKey]struct{}
	dedupPeak int
	dedupLow  int

	// Bound punctuation callbacks: constructed once so the ingest path hands
	// the trackers preallocated closures instead of allocating one per event
	// or punctuation (the hotalloc contract on process/advanceTime).
	onTimeEnd   func(idx int, start int64)
	onCountEnd  func(idx int, start int64)
	onSessEnd   func(idx int, start, end int64)
	onMarkerEnd func(idx int, start, end int64)
	onUDOpen    func(idx int)
	curBound    int64 // time boundary being punctuated, read by onTimeEnd

	// Per-group instruments, nil until Engine.AttachTelemetry: their
	// methods no-op on nil, so the hot path calls them unconditionally and
	// an unattached engine pays one branch, zero allocations.
	telEvents  *telemetry.Counter
	telSlices  *telemetry.Counter
	telWindows *telemetry.Counter
}

type dedupKey struct {
	t int64
	v float64
}

func newGroupState(e *Engine, g *query.Group) *groupState {
	gs := newGroupShell(e, g)
	for _, gq := range g.Queries {
		gs.addMember(gq)
	}
	return gs
}

// newGroupShell builds a group's runtime without registering any members:
// the form revival needs, where the member set (and its registration
// bookkeeping) comes from the eviction snapshot rather than the catalog.
func newGroupShell(e *Engine, g *query.Group) *groupState {
	gs := &groupState{
		e:          e,
		id:         g.ID,
		key:        g.Key,
		placement:  g.Placement,
		contexts:   append([]query.Predicate(nil), g.Contexts...),
		ops:        g.Ops,
		logicalOps: uint64(g.LogicalOps.NumOps()),
	}
	if g.Dedup {
		gs.dedup = make(map[dedupKey]struct{})
	}
	if e.fedActive() && g.FeedPeriod > 0 {
		// The feeder precedes this group in every install order (plan
		// construction, delta Touched order, revival blobs are all ascending
		// id); a missing feeder (defensive: placement filters never split a
		// feed edge) leaves feedFrom nil and the group ingests raw events.
		if f := e.byID[g.FeedFrom]; f != nil {
			gs.feedFrom = f
			gs.feedCtx = g.FeedCtx
			gs.feedPeriod = g.FeedPeriod
		}
	}
	gs.idx = newAssemblyIndex(e.cfg.NaiveAssembly)
	gs.refreshOOO()
	// The callbacks close over gs once; per-punctuation state (the current
	// boundary) travels through gs fields rather than fresh captures.
	gs.onTimeEnd = func(idx int, start int64) { gs.assembleTime(idx, start, gs.curBound) }
	gs.onCountEnd = func(idx int, start int64) { gs.assembleCount(idx, start, gs.count) }
	gs.onSessEnd = func(idx int, start, end int64) { gs.endDynamic(idx, start, end, gs.sessions.LastEvent()) }
	gs.onMarkerEnd = func(idx int, start, end int64) { gs.endDynamic(idx, start, end, 0) }
	gs.onUDOpen = func(idx int) { gs.members[idx].udOpenSeq = gs.nextSliceID }
	return gs
}

// attachTelemetry registers the group's counters. The names are stable
// across the topology (group ids come from the shared plan), so merging
// node snapshots sums each group's counters cluster-wide.
func (g *groupState) attachTelemetry(reg *telemetry.Registry) {
	g.telEvents = reg.Counter(fmt.Sprintf("group.%d.events", g.id))
	g.telSlices = reg.Counter(fmt.Sprintf("group.%d.slices", g.id))
	g.telWindows = reg.Counter(fmt.Sprintf("group.%d.windows", g.id))
}

// addMember registers a query in the group's trackers and returns its index.
func (g *groupState) addMember(gq query.GroupQuery) int {
	idx := len(g.members)
	g.members = append(g.members, member{
		GroupQuery: gq,
		ops:        operator.Union(gq.Funcs) | operator.OpCount,
		regTime:    g.lastPunct,
		regCount:   g.count,
		hints:      NewHints(gq.Funcs),
	})
	switch gq.Type {
	case query.Tumbling:
		if gq.Measure == query.Time {
			g.cal.Add(idx, gq.Length, gq.Length)
		} else {
			g.countCal.Add(idx, gq.Length, gq.Length)
		}
	case query.Sliding:
		if gq.Measure == query.Time {
			g.cal.Add(idx, gq.Length, gq.Slide)
		} else {
			g.countCal.Add(idx, gq.Length, gq.Slide)
		}
	case query.Session:
		g.sessions.Add(idx, gq.Gap)
	case query.UserDefined:
		g.ud.Add(idx)
	}
	g.refreshOOO()
	return idx
}

// removeMember drops a query from all trackers.
func (g *groupState) removeMember(idx int) {
	g.members[idx].removed = true
	g.cal.Remove(idx)
	g.countCal.Remove(idx)
	g.sessions.Remove(idx)
	g.ud.Remove(idx)
	g.refreshOOO()
}

// refreshOOO recomputes the group's effective reorder horizon. Late
// commits repair time-window state only: slice-emitting mode (partials
// already shipped), dedup (slice-scoped contexts are gone), count windows
// (count-axis positions of later events shift), and session/user-defined
// windows (boundaries themselves depend on event order) all disable it.
// When the capability is lost at runtime, deferred emissions flush first
// so no boundary is stranded.
func (g *groupState) refreshOOO() {
	h := g.e.cfg.ReorderHorizon
	if h > 0 {
		if g.e.cfg.OnSlice != nil || g.dedup != nil ||
			!g.countCal.Empty() || !g.sessions.Empty() || !g.ud.Empty() {
			h = 0
			g.e.noteHorizonDisabled()
		}
	} else {
		h = 0
	}
	if h == 0 && g.oooHorizon > 0 {
		g.drainDeferred(window.NoBoundary)
	}
	g.oooHorizon = h
}

// start opens the first slice at the time of the first event.
func (g *groupState) start(t int64) {
	g.started = true
	g.lastPunct = t
	g.lastEventTime = t
	g.cur = sliceRec{start: t, startCount: g.count, lastEvent: t, aggs: g.newAggs()}
	g.nextTimeBound = g.cal.NextBoundary(t)
	g.nextCountID = g.countCal.NextBoundary(g.count)
	if telemetry.TraceEnabled {
		telemetry.TraceSlice(telemetry.TraceOpen, g.e.cfg.TraceName, uint64(g.id), g.nextSliceID, t, t)
	}
}

func (g *groupState) newAggs() []operator.Agg {
	if n := len(g.aggPool); n > 0 {
		aggs := g.aggPool[n-1]
		g.aggPool[n-1] = nil
		g.aggPool = g.aggPool[:n-1]
		if cap(aggs) >= len(g.contexts) {
			aggs = aggs[:len(g.contexts)]
			for i := range aggs {
				aggs[i].Reset(g.ops)
			}
			return aggs
		}
	}
	// Group-pool miss: an evicted key may have parked a row on the engine
	// free list.
	if row := g.e.takeAggRow(); cap(row) >= len(g.contexts) {
		row = row[:len(g.contexts)]
		for i := range row {
			row[i].Reset(g.ops)
		}
		return row
	}
	//lint:ignore hotalloc pool-miss growth path: steady state recycles rows via recycleAggs, so this runs only while the pool warms up
	aggs := make([]operator.Agg, len(g.contexts))
	for i := range aggs {
		aggs[i].Reset(g.ops)
	}
	return aggs
}

// recycleAggs returns an aggregate row to the pool for the next slice. The
// caller must hold the only reference (pruned slices, recycled partials).
func (g *groupState) recycleAggs(aggs []operator.Agg) {
	if aggs == nil || len(g.aggPool) >= 256 {
		return
	}
	g.aggPool = append(g.aggPool, aggs)
}

// process routes one event through the group: punctuations first (window
// ends exclude the boundary event), then incremental aggregation, then
// count-axis punctuations.
//
//desis:hotpath
func (g *groupState) process(ev event.Event) {
	if g.feedFrom != nil {
		// Fed groups ingest no raw events — their data arrives as supers
		// from the feeder (which, at a lower group id, already processed
		// this event) — so an event only drives this group's clock: no
		// aggregation, no dedup context, no count axis, no late commits.
		if !g.started {
			g.start(ev.Time)
		}
		if ev.Time >= g.cur.start {
			g.advanceTime(ev.Time)
		}
		return
	}
	if !g.started {
		g.start(ev.Time)
	}
	if ev.Marker == event.MarkerNone && ev.Time < g.cur.start && g.e.cfg.ReorderHorizon > 0 {
		// Behind the open slice: an out-of-order event. Groups that can
		// repair commit it into the closed slice covering it; the rest
		// drop it (counted) rather than silently fold it into the wrong
		// slice.
		if g.oooHorizon > 0 {
			//lint:ignore hotalloc late-commit path: runs once per out-of-order event, bounded by the reorder horizon
			g.lateCommit(ev)
		} else {
			g.e.stats.lateDropped.Add(1)
		}
		return
	}
	g.advanceTime(ev.Time)
	if ev.Marker != event.MarkerNone {
		g.handleMarker(ev.Time)
		return
	}
	if g.dedup != nil {
		k := dedupKey{ev.Time, ev.Value}
		if _, dup := g.dedup[k]; dup {
			return // duplicate within the slice: drop before any effect
		}
		g.dedup[k] = struct{}{}
	}
	// A data event that opens a session or the first user-defined window is
	// a start punctuation: the slice must cut here so the new window's
	// start aligns with a slice boundary (§4.1).
	if (!g.sessions.Empty() && g.sessions.NeedsStart()) ||
		(!g.ud.Empty() && g.ud.NeedsStart()) {
		g.closeSlice(ev.Time)
		g.flushPending()
	}
	one := [1]float64{ev.Value}
	if calcs := g.fold(one[:], false, ev.Time, ev.Time); calcs > 0 {
		g.e.stats.calculations.Add(calcs)
	}
	g.e.stats.events.Add(1)
	for g.count == g.nextCountID {
		g.punctuateCount(ev.Time)
		g.nextCountID = g.countCal.NextBoundary(g.count)
	}
}

// fold is the incremental aggregation of a run of this key's data events,
// none of which is a punctuation for the group: the values (in stream
// order) go into the open slice of every context they match, and the
// bookkeeping a loop over the events would leave behind is written once —
// last is the time of the run's last event, newest its greatest; finite
// promises that no value is an infinity or a NaN (see matching). It returns
// the logical operator executions, which the caller adds to the work
// counters together with the events. process calls it with a run of one
// after the event's punctuations fired; Engine.foldRuns with the run a quiet
// prefix holds for the key, where no event opens a session or user-defined
// window (one that would is not quiet), so observing only the last time
// loses nothing.
//
//desis:hotpath
func (g *groupState) fold(vals []float64, finite bool, last, newest int64) (calcs uint64) {
	if len(vals) == 1 {
		// A run of one skips the run machinery (two calls and their loop
		// set-up per context). Without this the Process loop measured
		// 40.1 against 30.4 ns/event on four keys, 33.2 against 25.2 on one
		// and 53.3 against 44.4 with a punctuation every eight events
		// (BenchmarkEngineProcessLoop, minimum of nine alternated runs).
		v := vals[0]
		for i := range g.contexts {
			if g.contexts[i].Matches(v) {
				g.cur.aggs[i].Add(v)
				calcs += g.logicalOps
			}
		}
	} else {
		for i := range g.contexts {
			if run := g.e.matching(g.contexts[i], vals, finite); len(run) > 0 {
				g.cur.aggs[i].AddRun(run)
				calcs += uint64(len(run)) * g.logicalOps
			}
		}
	}
	if !g.sessions.Empty() {
		g.sessions.Observe(last)
	}
	if !g.ud.Empty() {
		// Windows opened by this event start with the slice that will
		// contain it.
		g.ud.ObserveOpened(last, g.onUDOpen)
	}
	if newest > g.lastEventTime {
		g.lastEventTime = newest
	}
	if newest > g.cur.lastEvent {
		g.cur.lastEvent = newest
	}
	g.count += int64(len(vals))
	g.telEvents.Add(uint64(len(vals)))
	return calcs
}

// advanceTime fires every time-axis punctuation (fixed boundaries and
// session gap expiries) at or before t, in order.
//
//desis:hotpath
func (g *groupState) advanceTime(t int64) {
	if !g.started {
		return
	}
	for {
		if g.e.cfg.PerEventBoundaryCheck {
			// Ablation: re-derive the boundary on every event instead of
			// caching the advance calendar (§6.2.1's "in advance" claim).
			g.nextTimeBound = g.cal.NextBoundary(g.lastPunct)
		}
		b := g.nextTimeBound
		if s := g.sessions.NextEnd(); s < b {
			b = s
		}
		if len(g.taps) > 0 {
			// Taps are owed a cut at every feed-period multiple; the member
			// calendar usually covers the grid (placement requires a member
			// slide dividing the period), but member removal can strip it.
			if tb := g.nextTapBound(); tb < b {
				b = tb
			}
		}
		if b > t || b == window.NoBoundary {
			break
		}
		g.closeSlice(b)
		if g.e.cfg.OnSlice == nil {
			if g.oooHorizon > 0 {
				// Defer emission until the horizon passes: a late event
				// inside it may still repair the windows ending here.
				g.deferred = append(g.deferred, b)
			} else {
				t0 := g.beginAssembly()
				g.curBound = b
				g.cal.EndsAt(b, g.onTimeEnd)
				g.e.recordAssembly(t0)
				if len(g.taps) > 0 {
					g.produceTaps(b)
				}
			}
		}
		g.sessions.ExpireBefore(b, g.onSessEnd)
		g.flushPending()
		if b >= g.nextTimeBound {
			g.nextTimeBound = g.cal.NextBoundary(b)
		}
		g.prune()
	}
	if len(g.deferred) > 0 {
		g.drainDeferred(g.e.now - g.oooHorizon)
	}
}

// drainDeferred emits the deferred window boundaries at or before wm, in
// order, then prunes the slices they retained. Deferral exists only under
// a reorder horizon; the boundaries replay through the same calendar
// dispatch an immediate emission uses.
func (g *groupState) drainDeferred(wm int64) {
	if g.feedFrom != nil && wm > g.fedBound {
		// A fed group can only assemble windows from supers its feeder has
		// produced. The feeder drains first in group id order, so this cap
		// only bites when a late event advanced this group while the feeder
		// took the late-commit path (which skips its drain): the deferred
		// boundary waits for the feeder's next in-order drain — exactly when
		// the unrewritten plan's group would emit these windows.
		wm = g.fedBound
	}
	k := 0
	for k < len(g.deferred) && g.deferred[k] <= wm {
		b := g.deferred[k]
		t0 := g.beginAssembly()
		g.curBound = b
		g.cal.EndsAt(b, g.onTimeEnd)
		g.e.recordAssembly(t0)
		if b > g.emittedBound {
			g.emittedBound = b
		}
		if len(g.taps) > 0 {
			// Supers become final together with the emissions at b: commit-
			// eligible late events (ev.Time >= emittedBound) can never land
			// inside a produced super.
			g.produceTaps(b)
		}
		k++
	}
	if k == 0 {
		return
	}
	g.deferred = g.deferred[:copy(g.deferred, g.deferred[k:])]
	g.prune()
}

// lateCommit routes an out-of-order event into the already-closed slice
// covering its timestamp, inserting a slice when the timestamp falls in a
// gap (pruned history never qualifies: everything older than the emission
// frontier is dropped first). The assembly index repairs only the rows
// covering the commit position.
func (g *groupState) lateCommit(ev event.Event) {
	if ev.Time < g.emittedBound {
		// Windows covering this event already emitted: too late to repair.
		g.e.stats.lateDropped.Add(1)
		return
	}
	pos := sort.Search(len(g.closed), func(i int) bool { return g.closed[i].start > ev.Time }) - 1
	inserted := false
	if pos < 0 || ev.Time >= g.closed[pos].end {
		pos = g.insertLateSlice(ev.Time, pos)
		inserted = true
	}
	g.applyLate(pos, inserted, ev)
}

// insertLateSlice inserts a zero-count-width slice covering time t between
// closed[pos] and closed[pos+1] (pos may be -1) and returns its position.
// The extent is the calendar cell around t clamped to the neighbors, so no
// window boundary falls strictly inside it and the ring stays disjoint and
// monotone on both axes.
func (g *groupState) insertLateSlice(t int64, pos int) int {
	at := pos + 1
	start := g.cal.PrevBoundary(t)
	if pos >= 0 && g.closed[pos].end > start {
		start = g.closed[pos].end
	}
	end := g.cal.NextBoundary(t)
	if at < len(g.closed) {
		if s := g.closed[at].start; s < end {
			end = s
		}
	} else if g.cur.start < end {
		end = g.cur.start
	}
	var cnt int64
	switch {
	case at > 0:
		cnt = g.closed[at-1].endCount
	case at < len(g.closed):
		cnt = g.closed[at].startCount
	default:
		cnt = g.cur.startCount
	}
	seq := g.nextSliceID
	g.nextSliceID++
	aggs := g.newAggs()
	for i := range aggs {
		aggs[i].Finish()
	}
	g.closed = append(g.closed, sliceRec{})
	copy(g.closed[at+1:], g.closed[at:])
	g.closed[at] = sliceRec{
		seq: seq, start: start, end: end,
		startCount: cnt, endCount: cnt,
		lastEvent: t, aggs: aggs,
	}
	g.e.stats.slices.Add(1)
	g.telSlices.Inc()
	return at
}

// applyLate folds the late event into closed[pos]'s aggregates and hands
// the per-context delta to the assembly index for row repair. The group's
// event count (count-axis position) is not advanced: the count axis is
// stream-order by definition, and count windows are disabled under a
// reorder horizon.
func (g *groupState) applyLate(pos int, inserted bool, ev event.Event) {
	idxOps := g.ops &^ operator.OpNDSort
	for len(g.lateDelta) < len(g.contexts) {
		g.lateDelta = append(g.lateDelta, operator.Agg{})
	}
	g.lateDelta = g.lateDelta[:len(g.contexts)]
	rec := &g.closed[pos]
	for c := range g.contexts {
		d := &g.lateDelta[c]
		d.Reset(idxOps)
		// Lanes beyond the slice's row belong to contexts added after the
		// slice closed; members using them answer no window reaching this
		// far back, so the delta stays empty to keep index rows and ring
		// lanes consistent.
		if c < len(rec.aggs) && g.contexts[c].Matches(ev.Value) {
			d.Add(ev.Value)
			rec.aggs[c].AddLate(ev.Value)
			if !rec.aggs[c].Sorted {
				// A restored row re-enters unsorted (readSlice clears the
				// flag); re-finish so the run merge stays valid.
				rec.aggs[c].Finish()
			}
			g.e.stats.calculations.Add(g.logicalOps)
		}
	}
	g.idx.configure(len(g.contexts), idxOps, len(g.closed))
	g.idx.commitLate(g.closed, pos, inserted, g.lateDelta)
	g.e.stats.events.Add(1)
	g.e.stats.lateCommits.Add(1)
	g.telEvents.Inc()
}

// handleMarker processes a user-defined window boundary event at t.
func (g *groupState) handleMarker(t int64) {
	if g.ud.Empty() {
		return
	}
	g.closeSlice(t)
	g.ud.Marker(t, g.onMarkerEnd)
	// The next window of every user-defined member starts with the next
	// slice; the one just cut holds pre-marker events.
	for i := range g.members {
		if g.members[i].Type == query.UserDefined && !g.members[i].removed {
			g.members[i].udOpenSeq = g.nextSliceID
		}
	}
	g.flushPending()
	g.prune()
}

// punctuateCount closes the slice at a count-axis boundary reached at event
// time t and assembles the count windows that end there.
func (g *groupState) punctuateCount(t int64) {
	g.closeSlice(t)
	if g.e.cfg.OnSlice == nil {
		t0 := g.beginAssembly()
		g.countCal.EndsAt(g.count, g.onCountEnd)
		g.e.recordAssembly(t0)
	}
	g.flushPending()
	g.prune()
}

// endDynamic handles the end of a session or user-defined window: assembled
// locally in store mode, or recorded as an EP on the outgoing slice partial
// in slice-emitting mode (§5.1.2).
func (g *groupState) endDynamic(idx int, start, end, gapStart int64) {
	if g.e.cfg.OnSlice == nil {
		t0 := g.beginAssembly()
		g.assembleTime(idx, start, end)
		g.e.recordAssembly(t0)
		return
	}
	if g.pending == nil {
		g.pending = g.emptyPartial(end)
	}
	g.pending.EPs = append(g.pending.EPs, EP{
		QueryIdx: int32(idx), Start: start, End: end, GapStart: gapStart,
	})
}

// closeSlice terminates the open slice at time-axis position b (no-op when
// the slice is empty on both axes), stores or stages it, and opens the next
// one.
//
//desis:hotpath
func (g *groupState) closeSlice(b int64) {
	if g.count == g.cur.startCount {
		// No events since the last punctuation: slide the open slice
		// forward instead of recording an empty one.
		g.cur.start = b
		g.lastPunct = b
		return
	}
	g.cur.end = b
	g.cur.endCount = g.count
	g.cur.seq = g.nextSliceID
	g.nextSliceID++
	for i := range g.cur.aggs {
		g.cur.aggs[i].Finish()
	}
	g.e.stats.slices.Add(1)
	g.telSlices.Inc()
	if telemetry.TraceEnabled {
		telemetry.TraceSlice(telemetry.TraceClose, g.e.cfg.TraceName, uint64(g.id), g.cur.seq, g.cur.start, b)
	}
	if g.e.cfg.OnSlice != nil {
		g.stagePartial()
	} else {
		g.closed = append(g.closed, g.cur)
		if invariant.Enabled {
			//lint:ignore hotalloc debug-build verification: the ring invariants box their Assertf args, and invariant.Enabled compiles this call out of release builds
			g.checkRing()
		}
		g.idx.configure(len(g.contexts), g.ops&^operator.OpNDSort, len(g.closed)-1)
		g.idx.appendSlice(g.closed)
	}
	g.cur = sliceRec{start: b, startCount: g.count, lastEvent: g.lastEventTime, aggs: g.newAggs()}
	g.lastPunct = b
	if telemetry.TraceEnabled {
		telemetry.TraceSlice(telemetry.TraceOpen, g.e.cfg.TraceName, uint64(g.id), g.nextSliceID, b, b)
	}
	if g.dedup != nil {
		g.resetDedup()
	}
}

// Dedup maps are slice-scoped and reset with clear(), which keeps the
// buckets so steady-state slices reuse them. Kept unconditionally, a key
// that once saw a dedup burst would hold peak-sized buckets forever — at
// group-by cardinality the dominant idle cost — so when occupancy stays
// collapsed (dedupShrinkRatio× below the peak the buckets were grown for,
// dedupShrinkAfter slices in a row, and only once the peak passed
// dedupShrinkMin where bucket memory matters) the map is reallocated at the
// recent working size.
const (
	dedupShrinkMin   = 1024
	dedupShrinkRatio = 8
	dedupShrinkAfter = 16
)

// resetDedup clears the slice-scoped dedup context, shrinking the map when
// occupancy has collapsed below its bucket sizing for long enough.
//
//desis:hotpath
func (g *groupState) resetDedup() {
	n := len(g.dedup)
	if n > g.dedupPeak {
		g.dedupPeak = n
	}
	if g.dedupPeak >= dedupShrinkMin && n*dedupShrinkRatio < g.dedupPeak {
		if g.dedupLow++; g.dedupLow >= dedupShrinkAfter {
			//lint:ignore hotalloc shrink path: runs once per sustained occupancy collapse, trading one allocation for peak-sized buckets held forever
			g.dedup = make(map[dedupKey]struct{}, 2*n)
			g.dedupPeak = 2 * n
			g.dedupLow = 0
			return
		}
	} else {
		g.dedupLow = 0
	}
	if n > 0 {
		clear(g.dedup)
	}
}

// checkRing asserts the closed-slice ring stays disjoint and monotone on
// both axes after an append. Debug builds only (desis_invariants).
func (g *groupState) checkRing() {
	n := len(g.closed)
	if n < 2 {
		return
	}
	a, rec := &g.closed[n-2], &g.closed[n-1]
	invariant.Assertf(a.end <= rec.start,
		"slice ring overlap: seq %d ends at %d, seq %d starts at %d", a.seq, a.end, rec.seq, rec.start)
	invariant.Assertf(a.seq < rec.seq,
		"slice ring seq not monotone: %d then %d", a.seq, rec.seq)
	invariant.Assertf(a.endCount <= rec.startCount,
		"slice ring count overlap: seq %d ends at count %d, seq %d starts at count %d", a.seq, a.endCount, rec.seq, rec.startCount)
}

// stagePartial converts the closed slice into an outgoing SlicePartial; EPs
// discovered while handling this punctuation attach to it before it ships.
func (g *groupState) stagePartial() {
	p := g.getPartial()
	p.ID = g.cur.seq
	p.Start = g.cur.start
	p.End = g.cur.end
	p.LastEvent = g.cur.lastEvent
	p.Ingested = g.cur.endCount - g.cur.startCount
	p.Aggs = g.cur.aggs
	g.pending = p
}

// emptyPartial builds a zero-extent partial at time b, used when an EP must
// ship but the punctuation closed no slice.
func (g *groupState) emptyPartial(b int64) *SlicePartial {
	id := g.nextSliceID
	g.nextSliceID++
	p := g.getPartial()
	p.ID = id
	p.Start = b
	p.End = b
	p.LastEvent = g.lastEventTime
	p.Aggs = g.newAggs()
	return p
}

// getPartial pops a recycled partial (see Engine.RecyclePartial) or
// allocates a fresh one. All fields the staging sites do not overwrite are
// zeroed here.
func (g *groupState) getPartial() *SlicePartial {
	if n := len(g.partialPool); n > 0 {
		p := g.partialPool[n-1]
		g.partialPool[n-1] = nil
		g.partialPool = g.partialPool[:n-1]
		if invariant.Enabled {
			invariant.UnpoisonPartial(p)
		}
		p.Ingested = 0
		p.EPs = p.EPs[:0]
		return p
	}
	if p := g.e.takePartial(g.id); p != nil {
		return p
	}
	//lint:ignore hotalloc pool-miss growth path: shipped partials come back through Engine.RecyclePartial, so this runs only while the pool warms up
	return &SlicePartial{Group: g.id}
}

// recyclePartial returns a shipped partial's aggregate row and struct to
// the pools.
func (g *groupState) recyclePartial(p *SlicePartial) {
	if invariant.Enabled {
		// Poison before the pools touch it: a second recycle or any read
		// through a stale reference must panic with this partial's identity.
		invariant.PoisonPartial(p, p.ID)
	}
	g.recycleAggs(p.Aggs)
	p.Aggs = nil
	if len(g.partialPool) < 256 {
		g.partialPool = append(g.partialPool, p)
	}
}

// flushPending ships the staged partial, if any.
func (g *groupState) flushPending() {
	if g.pending == nil {
		return
	}
	p := g.pending
	g.pending = nil
	if telemetry.TraceEnabled {
		telemetry.TraceSlice(telemetry.TraceShip, g.e.cfg.TraceName, uint64(g.id), p.ID, p.Start, p.End)
	}
	g.e.cfg.OnSlice(p)
}

// assembleTime merges the slices covering the time window [ws, we) of member
// idx and emits its result (window merging, §4.2 / Figure 4).
func (g *groupState) assembleTime(idx int, ws, we int64) {
	m := &g.members[idx]
	if m.removed || ws < m.regTime {
		return
	}
	lo := sort.Search(len(g.closed), func(i int) bool { return g.closed[i].start >= ws })
	udSeq := uint64(0)
	if m.Type == query.UserDefined {
		udSeq = m.udOpenSeq
	}
	// Slice ends are monotone, so the covered slices form the contiguous
	// range [lo, hi); the sequence filter of user-defined members only
	// raises lo (seq is monotone with position: slices cut before this
	// user-defined window opened belong to its predecessor, even at equal
	// timestamps).
	hi := lo + sort.Search(len(g.closed)-lo, func(i int) bool { return g.closed[lo+i].end > we })
	if udSeq > 0 {
		lo += sort.Search(hi-lo, func(i int) bool { return g.closed[lo+i].seq >= udSeq })
	}
	g.assembleRange(m, lo, hi)
	g.emitResult(m, ws, we)
}

// beginAssembly opens a per-boundary latency measurement when the assembly
// histogram is attached; the zero time means "not measuring" so the
// unattached path never calls time.Now.
func (g *groupState) beginAssembly() time.Time {
	if g.e.telAsm == nil {
		return time.Time{}
	}
	return time.Now()
}

// assembleRange starts the window finisher for member m and hands it
// closed[lo:hi]: the decomposable operators folded through the
// pre-aggregation index (O(1) amortized merges), and the slices' value runs
// when the member reads them.
func (g *groupState) assembleRange(m *member, lo, hi int) {
	g.fin.Begin(m.ops, g.ops)
	g.idx.configure(len(g.contexts), g.ops&^operator.OpNDSort, len(g.closed))
	g.idx.query(g.closed, m.Ctx, lo, hi, &g.fin.Agg)
	if g.fin.ReadsRuns() {
		for i := lo; i < hi; i++ {
			g.fin.AddRun(g.closed[i].aggs[m.Ctx].Values)
		}
	}
}

// assembleCount merges the slices covering the count window (cs, ce] of
// member idx.
func (g *groupState) assembleCount(idx int, cs, ce int64) {
	m := &g.members[idx]
	if m.removed || cs < m.regCount {
		return
	}
	lo := sort.Search(len(g.closed), func(i int) bool { return g.closed[i].startCount >= cs })
	// endCount is strictly increasing across closed slices, so the covered
	// slices form the contiguous range [lo, hi).
	hi := lo + sort.Search(len(g.closed)-lo, func(i int) bool { return g.closed[lo+i].endCount > ce })
	g.assembleRange(m, lo, hi)
	g.emitResult(m, cs, ce)
}

// emitResult evaluates the member's functions over the assembled window and
// hands the result to the engine.
func (g *groupState) emitResult(m *member, start, end int64) {
	g.telWindows.Inc()
	if telemetry.TraceEnabled {
		telemetry.TraceSlice(telemetry.TraceAssemble, g.e.cfg.TraceName, uint64(g.id), g.cur.seq, start, end)
	}
	if g.e.cfg.OnWindowAgg != nil {
		g.e.cfg.OnWindowAgg(m.ID, start, end, g.fin.MergedAgg())
		return
	}
	g.e.emit(Result{
		QueryID: m.ID,
		Key:     m.Key,
		Start:   start,
		End:     end,
		Count:   g.fin.Agg.CountV,
		Values:  FinishValues(&g.fin, m.Funcs, m.hints),
	})
}

// NewHints returns the selection hints a member with these functions keeps
// for FinishValues: one slot per function when any of them selects a rank
// (median, quantile), nil otherwise. The slots start at zero, which is as
// valid a first hint as any.
func NewHints(funcs []operator.FuncSpec) []float64 {
	if operator.Union(funcs)&operator.OpNDSort == 0 {
		return nil
	}
	return make([]float64, len(funcs))
}

// FinishValues evaluates a member's functions over the window f holds.
// hints is nil or one slot per function that the member keeps from window
// to window (NewHints): each function's last value goes in as the hint of its rank
// selection and the new value comes back out. Consecutive windows of a
// sliding query share all but one slice, so the selection pays for the
// difference. A slot left stale by a late commit, a plan delta or a restore
// is still a valid hint (operator.RunSelector.Select), so nothing resets it.
func FinishValues(f *operator.WindowFinisher, funcs []operator.FuncSpec, hints []float64) []FuncValue {
	values := make([]FuncValue, len(funcs))
	for i, spec := range funcs {
		hint := math.NaN()
		if hints != nil {
			hint = hints[i]
		}
		v, ok := f.Eval(spec, hint)
		if ok && hints != nil {
			hints[i] = v
		}
		values[i] = FuncValue{Spec: spec, Value: v, OK: ok}
	}
	return values
}

// prune drops closed slices no longer covered by any open window on either
// axis, keeping memory proportional to the longest open window (§2.3). The
// retention threshold is Config.PruneThreshold (default 64); dropped slices
// are counted in Stats.Pruned and their aggregate rows recycled.
func (g *groupState) prune() {
	if len(g.closed) < g.e.pruneThreshold {
		return
	}
	anchor := g.lastPunct
	if g.oooHorizon > 0 {
		// Deferred emissions still read slices their boundaries cover:
		// retain relative to the emission frontier, not the punctuation
		// frontier that ran ahead of it.
		anchor = g.emittedBound
	}
	tNeed := g.cal.EarliestOpenStart(anchor)
	if s := g.sessions.EarliestOpenStart(); s < tNeed {
		tNeed = s
	}
	for _, d := range g.taps {
		// Slices not yet folded into a super must survive: the next super
		// starts at the tap's production bound.
		if d.fedBound < tNeed {
			tNeed = d.fedBound
		}
	}
	if s := g.ud.EarliestOpenStart(); s < tNeed {
		tNeed = s
	}
	cNeed := g.countCal.EarliestOpenStart(g.count)
	// A slice is only ever assembled into windows with ws <= slice.start
	// (gathering requires start >= ws), so once every open or future window
	// starts at or after tNeed/cNeed, slices that started strictly earlier
	// on both axes can never be needed again. Note start < tNeed, not
	// end <= tNeed: a zero-span slice sitting exactly at an open session's
	// start must survive.
	n := 0
	for n < len(g.closed) && g.closed[n].start < tNeed && g.closed[n].startCount < cNeed {
		n++
	}
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		g.recycleAggs(g.closed[i].aggs)
		g.closed[i].aggs = nil
	}
	g.closed = append(g.closed[:0], g.closed[n:]...)
	g.e.stats.pruned.Add(uint64(n))
	g.idx.dropFront(n)
}
