package core

import (
	"math"

	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/query"
	"desis/internal/window"
)

// Batch ingest: scan → fold → punctuate. Window ends are known in advance
// (§4.1), so between two punctuations an event owes the engine nothing but
// its incremental aggregation. ProcessBatch scans the batch in stream order
// for the longest prefix of such quiet events, folds the prefix one key at a
// time, and only then hands the first event that is not quiet to Process.
//
// An event is quiet when it is a data event of a resident key and, for every
// group of that key, it closes no slice, emits nothing and calls no
// callback: it lies strictly before the group's next time punctuation
// (calendar boundary, session expiry, tap bound) and before a deferred
// emission becomes due, is not behind the open slice under a reorder
// horizon, opens no session or user-defined window, does not reach a count
// boundary or a TTL sweep tick, and the group is started, keeps no dedup
// context and is not under PerEventBoundaryCheck. All of that is decided by
// a few compares against quietState (quietAt), which deriveQuiet reads off
// the groups once and which stays current until something that is not quiet
// touches the key (Process drops the key's state) or the engine (AdvanceTo,
// Apply and ResyncPlan start a new generation).
//
// Why regrouping a quiet prefix is unobservable: a quiet event changes
// nothing but the open slices' aggregates, the groups' event counts and
// newest-event times, the session trackers' last-event time, the work
// counters, the key's last touch and the engine clock. No result, partial or
// callback happens inside the prefix, so nobody can read those between two
// of its events; each is a sum, a maximum or a last write over the key's own
// events, and the values of one key keep their stream order, so sums and
// products come out bit-identical. Events of different keys share only the
// work counters (sums) and the engine clock (a maximum, which the scan
// carries along because the deferred-drain test reads it).

// maxRun bounds the prefix one scan takes, and with it the scratch: the
// prefix's values and slots stay in the first-level cache next to the
// events being read.
const maxRun = 1024

// memoSize is the number of direct-mapped slots in front of the shard maps
// (a power of two).
const memoSize = 256

// memoSlot caches one key's resident entry. Entries never move while
// resident, so only eviction has to drop a slot.
type memoSlot struct {
	key uint32
	ent *keyEntry
}

// neverQuiet as quietState.until fails every event.
const neverQuiet = math.MinInt64

// noSession as quietState.sessGap passes every event.
const noSession = math.MaxInt64

// quietState is what decides whether the next event of a key is quiet: at
// time t, with the engine clock (this event included) at now and the key's
// previous event at last, it is when from <= t < until, t-last < sessGap,
// now < drainDue and fewer than budget events of the key are already in the
// prefix.
type quietState struct {
	// until is the earliest calendar boundary or tap bound of any group of
	// the key: fixed while events stay quiet.
	until int64
	// sessGap is the smallest gap among the key's open sessions, which
	// expire that long after the key's last event (keyRun.last).
	sessGap int64
	// from is the newest open-slice start under a reorder horizon (an event
	// behind it is a late commit); the smallest int64 otherwise.
	from int64
	// drainDue is the engine-clock value at which the oldest deferred
	// emission of any group falls due.
	drainDue int64
	// budget is how many more events fit before a count boundary.
	budget int64
}

// keyRun is the run a key has in the prefix being scanned: how many events,
// the last one's time and the greatest. last outlives the prefix as the
// clock sessGap is measured from (deriveQuiet sets it from the session
// trackers). slot is the key's position in the scan's touched list plus one,
// 0 while the key has no run.
type keyRun struct {
	n, slot      int32
	last, newest int64
}

// batchScratch is the engine-owned working memory of ingest, allocated with
// the first event so that building an engine costs what it did: the memo in
// front of the shard maps, and one prefix's scan and fold. slots maps each
// scanned event to its key's keyRun.slot (0: the key has no state, the event
// is skipped); cursor is each touched key's next write position in vals,
// where the prefix's values are laid out key by key.
type batchScratch struct {
	memo    [memoSize]memoSlot
	touched [maxRun]*keyEntry
	keys    int // how many of touched the prefix being scanned uses
	slots   [maxRun]int32
	cursor  [maxRun]int32
	vals    [maxRun]float64
	match   [maxRun]float64 // the values of one run a predicate selects
}

// batch returns the engine's ingest scratch.
//
//desis:hotpath
func (e *Engine) batch() *batchScratch {
	if e.scratch == nil {
		//lint:ignore hotalloc one allocation per engine, on its first event
		e.newScratch()
	}
	return e.scratch
}

func (e *Engine) newScratch() { e.scratch = new(batchScratch) }

// lookup returns the resident entry of key, or nil, through the memo.
//
//desis:hotpath
func (e *Engine) lookup(key uint32) *keyEntry {
	m := &e.batch().memo[key&(memoSize-1)]
	if m.key == key && m.ent != nil {
		return m.ent
	}
	ent := e.shards[e.instShardOf(key)].byKey[key]
	if ent != nil {
		m.key, m.ent = key, ent
	}
	return ent
}

// memoDrop forgets key's slot; evictKey calls it when the entry leaves the
// shard map.
func (e *Engine) memoDrop(key uint32) {
	if e.scratch == nil {
		return
	}
	if m := &e.scratch.memo[key&(memoSize-1)]; m.key == key {
		m.ent = nil
	}
}

// owesRouting reports whether an event for a key without a resident entry
// still has work to trigger in Process: templates to instantiate or a parked
// key to revive.
func (e *Engine) owesRouting(key uint32) bool {
	if len(e.plan.Templates) > 0 && !e.tmplKeys[key] {
		return true
	}
	return e.keyParked(key)
}

// deriveQuiet reads the quiet bounds of a key off its groups, and the time
// sessGap is measured from.
//
//desis:hotpath
func (e *Engine) deriveQuiet(ent *keyEntry, key uint32) (q quietState, last int64) {
	never := quietState{until: neverQuiet}
	if e.cfg.PerEventBoundaryCheck || (len(e.plan.Templates) > 0 && !e.tmplKeys[key]) {
		return never, 0
	}
	q = quietState{
		until:    window.NoBoundary,
		sessGap:  noSession,
		from:     math.MinInt64,
		drainDue: window.NoBoundary,
		budget:   math.MaxInt64,
	}
	last = math.MaxInt64
	for _, g := range ent.groups {
		if !g.started || g.dedup != nil {
			return never, 0
		}
		b := g.nextTimeBound
		if len(g.taps) > 0 {
			if tb := g.nextTapBound(); tb < b {
				b = tb
			}
		}
		q.until = min(q.until, b)
		if e.cfg.ReorderHorizon > 0 {
			q.from = max(q.from, g.cur.start)
		}
		if len(g.deferred) > 0 {
			q.drainDue = min(q.drainDue, g.deferred[0]+g.oooHorizon)
		}
		if g.feedFrom != nil {
			continue // a fed group only follows the clock
		}
		if !g.sessions.Empty() {
			end := g.sessions.NextEnd()
			if g.sessions.NeedsStart() || end == window.NoBoundary {
				return never, 0
			}
			// Every session group of a key observes the same events, so
			// they agree on the last one; the minimum is the cautious
			// reading if they ever did not.
			q.sessGap = min(q.sessGap, end-g.sessions.LastEvent())
			last = min(last, g.sessions.LastEvent())
		}
		if !g.ud.Empty() && g.ud.NeedsStart() {
			return never, 0
		}
		q.budget = min(q.budget, g.nextCountID-g.count-1)
	}
	return q, last
}

// matching returns the values of a run laid out by foldRuns that p selects,
// in order: vals itself when all of them do, else a copy in the scratch that
// the next call overwrites. finite is foldRuns' word that the prefix is all
// finite numbers, in which case a predicate without bounds needs no look at
// them.
//
//desis:hotpath
func (e *Engine) matching(p query.Predicate, vals []float64, finite bool) []float64 {
	if finite && p.IsAll() {
		return vals
	}
	// Compact without a branch on the predicate: every value is written,
	// the write position moves on only past a match.
	out := e.scratch.match[:len(vals)]
	m := 0
	for _, v := range vals {
		out[m] = v
		keep := 0
		if v >= p.Min {
			keep = 1
		}
		if !(v < p.Max) {
			keep = 0
		}
		m += keep
	}
	if m == len(vals) {
		return vals
	}
	return out[:m]
}

// ProcessBatch ingests a batch of events in order: results, their order,
// partials, Stats() at every callback and snapshots are those of calling
// Process on each event.
//
//desis:hotpath
func (e *Engine) ProcessBatch(evs []event.Event) {
	if e.cfg.PerEventBoundaryCheck || e.plan.Dedup {
		// No event of such an engine is ever quiet (deriveQuiet), so there
		// is nothing to scan for.
		for i := range evs {
			e.process(evs[i], nil)
		}
		return
	}
	for len(evs) > 0 {
		// The scan never looks past the event that would reach the sweep
		// tick, so the sweep runs after the same event as under Process.
		limit := min(len(evs), maxRun)
		if e.ttl > 0 {
			limit = min(limit, e.untilSweep())
		}
		n, ent := e.scanQuiet(evs[:limit])
		if e.foldRuns(evs[:n]) {
			// Other engines moved a shared sweep clock meanwhile and the
			// sweep fell due short of the limit: it may have parked the key.
			ent = nil
		}
		// Punctuate: the event that ended the scan, unless the limit did.
		if n < limit {
			e.process(evs[n], ent)
			n++
		}
		evs = evs[n:]
	}
}

// quietAt reports whether the key's next event, at time t with the engine
// clock (the event included) at now, is quiet under the key's bounds.
func (ent *keyEntry) quietAt(t, now int64, horizon bool) bool {
	q, r := &ent.quiet, &ent.run
	return t < q.until && t-r.last < q.sessGap && int64(r.n) < q.budget &&
		(!horizon || (t >= q.from && now < q.drainDue))
}

// scanQuiet routes the events of evs (at most maxRun) to their keys in
// stream order and tests each against its key's quiet bounds, counting the
// key's run. It returns the length of the quiet prefix and, when an event
// ended it, that event's resident entry if it has one.
//
//desis:hotpath
func (e *Engine) scanQuiet(evs []event.Event) (int, *keyEntry) {
	sc := e.batch()
	slots := sc.slots[:len(evs)]
	now, gen, horizon := e.now, e.quietGen, e.cfg.ReorderHorizon > 0
	keys := int32(0)
	for n := 0; ; {
		// The tight loop takes every event whose key is in the memo with
		// current bounds, and calls nothing; anything else stops it.
		for ; n < len(slots); n++ {
			ev := &evs[n]
			key, t := ev.Key, ev.Time
			m := &sc.memo[key&(memoSize-1)]
			ent := m.ent
			if m.key != key || ent == nil || ev.Marker != event.MarkerNone {
				break
			}
			nt := max(now, t)
			r := &ent.run
			if r.slot == 0 && (ent.gen != gen || invariant.Enabled) {
				break // the bounds are to be derived (debug builds: checked) first
			}
			if !ent.quietAt(t, nt, horizon) {
				break
			}
			if r.slot == 0 {
				keys = sc.openRun(ent, keys, t)
			}
			r.n++
			r.last = t
			if t > r.newest {
				r.newest = t
			}
			ent.lastTouch = nt
			slots[n] = r.slot
			now = nt
		}
		if n == len(slots) {
			e.now, sc.keys = now, int(keys)
			return n, nil
		}
		ev := &evs[n]
		ent := e.lookup(ev.Key)
		switch {
		case ev.Marker != event.MarkerNone:
		case ent == nil:
			if !e.owesRouting(ev.Key) {
				// Nothing registered for the key: the event only moves
				// the clock.
				slots[n] = 0
				now = max(now, ev.Time)
				n++
				continue
			}
		case ent.run.slot == 0 && (ent.gen != e.quietGen || invariant.Enabled):
			e.refreshQuiet(ent, ev.Key)
			if ent.quietAt(ev.Time, max(now, ev.Time), horizon) {
				keys = sc.openRun(ent, keys, ev.Time)
				continue // the tight loop takes the event from here
			}
		case ent.quietAt(ev.Time, max(now, ev.Time), horizon):
			continue // only the memo had lost the key, to one sharing its slot
		}
		e.now, sc.keys = now, int(keys)
		return n, ent
	}
}

// openRun enters a key's first event of the prefix, at time t, as the
// keys-th run of the scan and returns the new count.
func (sc *batchScratch) openRun(ent *keyEntry, keys int32, t int64) int32 {
	sc.touched[keys] = ent
	ent.run.slot, ent.run.newest = keys+1, t // slot 0 is no run
	return keys + 1
}

// refreshQuiet brings the quiet bounds of a key without a run up to date;
// debug builds check bounds that claim to be.
//
//desis:hotpath
func (e *Engine) refreshQuiet(ent *keyEntry, key uint32) {
	if ent.gen != e.quietGen {
		ent.quiet, ent.run.last = e.deriveQuiet(ent, key)
		ent.gen = e.quietGen
	} else if invariant.Enabled {
		//lint:ignore hotalloc debug-build verification: compiled out of release builds
		e.checkQuiet(ent, key)
	}
}

// foldRuns folds the prefix scanQuiet scanned, evs, and reports whether a
// TTL sweep ran after it.
//
//desis:hotpath
func (e *Engine) foldRuns(evs []event.Event) (swept bool) {
	sc := e.scratch
	touched := sc.touched[:sc.keys]
	if len(touched) == 0 {
		return false
	}
	// Scatter: lay the values out key by key, each key's in stream order.
	total := int32(0)
	for i, ent := range touched {
		sc.cursor[i] = total
		total += ent.run.n
	}
	const expMask = 0x7ff << 52 // all ones in an infinity or a NaN
	finite := true
	for j := range evs {
		if s := sc.slots[j]; s > 0 {
			v := evs[j].Value
			if math.Float64bits(v)&expMask == expMask {
				finite = false
			}
			p := sc.cursor[s-1]
			sc.cursor[s-1] = p + 1
			sc.vals[p] = v
		}
	}
	// Fold: one pass per key, group and context; the work counters move
	// once for the whole prefix.
	var events, calcs uint64
	at := int32(0)
	for i, ent := range touched {
		r := &ent.run
		run := sc.vals[at : at+r.n]
		at += r.n
		for _, g := range ent.groups {
			if g.feedFrom == nil {
				calcs += g.fold(run, finite, r.last, r.newest)
				events += uint64(r.n)
			}
		}
		ent.quiet.budget -= int64(r.n)
		r.n, r.slot = 0, 0
		touched[i] = nil
	}
	e.stats.events.Add(events)
	e.stats.calculations.Add(calcs)
	return e.ttl > 0 && e.maybeSweep(uint32(total))
}

// checkQuiet asserts that the bounds kept for a key are the ones its groups
// give now, i.e. that every path that moves a punctuation also dropped the
// kept state. Debug builds only (desis_invariants).
func (e *Engine) checkQuiet(ent *keyEntry, key uint32) {
	fresh, last := e.deriveQuiet(ent, key)
	invariant.Assertf(ent.quiet == fresh,
		"stale quiet bounds for key %d: kept %+v, groups give %+v", key, ent.quiet, fresh)
	invariant.Assertf(fresh.sessGap == noSession || ent.run.last == last,
		"stale session clock for key %d: kept %d, trackers give %d", key, ent.run.last, last)
}
