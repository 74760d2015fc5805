package desis

import (
	"math"

	"desis/internal/telemetry"
)

// Reorderer turns a bounded-disorder stream into the in-order stream the
// engine requires. Events are buffered until the maximum observed event
// time has moved maxLateness past them, then released in timestamp order
// (ties keep arrival order). Events arriving later than that are dropped
// and counted — the usual allowed-lateness contract of stream processors.
//
// The paper's generators replay in order (§6.1.2); Reorderer extends the
// reproduction to the out-of-order setting Scotty is built for, without
// touching the engine's hot path.
//
// Most arrivals of such a stream are in order, so the buffer (reorderBuffer)
// keeps them in a FIFO run and only the stragglers in a heap: an in-order
// arrival costs O(1), a straggler O(log pending), and a stream with no two
// arrivals in order is the worst case, O(log pending) per event. Steady
// state allocates nothing.
type Reorderer struct {
	lateness int64
	horizon  int64 // forwarded-disorder budget; see NewReordererWithHorizon
	out      func(Event)
	buf      reorderBuffer
	maxSeen  int64 // highest timestamp seen; valid once started
	started  bool
	released int64 // highest released timestamp: the drop threshold
	dropped  uint64
	maxLate  int64 // largest (maxSeen - ev.Time) observed on arrival

	// telDropped/telPending mirror the drop count and buffer occupancy
	// into a telemetry registry when attached; nil-safe no-ops otherwise.
	telDropped *telemetry.Counter
	telPending *telemetry.Gauge
	telMaxLate *telemetry.Gauge
}

// AttachTelemetry mirrors the reorderer's drop count (reorder.dropped)
// and buffer occupancy (reorder.pending) into tel's registry, so a
// silently-dropping disorder bound is visible in -debug-addr and
// desis-ctl -stats instead of only through Dropped().
func (r *Reorderer) AttachTelemetry(tel *Telemetry) {
	reg := tel.registry()
	if reg == nil {
		return
	}
	r.telDropped = reg.Counter("reorder.dropped")
	r.telPending = reg.Gauge("reorder.pending")
	r.telMaxLate = reg.Gauge("reorder.max_lateness_seen")
}

// NewReorderer buffers up to maxLateness milliseconds of disorder and
// forwards in-order events to out (e.g. Engine.Process).
func NewReorderer(maxLateness int64, out func(Event)) *Reorderer {
	return NewReordererWithHorizon(maxLateness, 0, out)
}

// NewReordererWithHorizon splits the allowed lateness between buffering and
// the engine's out-of-order commit path (Options.ReorderHorizon). The
// reorderer buffers only maxLateness-horizon milliseconds of disorder —
// shrinking the buffer and the release delay by the horizon — and forwards the
// residue immediately, out of order: an event behind the released frontier
// but within horizon of it skips the buffer entirely and reaches out as-is.
// Feed such a hybrid reorderer only into an engine configured with
// ReorderHorizon >= horizon, which commits those events into its closed
// slices and repairs the affected windows before they emit. horizon is
// clamped to [0, maxLateness]; 0 is exactly NewReorderer.
func NewReordererWithHorizon(maxLateness, horizon int64, out func(Event)) *Reorderer {
	if maxLateness < 0 {
		maxLateness = 0
	}
	if horizon < 0 {
		horizon = 0
	}
	if horizon > maxLateness {
		horizon = maxLateness
	}
	// Until something is released no timestamp is behind the frontier, the
	// epoch included: released starts at the bottom of the range, offset so
	// that released-horizon does not wrap.
	return &Reorderer{lateness: maxLateness, horizon: horizon, out: out, released: math.MinInt64 + horizon}
}

// Process accepts one event in arrival order.
//
//desis:hotpath
func (r *Reorderer) Process(ev Event) {
	if !r.started {
		r.started = true
		r.maxSeen = ev.Time
	} else if late := r.maxSeen - ev.Time; late > r.maxLate {
		r.maxLate = late
		r.telMaxLate.Set(late)
	}
	if ev.Time < r.released-r.horizon {
		r.dropped++
		r.telDropped.Inc()
		return
	}
	if ev.Time < r.released {
		// Behind the in-order frontier but inside the horizon (with horizon 0
		// the drop rule above has taken it): hand it to the engine's
		// out-of-order commit path instead of buffering. Its timestamp is >=
		// released-horizon, so an engine deferring emission by the same
		// horizon has not emitted any window it belongs to.
		r.out(ev)
		return
	}
	r.buf.push(ev)
	if ev.Time > r.maxSeen {
		r.maxSeen = ev.Time
	}
	r.releaseUpTo(r.maxSeen - (r.lateness - r.horizon))
	r.telPending.Set(int64(r.buf.len()))
}

// Flush releases everything still buffered, in order. Call at end of stream
// before Engine.AdvanceTo.
func (r *Reorderer) Flush() {
	r.releaseUpTo(math.MaxInt64)
	r.telPending.Set(int64(r.buf.len()))
}

// releaseUpTo emits every buffered event with a timestamp <= t in (time,
// arrival) order. Whatever stays buffered is no older than what was emitted,
// so released only moves forward.
//
//desis:hotpath
func (r *Reorderer) releaseUpTo(t int64) {
	for {
		ev, ok := r.buf.pop(t)
		if !ok {
			return
		}
		r.released = ev.Time
		r.out(ev)
	}
}

// Dropped reports how many events arrived beyond the allowed lateness and
// were discarded.
func (r *Reorderer) Dropped() uint64 { return r.dropped }

// Pending reports how many events are currently buffered.
func (r *Reorderer) Pending() int { return r.buf.len() }

// LatenessSeen reports the largest disorder observed so far: the maximum of
// maxSeen-eventTime over all arrivals (0 for an in-order stream). Use it to
// size maxLateness, and to check how much of the budget a hybrid horizon
// actually absorbed. Also exported as the reorder.max_lateness_seen gauge.
func (r *Reorderer) LatenessSeen() int64 { return r.maxLate }

type orderedEvent struct {
	ev  Event
	seq uint64
}

// before orders by (time, arrival sequence).
func (a *orderedEvent) before(b *orderedEvent) bool {
	if a.ev.Time != b.ev.Time {
		return a.ev.Time < b.ev.Time
	}
	return a.seq < b.seq
}

// reorderBuffer holds the events a Reorderer has admitted and not released,
// in two parts, so that an arrival pays for a search structure only when it
// is out of order:
//
//   - run[head:] is a FIFO. An event is appended to it when its timestamp is
//     >= the tail's (or the run is empty), so it is sorted by (time, seq) by
//     construction; the front is popped in O(1).
//   - heap is a binary min-heap on (time, seq) that takes the stragglers:
//     events that arrived behind the run's tail.
//
// The next event to release is the smaller of the two heads. An in-order
// stream never touches the heap; a stream that never extends the run
// (descending timestamps) puts everything but the run's one event into the
// heap and costs O(log n) per event, the worst case.
type reorderBuffer struct {
	run  []orderedEvent
	head int
	heap []orderedEvent
	seq  uint64
}

// minRunCap is the smallest backing array the run keeps.
const minRunCap = 64

func (b *reorderBuffer) len() int { return len(b.run) - b.head + len(b.heap) }

func (b *reorderBuffer) push(ev Event) {
	x := orderedEvent{ev: ev, seq: b.seq}
	b.seq++
	if n := len(b.run); n > b.head && ev.Time < b.run[n-1].ev.Time {
		b.pushHeap(x)
		return
	}
	if len(b.run) == cap(b.run) {
		b.makeRoom()
	}
	b.run = append(b.run, x)
}

// pop removes and returns the first buffered event in (time, seq) order if
// its timestamp is <= t.
func (b *reorderBuffer) pop(t int64) (Event, bool) {
	inRun := b.head < len(b.run)
	if len(b.heap) > 0 && !(inRun && b.run[b.head].before(&b.heap[0])) {
		if b.heap[0].ev.Time > t {
			return Event{}, false
		}
		return b.popHeap(), true
	}
	if !inRun || b.run[b.head].ev.Time > t {
		return Event{}, false
	}
	b.head++
	return b.run[b.head-1].ev, true
}

// makeRoom is called with the run's backing array full. It moves the live
// part to the front: in place when that frees more than half of the array
// (the cap/2 appends that follow pay for the copy), into an array of twice
// the size when at least half is live, and into a smaller one when less than
// an eighth is, so that a burst's array is given back. The capacity thus
// stays within four times the peak number of events in the run (or
// minRunCap), and a steady stream settles on one array and allocates nothing.
func (b *reorderBuffer) makeRoom() {
	live := b.run[b.head:]
	into := b.run[:0]
	switch c := cap(b.run); {
	case len(live) >= c/2:
		//lint:ignore hotalloc growth path: the array doubles, so a stream allocates O(log peak) times
		into = make([]orderedEvent, 0, max(2*c, minRunCap))
	case len(live) < c/8 && c > minRunCap:
		//lint:ignore hotalloc shrink path: once per burst, after the burst's array has filled up again
		into = make([]orderedEvent, 0, max(4*len(live), minRunCap))
	}
	b.run = append(into, live...)
	b.head = 0
}

func (b *reorderBuffer) pushHeap(x orderedEvent) {
	b.heap = append(b.heap, x)
	h, i := b.heap, len(b.heap)-1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (b *reorderBuffer) popHeap() Event {
	top, n := b.heap[0].ev, len(b.heap)-1
	x, h := b.heap[n], b.heap[:n]
	b.heap = h
	if n == 0 {
		return top
	}
	// Sift the last element down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
	return top
}
