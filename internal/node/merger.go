package node

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/message"
	"desis/internal/operator"
	"desis/internal/telemetry"
)

// Merger is the protocol logic of an intermediate node (§5.1.1): it merges
// the per-slice partial results of its children by slice extent, performing
// the intermediate incremental aggregation, and forwards one merged partial
// per slice once the merged watermark passes it, right before that
// watermark. Fixed slices align across children (their boundaries are
// global), so most slices merge k-to-1; dynamic punctuations (session
// starts/ends, markers) produce child-specific extents, which leave unmerged.
// Raw event batches (RootOnly groups) pass through. The merger is
// single-threaded: the owner pumps every child frame into Handle.
//
// The merger owns every partial handed to HandlePartial: a duplicate or
// stale one is released to the decode pool at once (message.ReleasePartial),
// a contributor right after it merged into its slice's first partial, and
// that first partial — the merged result — passes to Out, which owns it
// from then on.
type Merger struct {
	// Out receives merged partials, and with each the duty to release it.
	Out func(*core.SlicePartial)
	// OutEvents receives forwarded raw-event batches.
	OutEvents func(from uint32, evs []event.Event)
	// OutWatermark receives the merged (minimum) watermark, monotone.
	OutWatermark func(int64)

	children map[uint32]*childState
	// joining, while non-nil, collects the distinct children seen so far and
	// hold is how many of them end the start-up hold (Hold).
	joining map[uint32]bool
	hold    int
	// runs holds, per group, the extents the watermark has not passed yet
	// (extentRun); pending counts their slots.
	// Group ids come off the wire, so they key a map rather than index a
	// slice that would need a bound.
	runs      map[uint32]*extentRun
	pending   int
	watermark int64
	maxEnd    int64 // newest slice end seen, for final flushes
	sent      int64
	// free holds flushed entries for reuse, their contributor lists keeping
	// capacity; flush is flushUpTo's scratch, empty between calls.
	free, flush []*mergeEntry
	// started counts entries begun, so merge.latency times one in
	// mergeLatencySample of them.
	started uint64

	// Telemetry (nil-safe no-ops when unattached): merge latency is the
	// time from a slice extent's first contribution to its emission, the
	// wait for the watermark that releases it included, and the dup counter
	// makes replayed-frame drops visible — a reconnect storm shows up here,
	// not as silently diverging counts. The pending gauge counts the
	// extents the watermark has not passed, set at every watermark step.
	telMergeLat *telemetry.Histogram
	telDups     *telemetry.Counter
	telPending  *telemetry.Gauge
	traceName   string
}

// mergeLatencySample is the share of merged slices merge.latency times: one
// in this many, the first always included. Two clock reads and a histogram
// record per slice cost 4.4 % of the TCP tree's CPU (DESIGN.md §7).
const mergeLatencySample = 64

type childState struct {
	watermark int64
}

// extentRun is one group's live slice extents, ordered by (End, Start):
// slots[head:] are live, slots[:head] were popped by the watermark. Children
// mostly send extents in that order, so a new one usually appends.
//
// The merge identity is the extent, not the slice id: ids count per (node,
// group), so two children's ids for one aligned slice differ, and misaligned
// dynamic slices share none.
type extentRun struct {
	slots []extentSlot
	head  int
	// idle counts the watermark steps that left the run empty since it last
	// gained an extent; past maxIdleSteps the run is dropped.
	idle int
}

// maxIdleSteps is how many watermark steps an empty run is kept: long enough
// that a live group's run keeps its capacity between slices, short enough
// that group ids no child sends again (a removed query's, or a hostile
// child's) do not pile up.
const maxIdleSteps = 64

// extentSlot is one live extent and its pending merge.
type extentSlot struct {
	start, end int64
	e          *mergeEntry
}

func cmpSlot(s, t extentSlot) int {
	if c := cmp.Compare(s.end, t.end); c != 0 {
		return c
	}
	return cmp.Compare(s.start, t.start)
}

// find returns where [start,end) sits in the run and whether it is there;
// when it is not, the index is where it belongs. The tail is checked first:
// an in-order extent costs no search.
func (r *extentRun) find(start, end int64) (int, bool) {
	k := extentSlot{start: start, end: end}
	n := len(r.slots)
	if n == r.head {
		return n, false
	}
	if c := cmpSlot(r.slots[n-1], k); c <= 0 {
		if c == 0 {
			return n - 1, true
		}
		return n, false
	}
	i, ok := slices.BinarySearchFunc(r.slots[r.head:n-1], k, cmpSlot)
	return r.head + i, ok
}

// popUpTo appends the entries of every slot with End <= w to flush and
// returns the grown flush.
func (r *extentRun) popUpTo(w int64, flush []*mergeEntry) []*mergeEntry {
	i := r.head
	for ; i < len(r.slots) && r.slots[i].end <= w; i++ {
		flush = append(flush, r.slots[i].e)
	}
	switch n := len(r.slots); {
	case i == n:
		r.slots, i = r.slots[:0], 0
	case 2*i >= n:
		r.slots, i = r.slots[:copy(r.slots, r.slots[i:])], 0
	}
	r.head = i
	return flush
}

type mergeEntry struct {
	p *core.SlicePartial
	// from lists the children that contributed, so a duplicate delivery (a
	// reconnecting child replaying recent frames, §3.2) merges exactly once.
	// Fan-in is small: a scan of a reused slice beats a set.
	from []uint32
	// t0 is when the first contribution arrived; zero when the entry is not
	// sampled or latency telemetry is unattached.
	t0 time.Time
}

// NewMerger builds a merger expecting the given child node ids.
func NewMerger(children []uint32) *Merger {
	m := &Merger{
		children: make(map[uint32]*childState),
		runs:     make(map[uint32]*extentRun),
	}
	for _, id := range children {
		m.children[id] = &childState{watermark: -1}
	}
	return m
}

// AttachTelemetry registers the merger's instruments (merge.latency,
// merge.dup_dropped, merge.pending) in reg and labels trace events with
// traceName.
func (m *Merger) AttachTelemetry(reg *telemetry.Registry, traceName string) {
	if reg != nil {
		m.telMergeLat = reg.Histogram("merge.latency")
		m.telDups = reg.Counter("merge.dup_dropped")
		m.telPending = reg.Gauge("merge.pending")
	}
	m.traceName = traceName
}

// Hold keeps the merged watermark, and with it everything pending, where it
// is until n distinct children have joined. A server that is told how many
// children to expect must not let the first one's watermark alone close the
// slices its siblings have yet to send. What arrives during the hold merges
// as usual and stays pending, also when the child that sent it has already
// left again.
func (m *Merger) Hold(n int) {
	if n > len(m.children) {
		m.hold, m.joining = n, make(map[uint32]bool)
	}
}

// AddChild registers a child joining at runtime (§3.2).
func (m *Merger) AddChild(id uint32) {
	m.children[id] = &childState{watermark: m.watermark}
	if m.joining != nil {
		if m.joining[id] = true; len(m.joining) >= m.hold {
			m.joining = nil
			m.advance() // slices complete by now leave with the watermark
		}
	}
}

// RemoveChild drops a child (node loss / removal): slices waiting for it can
// complete with the remaining children at the next watermark. When the last
// child leaves, everything pending flushes and the watermark advances to the
// newest slice end, so downstream windows close.
func (m *Merger) RemoveChild(id uint32) {
	delete(m.children, id)
	if m.joining != nil {
		return // its siblings are still to come; what it sent waits for them
	}
	if len(m.children) == 0 {
		if m.maxEnd > m.watermark {
			m.watermark = m.maxEnd
		}
		m.flushUpTo(m.watermark)
		m.telPending.Set(int64(m.pending))
		if m.OutWatermark != nil {
			m.OutWatermark(m.watermark)
		}
		return
	}
	m.advance()
}

// Handle interprets one frame of child msg.From's stream, taking ownership
// of the partials it carries: partials merge, watermarks advance, raw event
// batches pass to OutEvents, and a batch unbatches in order — the producer
// emits a partial strictly before any watermark covering it, so in-order
// delivery of the frames is indistinguishable from the unbatched wire.
// Handshake and liveness frames carry nothing for the merge. Plan changes
// reach a tree from the root's control clients, downward, and stats replies
// are the parent's to route: on a child's data stream they are refused.
//
//desis:wirekind
func (m *Merger) Handle(msg *message.Message) error {
	switch msg.Kind {
	case message.KindPartial:
		m.HandlePartial(msg.From, msg.Partial)
	case message.KindWatermark:
		m.HandleWatermark(msg.From, msg.Watermark)
	case message.KindEventBatch:
		if m.OutEvents != nil {
			m.OutEvents(msg.From, msg.Events)
		}
	case message.KindBatch:
		for _, f := range msg.Batch.Frames {
			if err := m.Handle(f); err != nil {
				return err
			}
		}
	case message.KindHello, message.KindHeartbeat, message.KindGoodbye:
	case message.KindPlanState, message.KindPlanDelta, message.KindAddQuery,
		message.KindRemoveQuery, message.KindPlanDump, message.KindStatsDump:
		fallthrough
	default:
		return fmt.Errorf("node: cannot handle message kind %d on a child stream", msg.Kind)
	}
	return nil
}

// HandlePartial merges one child partial, taking ownership of p.
func (m *Merger) HandlePartial(from uint32, p *core.SlicePartial) {
	// The merger retains p (as a pending merge base); receiving a partial
	// its producer already recycled is an ownership bug (debug builds panic
	// here with the slice id).
	invariant.AssertPartialLive(p)
	// A reconnecting child replays its recent frames (at-least-once
	// delivery); anything the watermark already passed was flushed, and a
	// pending extent the child already contributed to holds its first
	// copy — drop both instead of double-merging. On an ordered, fault-free
	// link neither case occurs: a child's partial always precedes the child
	// watermark that covers it.
	if p.End <= m.watermark {
		m.dropDup(p)
		return
	}
	r := m.runs[p.Group]
	if r == nil {
		r = &extentRun{}
		m.runs[p.Group] = r
	}
	i, found := r.find(p.Start, p.End)
	if !found {
		if p.End > m.maxEnd {
			m.maxEnd = p.End
		}
		e := m.newEntry(p)
		e.from = append(e.from, from)
		r.slots = slices.Insert(r.slots, i, extentSlot{start: p.Start, end: p.End, e: e})
		r.idle = 0
		m.pending++
		return
	}
	e := r.slots[i].e
	if slices.Contains(e.from, from) {
		m.dropDup(p) // duplicate contribution from a replayed frame
		return
	}
	mergePartial(e.p, p)
	message.ReleasePartial(p)
	e.from = append(e.from, from)
}

// dropDup counts and releases a replayed partial.
func (m *Merger) dropDup(p *core.SlicePartial) {
	m.telDups.Inc()
	message.ReleasePartial(p)
}

// newEntry starts the merge of p's slice with a recycled entry when there is
// one.
func (m *Merger) newEntry(p *core.SlicePartial) *mergeEntry {
	var e *mergeEntry
	if n := len(m.free); n > 0 {
		e = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
	} else {
		e = &mergeEntry{}
	}
	e.p = p
	if m.telMergeLat != nil && m.started%mergeLatencySample == 0 {
		e.t0 = time.Now()
	}
	m.started++
	return e
}

// HandleWatermark advances a child's watermark; when the minimum over all
// children advances, incomplete slices older than it are flushed and the new
// watermark is forwarded.
func (m *Merger) HandleWatermark(from uint32, w int64) {
	c, ok := m.children[from]
	if !ok {
		return
	}
	if w > c.watermark {
		c.watermark = w
	}
	m.advance()
}

// advance moves the merged watermark to the minimum over the children when
// that has grown, flushing what it passed, and sets the pending gauge.
func (m *Merger) advance() {
	if m.joining != nil {
		return
	}
	min := int64(-1)
	first := true
	for _, c := range m.children {
		if first || c.watermark < min {
			min = c.watermark
			first = false
		}
	}
	if !first && min > m.watermark {
		m.watermark = min
		m.flushUpTo(min)
		if m.OutWatermark != nil {
			m.OutWatermark(min)
		}
	}
	m.telPending.Set(int64(m.pending))
}

// flushUpTo emits pending slices the watermark has passed, in (End, Start,
// group) order: children without a matching extent simply had no such slice
// (dynamic punctuation misalignment, or a removed node).
func (m *Merger) flushUpTo(w int64) {
	flush := m.flush[:0]
	for g, r := range m.runs {
		if flush = r.popUpTo(w, flush); len(r.slots) == 0 {
			if r.idle++; r.idle > maxIdleSteps {
				delete(m.runs, g)
			}
		}
	}
	m.pending -= len(flush)
	slices.SortFunc(flush, func(a, b *mergeEntry) int {
		if c := cmp.Compare(a.p.End, b.p.End); c != 0 {
			return c
		}
		if c := cmp.Compare(a.p.Start, b.p.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.p.Group, b.p.Group)
	})
	for _, e := range flush {
		if !e.t0.IsZero() {
			m.telMergeLat.Record(time.Since(e.t0))
		}
		if telemetry.TraceEnabled {
			telemetry.TraceSlice(telemetry.TraceMerge, m.traceName, uint64(e.p.Group), e.p.ID, e.p.Start, e.p.End)
		}
		p := e.p
		*e = mergeEntry{from: e.from[:0]}
		m.free = append(m.free, e)
		m.sent++
		if m.Out != nil {
			m.Out(p)
		}
	}
	clear(flush)
	m.flush = flush[:0]
}

// PartialsSent reports how many merged partials were forwarded.
func (m *Merger) PartialsSent() int64 { return m.sent }

// Watermark reports the merged (minimum-child) watermark.
func (m *Merger) Watermark() int64 { return m.watermark }

// mergePartial folds src into dst: aggregates merge pairwise per selection
// context and EPs concatenate.
func mergePartial(dst, src *core.SlicePartial) {
	if invariant.Enabled {
		invariant.AssertPartialLive(dst)
		invariant.AssertPartialLive(src)
	}
	for len(dst.Aggs) < len(src.Aggs) {
		a := operator.NewAgg(src.Aggs[len(dst.Aggs)].Ops)
		a.Finish()
		dst.Aggs = append(dst.Aggs, a)
	}
	for i := range src.Aggs {
		dst.Aggs[i].Merge(&src.Aggs[i])
	}
	dst.EPs = append(dst.EPs, src.EPs...)
	dst.Ingested += src.Ingested
}
