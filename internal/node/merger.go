package node

import (
	"cmp"
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
// per slice. Fixed slices align across children (their boundaries are
// global), so most slices merge k-to-1; dynamic punctuations (session
// starts/ends, markers) produce child-specific extents, which are flushed
// unmerged once the watermark passes them. Raw event batches (RootOnly
// groups) pass through. The merger is single-threaded: the owner pumps
// messages into Handle.
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
	joining   map[uint32]bool
	hold      int
	pending   map[mergeKey]*mergeEntry
	watermark int64
	maxEnd    int64 // newest slice end seen, for final flushes
	sent      int64
	// emitted remembers extents forwarded before the watermark passed them
	// (all children contributed early), so replayed duplicates of a
	// completed slice are dropped instead of re-merged. Entries are
	// garbage-collected as the watermark advances.
	emitted map[mergeKey]bool
	// free holds emitted entries for reuse, their contributor lists keeping
	// capacity; flush is flushUpTo's scratch, empty between calls.
	free, flush []*mergeEntry

	// Telemetry (nil-safe no-ops when unattached): merge latency is the
	// time from a slice extent's first contribution to its emission, and
	// the dup counter makes replayed-frame drops visible — a reconnect
	// storm shows up here, not as silently diverging counts.
	telMergeLat *telemetry.Histogram
	telDups     *telemetry.Counter
	traceName   string
}

type childState struct {
	watermark int64
}

type mergeKey struct {
	group      uint32
	start, end int64
}

type mergeEntry struct {
	p *core.SlicePartial
	// from lists the children that contributed, so a duplicate delivery (a
	// reconnecting child replaying recent frames, §3.2) merges exactly once.
	// Fan-in is small: a scan of a reused slice beats a set.
	from []uint32
	// t0 is when the first contribution arrived; zero when latency
	// telemetry is unattached (no time.Now on the unobserved path).
	t0 time.Time
}

// NewMerger builds a merger expecting the given child node ids.
func NewMerger(children []uint32) *Merger {
	m := &Merger{
		children: make(map[uint32]*childState),
		pending:  make(map[mergeKey]*mergeEntry),
		emitted:  make(map[mergeKey]bool),
	}
	for _, id := range children {
		m.children[id] = &childState{watermark: -1}
	}
	return m
}

// AttachTelemetry registers the merger's instruments (merge.latency,
// merge.dup_dropped) in reg and labels trace events with traceName.
func (m *Merger) AttachTelemetry(reg *telemetry.Registry, traceName string) {
	if reg != nil {
		m.telMergeLat = reg.Histogram("merge.latency")
		m.telDups = reg.Counter("merge.dup_dropped")
	}
	m.traceName = traceName
}

// Hold keeps the merger from forwarding anything until n distinct children
// have joined. A server that is told how many children to expect must not
// take the first one's slices for complete: forwarded with one contributor,
// they would make the merger drop the sibling's as duplicates, and the first
// child's watermark alone would close their windows. What arrives during the
// hold merges as usual and stays pending, also when the child that sent it
// has already left again.
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
		m.gcEmitted()
		m.flushUpTo(m.watermark)
		if m.OutWatermark != nil {
			m.OutWatermark(m.watermark)
		}
		return
	}
	m.advance()
}

// NumChildren reports the current child count — the "length" of an
// intermediate slice in the paper's terms.
func (m *Merger) NumChildren() int { return len(m.children) }

// HandlePartial merges one child partial, taking ownership of p.
func (m *Merger) HandlePartial(from uint32, p *core.SlicePartial) {
	// The merger retains p (as a pending merge base); receiving a partial
	// its producer already recycled is an ownership bug (debug builds panic
	// here with the slice id).
	invariant.AssertPartialLive(p)
	k := mergeKey{p.Group, p.Start, p.End}
	// A reconnecting child replays its recent frames (at-least-once
	// delivery); anything the watermark already passed was flushed, and
	// anything in emitted was forwarded early — drop both instead of
	// double-merging. On an ordered, fault-free link neither case occurs: a
	// child's partial always precedes the child watermark that covers it.
	if p.End <= m.watermark || m.emitted[k] {
		m.telDups.Inc()
		message.ReleasePartial(p)
		return
	}
	if p.End > m.maxEnd {
		m.maxEnd = p.End
	}
	e, ok := m.pending[k]
	if !ok {
		e = m.newEntry(p)
		m.pending[k] = e
	} else {
		if slices.Contains(e.from, from) {
			m.telDups.Inc()
			message.ReleasePartial(p)
			return // duplicate contribution from a replayed frame
		}
		mergePartial(e.p, p)
		message.ReleasePartial(p)
	}
	e.from = append(e.from, from)
	if len(e.from) >= len(m.children) && m.joining == nil {
		delete(m.pending, k)
		m.emitted[k] = true
		m.emitEntry(e)
	}
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
	if m.telMergeLat != nil {
		e.t0 = time.Now()
	}
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

// HandleEvents forwards a raw batch (RootOnly groups).
func (m *Merger) HandleEvents(from uint32, evs []event.Event) {
	if m.OutEvents != nil {
		m.OutEvents(from, evs)
	}
}

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
	if first || min <= m.watermark {
		return
	}
	m.watermark = min
	m.gcEmitted()
	m.flushUpTo(min)
	if m.OutWatermark != nil {
		m.OutWatermark(min)
	}
}

// gcEmitted drops early-emit records the watermark has passed; duplicates of
// those extents are rejected by the watermark check alone.
func (m *Merger) gcEmitted() {
	for k := range m.emitted {
		if k.end <= m.watermark {
			delete(m.emitted, k)
		}
	}
}

// flushUpTo emits pending slices the watermark has passed: children without
// a matching extent simply had no such slice (dynamic punctuation
// misalignment, or a removed node).
func (m *Merger) flushUpTo(w int64) {
	flush := m.flush[:0]
	for k, e := range m.pending {
		if k.end <= w {
			flush = append(flush, e)
			delete(m.pending, k)
		}
	}
	slices.SortFunc(flush, func(a, b *mergeEntry) int {
		if c := cmp.Compare(a.p.End, b.p.End); c != 0 {
			return c
		}
		return cmp.Compare(a.p.Start, b.p.Start)
	})
	for _, e := range flush {
		m.emitEntry(e)
	}
	clear(flush)
	m.flush = flush[:0]
}

// emitEntry forwards e's merged partial and recycles e.
func (m *Merger) emitEntry(e *mergeEntry) {
	if !e.t0.IsZero() {
		m.telMergeLat.Record(time.Since(e.t0))
	}
	if telemetry.TraceEnabled {
		telemetry.TraceSlice(telemetry.TraceMerge, m.traceName, uint64(e.p.Group), e.p.ID, e.p.Start, e.p.End)
	}
	p := e.p
	*e = mergeEntry{from: e.from[:0]}
	m.free = append(m.free, e)
	m.emit(p)
}

func (m *Merger) emit(p *core.SlicePartial) {
	m.sent++
	if m.Out != nil {
		m.Out(p)
	}
}

// PartialsSent reports how many merged partials were forwarded.
func (m *Merger) PartialsSent() int64 { return m.sent }

// Watermark reports the merged (minimum-child) watermark.
func (m *Merger) Watermark() int64 { return m.watermark }

// mergePartial folds src into dst: aggregates merge pairwise per selection
// context, EPs concatenate, and LastEvent takes the maximum.
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
	if src.LastEvent > dst.LastEvent {
		dst.LastEvent = src.LastEvent
	}
}
