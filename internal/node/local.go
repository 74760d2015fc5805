// Package node implements Desis' decentralized aggregation (§5): local
// nodes slice raw streams and ship per-slice partial results, intermediate
// nodes merge partials from their children, and the root node assembles
// window results. Count-based (RootOnly) query-groups are forwarded as raw
// events and evaluated by an engine on the root, which is the only node that
// observes the global event order (§5.2).
package node

import (
	"errors"
	"fmt"
	"sync/atomic"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// Local is a local node: it ingests a data stream, runs the aggregation
// engine in slice-emitting mode for distributed groups, forwards raw events
// for RootOnly groups, and emits watermarks so parents can close windows
// timely.
//
// The local holds a full copy of the execution plan (inside its engine) but
// materialises only the distributed groups; runtime catalog changes arrive
// as plan deltas (Apply) or, after a too-stale reconnect, as a full plan
// (ResyncPlan), and both funnel through the engine's one reconciliation
// path.
type Local struct {
	id   uint32
	conn message.Conn
	// up is conn's sending side: everything one Process or AdvanceTo call
	// produces is queued on it and flushed once at the end of the call, so
	// over TCP a burst of closed slices leaves in one write.
	up message.BufferedSender
	// out is the one Message every send fills: the Conn contract forbids
	// retaining it, so a send allocates none.
	out     message.Message
	engine  *core.Engine
	forward map[uint32]bool // keys needed by RootOnly groups
	buf     []event.Event
	batchSz int
	// wm is atomic so Digest (called from the uplink's heartbeat
	// goroutine) can read the watermark while the feed goroutine advances
	// it; everything else about Local stays single-threaded.
	wm  atomic.Int64
	err error
}

// NewLocalFromPlan builds a local node from an execution plan (e.g. one
// received in a handshake), taking ownership of it. Its engine keeps every
// group instance resident; a TCP local takes DialOptions.InstanceTTL.
func NewLocalFromPlan(id uint32, p *plan.Plan, parent message.Conn, batchSize int) *Local {
	return newLocal(id, p, parent, batchSize, 0)
}

func newLocal(id uint32, p *plan.Plan, parent message.Conn, batchSize int, instanceTTL int64) *Local {
	if batchSize <= 0 {
		batchSize = 256
	}
	l := &Local{id: id, conn: parent, up: message.Buffered(parent), forward: make(map[uint32]bool), batchSz: batchSize}
	l.engine = core.NewFromPlan(p, core.Config{
		Placement:   core.DistributedOnly,
		OnSlice:     l.sendPartial,
		InstanceTTL: instanceTTL,
		TraceName:   fmt.Sprintf("local.%d", id),
	})
	l.rebuildForward()
	return l
}

// rebuildForward derives the RootOnly forwarding set from the plan. It is
// conservative across removals: a group whose members were all tombstoned
// still forwards (the root simply ignores the events).
func (l *Local) rebuildForward() {
	for _, g := range l.engine.Plan().Groups {
		if g.Placement == query.RootOnly {
			l.forward[g.Key] = true
		}
	}
}

// Epoch returns the local's plan epoch, reported in its hello so the parent
// can resync it by epoch diff.
func (l *Local) Epoch() uint64 { return l.engine.PlanEpoch() }

// Apply applies one plan delta (arriving from the parent, or minted by the
// in-process Cluster) to the local's engine and forwarding set.
func (l *Local) Apply(d plan.Delta) error {
	if err := l.engine.Apply(d); err != nil {
		return err
	}
	l.rebuildForward()
	return nil
}

// ResyncPlan replaces the local's plan with a newer full copy of the same
// lineage (the handshake reply when the node is too stale for an epoch
// diff).
func (l *Local) ResyncPlan(p *plan.Plan) error {
	if err := l.engine.ResyncPlan(p); err != nil {
		return err
	}
	l.rebuildForward()
	return nil
}

func (l *Local) sendPartial(p *core.SlicePartial) {
	if l.err != nil {
		return
	}
	if p.Ingested == 0 && len(p.EPs) == 0 {
		l.engine.RecyclePartial(p)
		return // nothing to contribute; watermarks carry progress
	}
	l.out = message.Message{Kind: message.KindPartial, From: l.id, Partial: p}
	l.err = l.up.SendBuffered(&l.out)
	l.out.Partial = nil
	// SendBuffered encoded synchronously (the Conn contract forbids retaining
	// the message), so the partial's buffers can feed the next slice.
	l.engine.RecyclePartial(p)
}

// Process ingests a batch of in-order events from this node's data stream:
// one pass collects the events RootOnly groups need and the batch's newest
// time, then the engine takes the batch whole.
func (l *Local) Process(evs []event.Event) error {
	wm := l.wm.Load()
	for _, ev := range evs {
		if l.forward[ev.Key] {
			l.buf = append(l.buf, ev)
			if len(l.buf) >= l.batchSz {
				l.flushForward()
			}
		}
		if ev.Time > wm {
			wm = ev.Time
		}
	}
	l.engine.ProcessBatch(evs)
	l.wm.Store(wm)
	l.flush()
	return l.err
}

// flush ends a unit of work: what it queued goes on the wire.
func (l *Local) flush() {
	if l.err == nil {
		l.err = l.up.Flush()
	}
}

// flushForward ships the collected RootOnly events. The buffer is reused:
// every Conn encodes before a send returns (the Conn contract, which the
// noretain analyzer holds the implementations to), and event batches are not
// batchable, so the batcher sends them synchronously too.
func (l *Local) flushForward() {
	if len(l.buf) == 0 || l.err != nil {
		return
	}
	l.out = message.Message{Kind: message.KindEventBatch, From: l.id, Events: l.buf}
	l.err = l.up.SendBuffered(&l.out)
	l.out.Events = nil
	l.buf = l.buf[:0]
}

// AdvanceTo moves this node's event time to t: pending punctuations fire,
// forwarded events flush, and a watermark is emitted. Call it at least once
// per ingestion quantum; the stream's own timestamps advance it implicitly.
func (l *Local) AdvanceTo(t int64) error {
	if t > l.wm.Load() {
		l.wm.Store(t)
	}
	wm := l.wm.Load()
	l.engine.AdvanceTo(wm)
	l.flushForward()
	if l.err != nil {
		return l.err
	}
	l.out = message.Message{Kind: message.KindWatermark, From: l.id, Watermark: wm}
	l.err = l.up.SendBuffered(&l.out)
	l.flush()
	return l.err
}

// Stats exposes the underlying engine's counters.
func (l *Local) Stats() core.Stats { return l.engine.Stats() }

// AttachTelemetry instruments the local's engine with reg. Call before
// serving traffic.
func (l *Local) AttachTelemetry(reg *telemetry.Registry) { l.engine.AttachTelemetry(reg) }

// Digest summarises this node's progress for the heartbeat piggyback. Safe
// to call from a goroutine other than the feeder: the engine counters and
// the watermark are atomic (the plan epoch is filled in by the caller from
// its own lock-free mirror).
func (l *Local) Digest() *telemetry.LoadDigest {
	s := l.engine.Stats()
	return &telemetry.LoadDigest{
		Watermark: l.wm.Load(),
		Events:    s.Events,
		Slices:    s.Slices,
		Windows:   s.Windows,
	}
}

// Close flushes and closes the parent connection.
func (l *Local) Close() error {
	l.flushForward()
	// Announce a deliberate departure so the parent finishes immediately
	// instead of holding a reconnect grace period. The goodbye's Send is also
	// the final flush, so its failure is lost data and is reported.
	err := errors.Join(l.conn.Send(&message.Message{Kind: message.KindGoodbye, From: l.id}), l.conn.Close())
	if l.err != nil {
		return fmt.Errorf("node: local %d: %w", l.id, l.err)
	}
	return err
}
