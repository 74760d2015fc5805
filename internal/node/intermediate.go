package node

import (
	"errors"
	"fmt"
	"sync"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/telemetry"
)

// Intermediate is an intermediate node: a Merger between its children and
// its parent. It merges aligned slice partials (the intermediate incremental
// aggregation of §5.1), relays raw event batches of RootOnly groups
// preserving their origin, and forwards the merged watermark.
//
// What the merger emits is queued on the parent link and flushed before the
// call that caused it returns, so a caller that pumps messages into Handle
// sees every output on the wire when Handle returns. IntermediateServer
// defers that flush across a child's burst (handleQueued, flushParent).
type Intermediate struct {
	id     uint32
	merger *Merger
	parent message.Conn
	up     message.BufferedSender // parent's sending side
	mu     sync.Mutex
	err    error
}

// NewIntermediate builds an intermediate node expecting the given children,
// sending to parent.
func NewIntermediate(id uint32, children []uint32, parent message.Conn) *Intermediate {
	n := &Intermediate{id: id, parent: parent, up: message.Buffered(parent)}
	n.merger = NewMerger(children)
	n.merger.Out = func(p *core.SlicePartial) {
		n.send(&message.Message{Kind: message.KindPartial, From: n.id, Partial: p})
		// The send encoded p (the Conn contract): the merged partial goes back
		// to the decode pool.
		message.ReleasePartial(p)
	}
	n.merger.OutEvents = func(from uint32, evs []event.Event) {
		// Preserve the origin id: the root orders RootOnly events per
		// originating stream.
		n.send(&message.Message{Kind: message.KindEventBatch, From: from, Events: evs})
	}
	n.merger.OutWatermark = func(w int64) {
		n.send(&message.Message{Kind: message.KindWatermark, From: n.id, Watermark: w})
	}
	return n
}

func (n *Intermediate) send(m *message.Message) {
	if n.err != nil {
		return
	}
	n.err = n.up.SendBuffered(m)
}

// flush puts what the merger queued on the wire.
func (n *Intermediate) flush() {
	if n.err == nil {
		n.err = n.up.Flush()
	}
}

// Handle dispatches one message from a child, taking ownership of the
// partials it carries (see Merger).
func (n *Intermediate) Handle(m *message.Message) error {
	err := n.handle(m)
	n.flush()
	if err == nil {
		err = n.err
	}
	return err
}

// handle is Handle without the flush.
func (n *Intermediate) handle(m *message.Message) error {
	switch m.Kind {
	case message.KindPartial:
		n.merger.HandlePartial(m.From, m.Partial)
	case message.KindWatermark:
		n.merger.HandleWatermark(m.From, m.Watermark)
	case message.KindEventBatch:
		n.merger.HandleEvents(m.From, m.Events)
	case message.KindBatch:
		// Unbatch in order under the same (caller-held) lock; the merged
		// output re-batches on this node's own uplink if it is batching too.
		for _, f := range m.Batch.Frames {
			if err := n.handle(f); err != nil {
				return err
			}
		}
	case message.KindHello, message.KindHeartbeat, message.KindGoodbye:
	default:
		return fmt.Errorf("node: intermediate cannot handle message kind %d", m.Kind)
	}
	return n.err
}

// HandleLocked is Handle behind the node's mutex, for concurrent child
// pumps; the merger itself is single-threaded.
func (n *Intermediate) HandleLocked(m *message.Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.Handle(m)
}

// handleQueued is HandleLocked without the flush, for a pump that calls
// flushParent before it blocks for its child's next message.
func (n *Intermediate) handleQueued(m *message.Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.handle(m)
}

// flushParent flushes the parent link outside the node's mutex, so one
// child's write does not hold up the merging of another's messages.
func (n *Intermediate) flushParent() {
	if err := n.up.Flush(); err != nil {
		n.mu.Lock()
		if n.err == nil {
			n.err = err
		}
		n.mu.Unlock()
	}
}

// AddChild and RemoveChild adjust the expected child set at runtime (§3.2).
// They are unsynchronised; concurrent servers use the Locked variants. A
// departure can complete slices that waited for the child, hence the flush.
func (n *Intermediate) AddChild(id uint32) { n.merger.AddChild(id) }
func (n *Intermediate) RemoveChild(id uint32) {
	n.merger.RemoveChild(id)
	n.flush()
}

// AddChildLocked and RemoveChildLocked take the node's mutex, for use
// alongside HandleLocked from concurrent per-child goroutines.
func (n *Intermediate) AddChildLocked(id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.merger.AddChild(id)
}

func (n *Intermediate) RemoveChildLocked(id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.RemoveChild(id)
}

// AttachTelemetry instruments the merger with reg, labelling trace events
// with traceName. Call before serving traffic.
func (n *Intermediate) AttachTelemetry(reg *telemetry.Registry, traceName string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.merger.AttachTelemetry(reg, traceName)
}

// Digest summarises this node's progress for the heartbeat piggyback: the
// merged watermark and how many merged partials went upward.
func (n *Intermediate) Digest() *telemetry.LoadDigest {
	n.mu.Lock()
	defer n.mu.Unlock()
	return &telemetry.LoadDigest{
		Watermark: n.merger.Watermark(),
		Slices:    uint64(n.merger.PartialsSent()),
	}
}

// Close announces a clean departure and closes the parent connection. The
// goodbye's Send is also the final flush, so its error is reported.
func (n *Intermediate) Close() error {
	err := errors.Join(n.parent.Send(&message.Message{Kind: message.KindGoodbye, From: n.id}), n.parent.Close())
	if n.err != nil {
		return n.err
	}
	return err
}
