package node

import (
	"errors"
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
// sees every output on the wire when Handle returns.
type Intermediate struct {
	id     uint32
	merger *Merger
	parent message.Conn
	up     message.BufferedSender // parent's sending side
	// out is the one Message every merger output fills, as single-threaded
	// as the merger: the Conn contract forbids retaining it, so a send
	// allocates none.
	out message.Message
	mu  sync.Mutex
	err error
}

// NewIntermediate builds an intermediate node expecting the given children,
// sending to parent.
func NewIntermediate(id uint32, children []uint32, parent message.Conn) *Intermediate {
	n := &Intermediate{id: id, parent: parent, up: message.Buffered(parent)}
	n.merger = NewMerger(children)
	n.merger.Out = func(p *core.SlicePartial) {
		n.out = message.Message{Kind: message.KindPartial, From: n.id, Partial: p}
		n.send()
		// The send encoded p (the Conn contract): the merged partial goes back
		// to the decode pool.
		message.ReleasePartial(p)
	}
	n.merger.OutEvents = func(from uint32, evs []event.Event) {
		// Preserve the origin id: the root orders RootOnly events per
		// originating stream.
		n.out = message.Message{Kind: message.KindEventBatch, From: from, Events: evs}
		n.send()
	}
	n.merger.OutWatermark = func(w int64) {
		n.out = message.Message{Kind: message.KindWatermark, From: n.id, Watermark: w}
		n.send()
	}
	return n
}

// send queues n.out on the parent link and drops its payload references.
func (n *Intermediate) send() {
	if n.err == nil {
		n.err = n.up.SendBuffered(&n.out)
	}
	n.out.Partial, n.out.Events = nil, nil
}

// Handle dispatches one message from a child, taking ownership of the
// partials it carries (see Merger), and puts what the merger queued on the
// wire. Concurrent child pumps may call it: the merge runs under the node's
// mutex, the flush outside it.
func (n *Intermediate) Handle(m *message.Message) error {
	err := n.handle(m)
	if ferr := n.flush(); err == nil {
		err = ferr
	}
	return err
}

// handle is Handle without the flush. The merged output re-batches on this
// node's own uplink if it is batching too.
func (n *Intermediate) handle(m *message.Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.merger.Handle(m); err != nil {
		return err
	}
	return n.err
}

// flush puts what the merger queued on the wire outside the node's mutex,
// so one child's write does not hold up the merging of another's messages.
func (n *Intermediate) flush() error {
	err := n.up.Flush()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err == nil {
		n.err = err
	}
	return n.err
}

// AddChild and RemoveChild adjust the expected child set at runtime (§3.2)
// under the node's mutex, so concurrent per-child goroutines may call them
// alongside Handle. A departure can advance the merged watermark past slices
// that waited for the child; RemoveChild only queues them, and the caller
// puts them on the wire with flush once it holds no lock.
func (n *Intermediate) AddChild(id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.merger.AddChild(id)
}

func (n *Intermediate) RemoveChild(id uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.merger.RemoveChild(id)
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
	// An evicted child's pump may still be flushing, so n.err is read under
	// the lock that pump writes it under.
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err != nil {
		return n.err
	}
	return err
}
