package baseline

import (
	"desis/internal/core"
	"desis/internal/event"
)

// Deployment is a running decentralized topology under test; node.Cluster
// (Desis), CentralCluster (Scotty/CeBuffer behind forwarding), and
// DiscoCluster all satisfy it, so the network and scalability experiments
// (§6.2.2, §6.4, §6.5.2) drive every system identically.
type Deployment interface {
	// Push feeds in-order events to local node i.
	Push(i int, evs []event.Event) error
	// Advance advances event time on local node i to t; feeders call it
	// periodically so watermarks flow while data is still streaming. It is
	// safe to call concurrently for different i.
	Advance(i int, t int64) error
	// AdvanceAll advances event time on every local node to t.
	AdvanceAll(t int64) error
	// Close drains and shuts the topology down.
	Close() error
	// Results returns and clears final window results.
	Results() []core.Result
	// NetworkBytes reports bytes sent by the local layer and by the
	// intermediate layer.
	NetworkBytes() (localBytes, intermediateBytes uint64)
	// NumLocals reports the number of local nodes.
	NumLocals() int
	// RootTime reports how far the root's processing has advanced in event
	// time — the signal latency measurements wait on.
	RootTime() int64
}

// eventFeeder merges per-child raw event streams in watermark order and
// feeds them to a consumer — the root-side intake of centralized systems.
type eventFeeder struct {
	children map[uint32]int64 // watermark per child
	bufs     map[uint32][]event.Event
	feed     func([]event.Event)
	advance  func(int64)
	wm       int64
}

func newEventFeeder(children []uint32, feed func([]event.Event), advance func(int64)) *eventFeeder {
	f := &eventFeeder{
		children: make(map[uint32]int64),
		bufs:     make(map[uint32][]event.Event),
		feed:     feed,
		advance:  advance,
	}
	for _, id := range children {
		f.children[id] = -1
	}
	return f
}

func (f *eventFeeder) events(from uint32, evs []event.Event) {
	f.bufs[from] = append(f.bufs[from], evs...)
}

func (f *eventFeeder) watermark(from uint32, w int64) {
	if old, ok := f.children[from]; !ok || w <= old {
		return
	}
	f.children[from] = w
	min := int64(-1)
	first := true
	for _, cw := range f.children {
		if first || cw < min {
			min, first = cw, false
		}
	}
	if first || min <= f.wm {
		return
	}
	f.wm = min
	var merged []event.Event
	for id, buf := range f.bufs {
		n := 0
		for n < len(buf) && buf[n].Time <= min {
			n++
		}
		if n > 0 {
			merged = append(merged, buf[:n]...)
			f.bufs[id] = buf[n:]
		}
	}
	sortEventsByTime(merged)
	if len(merged) > 0 {
		f.feed(merged)
	}
	f.advance(min)
}
