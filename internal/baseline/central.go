package baseline

import (
	"sort"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/node"
)

func sortEventsByTime(evs []event.Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
}

// CentralCluster deploys a centralized System (Scotty or CeBuffer) on a
// decentralized topology: every node below the root only forwards raw
// events upward (§6.1.1: "only the root node processes events; other nodes
// collect events ... and send data to parent nodes directly").
// Intermediates relay each batch under its origin local's id and forward
// their merged watermark; the root buffers events per origin and releases
// them to the System in time order once the merged watermark passes them.
type CentralCluster struct {
	*tree
	sys  System
	bufs map[uint32][]event.Event // per origin local, guarded by rootMu
}

// NewCentralCluster deploys sys at the root of the topology.
func NewCentralCluster(sys System, cfg CentralConfig) *CentralCluster {
	c := &CentralCluster{sys: sys, bufs: make(map[uint32][]event.Event)}
	// A forwarding local cannot fail to build, so neither can the tree.
	c.tree, _ = newTree(cfg, message.Binary{}, func(root *node.Merger) {
		root.OutEvents = func(from uint32, evs []event.Event) {
			c.bufs[from] = append(c.bufs[from], evs...)
		}
		root.OutWatermark = c.release
	}, func(id uint32, up message.Conn) (localNode, error) {
		return &fwdLocal{id: id, conn: up}, nil
	})
	return c
}

// release feeds the System every buffered event at or before the merged
// watermark w, in time order across origins, and advances it to w.
func (c *CentralCluster) release(w int64) {
	var merged []event.Event
	for id, buf := range c.bufs {
		n := 0
		for n < len(buf) && buf[n].Time <= w {
			n++
		}
		merged = append(merged, buf[:n]...)
		c.bufs[id] = buf[n:]
	}
	sortEventsByTime(merged)
	for _, ev := range merged {
		c.sys.Process(ev)
	}
	c.sys.AdvanceTo(w)
}

// Results implements Deployment.
func (c *CentralCluster) Results() []core.Result {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	return c.sys.Results()
}

// fwdLocal batches and forwards its stream.
type fwdLocal struct {
	id   uint32
	conn message.Conn
	buf  []event.Event
	wm   int64
	err  error
}

func (l *fwdLocal) push(evs []event.Event) error {
	for _, ev := range evs {
		l.buf = append(l.buf, ev)
		if ev.Time > l.wm {
			l.wm = ev.Time
		}
		if len(l.buf) >= linkBuffer {
			l.flush()
		}
	}
	return l.err
}

func (l *fwdLocal) flush() {
	if len(l.buf) == 0 || l.err != nil {
		return
	}
	l.err = l.conn.Send(&message.Message{Kind: message.KindEventBatch, From: l.id, Events: l.buf})
	l.buf = nil
}

func (l *fwdLocal) advance(t int64) error {
	if t > l.wm {
		l.wm = t
	}
	l.flush()
	if l.err != nil {
		return l.err
	}
	l.err = l.conn.Send(&message.Message{Kind: message.KindWatermark, From: l.id, Watermark: l.wm})
	return l.err
}

func (l *fwdLocal) close() {
	l.flush()
	l.conn.Close()
}
