package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"desis"
	"desis/internal/message"
	"desis/internal/node"
	"desis/internal/plan"
)

// The harness is the tree wired by hand from the program's node types —
// node.NewLocalFromPlan, node.NewIntermediate, node.NewRootFromPlan — with
// the benchmark's own pump loops in place of the Cluster's or the TCP
// servers', so that every call into a node and every frame on a link passes
// through a benchmark-owned seam where a span or a count can be taken. It
// uses throttled pipes under batchers for tree-throttled (the Cluster's
// wiring) and message.Dial/Listen connections for tree-tcp. Untraced, it is
// the baseline the real TCP runtime's overhead is measured against.

// linkStats is what the wrappers below a batcher see of one link direction.
type linkStats struct {
	mu      sync.Mutex
	frames  int64 // wire frames sent
	bytes   uint64
	sendNs  int64 // total time inside Send
	partial int64 // partial frames carried, batched ones included
	carrier int64 // wire frames that carried at least one partial
	// fifo holds the send-entry time and trace of frames not yet received;
	// the receiving wrapper pops them in order.
	fifo   []sendMark
	waitNs []int64 // Send entry to Recv return, bounded
	// captured holds deep copies of the first frames received, for replay.
	captured []*message.Message
}

type sendMark struct {
	at    int64
	trace traceID
}

const (
	maxWaitSamples    = 1 << 18
	maxCapturedFrames = 4096
)

// tracedConn wraps one end of a link. nested, when set, is the lane of the
// node whose goroutine calls Send, so the span nests inside the node's
// Process or Handle span and is subtracted from its self time. wire, when
// set, marks the wrapper as sitting on the real link, below any batcher:
// it counts frames and bytes and matches sends to receives.
type tracedConn struct {
	message.Conn
	nested   *lane
	spanName string
	wire     *linkStats
	// lastTrace is the trace id of the frame Recv returned last; the pump
	// hands it to the receiving node's lane under the node's lock.
	lastTrace traceID
	// traceOf is the sending node's lane, read for its current trace id.
	traceOf *lane
}

func (c *tracedConn) Send(m *message.Message) error {
	if c.nested != nil {
		c.nested.begin(c.spanName)
		defer c.nested.end()
	}
	if c.wire == nil {
		return c.Conn.Send(m)
	}
	t0 := nowNs()
	before := c.Conn.BytesSent()
	c.wire.mu.Lock()
	c.wire.fifo = append(c.wire.fifo, sendMark{at: t0, trace: c.traceOf.trace()})
	c.wire.mu.Unlock()
	err := c.Conn.Send(m)
	t1 := nowNs()
	partials := int64(0)
	switch m.Kind {
	case message.KindPartial:
		partials = 1
	case message.KindBatch:
		for _, f := range m.Batch.Frames {
			if f.Kind == message.KindPartial {
				partials++
			}
		}
	}
	c.wire.mu.Lock()
	c.wire.frames++
	c.wire.bytes += c.Conn.BytesSent() - before
	c.wire.sendNs += t1 - t0
	c.wire.partial += partials
	if partials > 0 {
		c.wire.carrier++
	}
	c.wire.mu.Unlock()
	return err
}

func (c *tracedConn) Recv() (*message.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil || c.wire == nil {
		return m, err
	}
	now := nowNs()
	c.wire.mu.Lock()
	if len(c.wire.fifo) > 0 {
		mark := c.wire.fifo[0]
		c.wire.fifo = c.wire.fifo[1:]
		if len(c.wire.waitNs) < maxWaitSamples {
			c.wire.waitNs = append(c.wire.waitNs, now-mark.at)
		}
		c.lastTrace = mark.trace
	}
	if len(c.wire.captured) < maxCapturedFrames {
		c.wire.captured = append(c.wire.captured, cloneMessage(m))
	}
	c.wire.mu.Unlock()
	return m, nil
}

// traceOfLast is the trace id of the frame conn's Recv returned last, 0 for
// an unwrapped connection.
func traceOfLast(conn message.Conn) traceID {
	if c, ok := conn.(*tracedConn); ok {
		return c.lastTrace
	}
	return 0
}

// cloneMessage deep-copies the payloads a node may keep or recycle.
func cloneMessage(m *message.Message) *message.Message {
	c := *m
	if m.Partial != nil {
		c.Partial = m.Partial.Clone()
	}
	c.Events = append([]desis.Event(nil), m.Events...)
	if m.Batch != nil {
		b := &message.Batch{Frames: make([]*message.Message, len(m.Batch.Frames))}
		for i, f := range m.Batch.Frames {
			b.Frames[i] = cloneMessage(f)
		}
		c.Batch = b
	}
	return &c
}

// harness implements sut over hand-wired nodes.
type harness struct {
	locals []*node.Local
	inter  *node.Intermediate
	root   *node.Root

	localLanes []*lane
	interLane  *lane
	rootLane   *lane
	localLinks []*linkStats // local -> intermediate
	interLink  *linkStats   // intermediate -> root

	interMu sync.Mutex // serialises the intermediate's two child pumps
	rootMu  sync.Mutex
	rootWM  *sync.Cond // on rootMu: the root's watermark advanced or its pump ended
	rootEnd bool

	interPumps sync.WaitGroup
	rootPump   sync.WaitGroup
	closers    []io.Closer
	pumpErr    error // first handling error, guarded by rootMu

	pushed            []int // per source, batches pushed so far: the trace id's sequence
	handleEvents      int64 // KindEventBatch frames handled by the root
	handleEventsCount int64 // raw events in them
	partialsIn        int64 // partials handled by the intermediate
}

const (
	interID = 1001
	// pipeBuffer is the Cluster's default per-link queue depth.
	pipeBuffer = 256
)

// newHarness wires the tree. With tr == nil no wrapper is installed and no
// span is taken.
func newHarness(w *workload, onResult func(desis.Result), tr *tracer) (*harness, error) {
	qs, err := parseQueries(w)
	if err != nil {
		return nil, err
	}
	p, err := plan.New(qs, plan.Options{Decentralized: true, Optimize: true})
	if err != nil {
		return nil, err
	}
	h := &harness{pushed: make([]int, w.Sources)}
	h.rootWM = sync.NewCond(&h.rootMu)
	h.root = node.NewRootFromPlan(p, []uint32{interID}, onResult)
	h.rootLane, h.interLane = tr.lane("root"), tr.lane("inter")

	// link builds one upward link and returns the sender's and the
	// receiver's end.
	link := func() (up, down message.Conn, err error) {
		switch w.Kind {
		case kindCluster:
			a, b := message.NewThrottledPipe(message.Binary{}, pipeBuffer, w.BandwidthBytesPerSec)
			return a, b, nil
		case kindTCP:
			l, err := message.Listen("127.0.0.1:0", message.Binary{})
			if err != nil {
				return nil, nil, err
			}
			defer l.Close()
			c, err := message.Dial(l.Addr(), message.Binary{})
			if err != nil {
				return nil, nil, err
			}
			s, err := l.Accept()
			if err != nil {
				c.Close()
				return nil, nil, err
			}
			return c, s, nil
		}
		return nil, nil, fmt.Errorf("harness: workload %s is not a tree", w.Name)
	}
	// wrap installs the seams on one link: the wire wrapper on both ends and,
	// for a batched link, the batcher plus an outer wrapper that shows the
	// node's own view of Send.
	wrap := func(up, down message.Conn, id uint32, from *lane) (message.Conn, message.Conn, *linkStats) {
		var ls *linkStats
		if tr != nil {
			ls = &linkStats{}
			wireUp := &tracedConn{Conn: up, wire: ls, traceOf: from}
			down = &tracedConn{Conn: down, wire: ls}
			if w.Kind == kindTCP {
				wireUp.nested, wireUp.spanName = from, "message.Conn.Send"
			}
			up = wireUp
		}
		if w.Kind == kindCluster {
			up = message.NewBatchingConn(up, id, message.BatcherOptions{})
			if tr != nil {
				up = &tracedConn{Conn: up, nested: from, spanName: "message.BatchingConn.Send"}
			}
		}
		return up, down, ls
	}

	up, down, err := link()
	if err != nil {
		return nil, err
	}
	up, down, h.interLink = wrap(up, down, interID, h.interLane)
	h.closers = append(h.closers, down)
	var children []uint32
	for i := 0; i < w.Sources; i++ {
		children = append(children, uint32(1+i))
	}
	h.inter = node.NewIntermediate(interID, children, up)
	h.rootPump.Add(1)
	go h.pumpRoot(down)

	for i := 0; i < w.Sources; i++ {
		ll := tr.lane(fmt.Sprintf("local%d", i))
		up, down, err := link()
		if err != nil {
			return nil, err
		}
		var ls *linkStats
		up, down, ls = wrap(up, down, uint32(1+i), ll)
		h.closers = append(h.closers, down)
		h.localLanes = append(h.localLanes, ll)
		h.localLinks = append(h.localLinks, ls)
		h.locals = append(h.locals, node.NewLocalFromPlan(uint32(1+i), p.Clone(), up, 0))
		h.interPumps.Add(1)
		go h.pumpInter(down)
	}
	return h, nil
}

// frames yields the frames of m in order: the frames of a batch, or m
// itself. Handling them one by one is what the nodes do with a KindBatch,
// and lets each frame have its own span.
func frames(m *message.Message) []*message.Message {
	if m.Kind == message.KindBatch {
		return m.Batch.Frames
	}
	return []*message.Message{m}
}

func spanFor(tier string, k message.Kind) string {
	switch k {
	case message.KindPartial:
		return tier + ".Handle(partial)"
	case message.KindWatermark:
		return tier + ".Handle(watermark)"
	case message.KindEventBatch:
		return tier + ".Handle(events)"
	}
	return tier + ".Handle(other)"
}

// pumpInter drains one local's link into the intermediate until the local
// closes it.
func (h *harness) pumpInter(conn message.Conn) {
	defer h.interPumps.Done()
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		h.interMu.Lock()
		h.interLane.setTrace(traceOfLast(conn))
		for _, f := range frames(m) {
			if f.Kind == message.KindPartial {
				h.partialsIn++
			}
			h.interLane.begin(spanFor("node.Intermediate", f.Kind))
			err := h.inter.Handle(f)
			h.interLane.end()
			if err != nil {
				h.noteErr(err)
			}
		}
		h.interMu.Unlock()
	}
}

// pumpRoot drains the intermediate's link into the root until it closes.
func (h *harness) pumpRoot(conn message.Conn) {
	defer h.rootPump.Done()
	defer func() {
		h.rootMu.Lock()
		h.rootEnd = true
		h.rootWM.Broadcast()
		h.rootMu.Unlock()
	}()
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		h.rootMu.Lock()
		h.rootLane.setTrace(traceOfLast(conn))
		before := h.root.Watermark()
		for _, f := range frames(m) {
			if f.Kind == message.KindEventBatch {
				h.handleEvents++
				h.handleEventsCount += int64(len(f.Events))
			}
			h.rootLane.begin(spanFor("node.Root", f.Kind))
			err := h.root.Handle(f)
			h.rootLane.end()
			if err != nil && h.pumpErr == nil {
				h.pumpErr = err
			}
		}
		if h.root.Watermark() > before {
			h.rootWM.Broadcast()
		}
		h.rootMu.Unlock()
	}
}

func (h *harness) noteErr(err error) {
	h.rootMu.Lock()
	if h.pumpErr == nil {
		h.pumpErr = err
	}
	h.rootMu.Unlock()
}

func (h *harness) Push(src int, evs []desis.Event) error {
	l := h.localLanes[src]
	l.setTrace(makeTraceID(src, h.pushed[src]))
	h.pushed[src]++
	l.begin("node.Local.Process")
	err := h.locals[src].Process(evs)
	l.end()
	return err
}

func (h *harness) Advance(src int, t int64) error {
	l := h.localLanes[src]
	l.begin("node.Local.AdvanceTo")
	err := h.locals[src].AdvanceTo(t)
	l.end()
	return err
}

func (h *harness) Settle(t int64) {
	// A hung tree must not hang the benchmark: give up after the liveness
	// bound the TCP servers use.
	timer := time.AfterFunc(tcpLiveness, func() {
		h.rootMu.Lock()
		h.rootEnd = true
		h.rootWM.Broadcast()
		h.rootMu.Unlock()
	})
	defer timer.Stop()
	h.rootMu.Lock()
	defer h.rootMu.Unlock()
	for h.root.Watermark() < t && !h.rootEnd {
		h.rootWM.Wait()
	}
}

func (h *harness) Finish(t int64) error {
	var errs []error
	for i := range h.locals {
		errs = append(errs, h.Advance(i, t))
	}
	h.Settle(t)
	errs = append(errs, h.shutdown())
	h.rootMu.Lock()
	if wm := h.root.Watermark(); wm < t {
		errs = append(errs, fmt.Errorf("harness: root watermark %d never reached %d", wm, t))
	}
	errs = append(errs, h.pumpErr)
	h.rootMu.Unlock()
	return errors.Join(errs...)
}

// shutdown closes the tree bottom-up: each local says goodbye and closes its
// link, the intermediate's pumps drain to EOF, then the intermediate closes
// its own link and the root's pump drains.
func (h *harness) shutdown() error {
	var errs []error
	for _, l := range h.locals {
		errs = append(errs, l.Close())
	}
	h.interPumps.Wait()
	errs = append(errs, h.inter.Close())
	h.rootPump.Wait()
	for _, c := range h.closers {
		c.Close() // receiving ends; their peers are already closed
	}
	return errors.Join(errs...)
}
