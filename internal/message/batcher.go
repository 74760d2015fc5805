package message

import (
	"errors"
	"fmt"
	"sync"

	"desis/internal/telemetry"
)

// BatcherOptions is the settings value NewBatchingConn takes. Batching has
// no settings, so it has no fields; it stays because the benchmark harness
// calls NewBatchingConn(up, id, message.BatcherOptions{}).
type BatcherOptions struct{}

const (
	// batchMaxFrames caps the frames coalesced into one batch.
	batchMaxFrames = 512
	// batchMaxBytes caps the approximate body size of one batch. Kept modest
	// so a slow link transmits each frame well inside the parent's liveness
	// timeout.
	batchMaxBytes = 256 << 10
	// batchQueue bounds the pending-frame queue; a full queue blocks Send,
	// which is the backpressure that makes throughput measurements
	// sustainable.
	batchQueue = 4096
)

// Batchable reports whether a message kind may ride inside a KindBatch.
// Every kind decides explicitly (wirekind): partials and watermarks are
// idempotent at the parent and may be coalesced; everything else is either
// control plane (ordering matters relative to the frames around it), raw
// events (not idempotent across a replayed reconnect), or a batch itself.
func Batchable(k Kind) bool {
	switch k {
	case KindPartial, KindWatermark:
		return true
	case KindHello, KindPlanState, KindEventBatch, KindAddQuery,
		KindRemoveQuery, KindHeartbeat, KindGoodbye, KindPlanDelta,
		KindPlanDump, KindStatsDump, KindBatch:
		return false
	default:
		return false
	}
}

// BatchingConn wraps a Conn on its send side: partials and watermarks
// coalesce into KindBatch frames, everything else passes through
// synchronously after a flush. The receive side is untouched — receivers
// unbatch where they dispatch (node handlers).
//
// It is self-clocking rather than timer-driven. Every batchable frame is
// copied into a queue behind one sender goroutine, the pump, which drains
// everything accumulated since its last transmission into one batch and then
// blocks in the underlying send. While it is blocked frames pile up behind
// it, so the next batch is larger: the batch size follows the ratio of
// producer rate to link throughput, with batchMaxFrames/batchMaxBytes as the
// size cap and the previous batch's transmission time as the implicit
// latency cap. A frame that finds the pump idle travels alone, unbatched.
//
// Frames whose kind is not batchable (control traffic, heartbeats, raw event
// batches) flush everything queued first and are then sent synchronously, so
// cross-kind ordering from one producer is preserved and an open batch never
// starves a heartbeat.
type BatchingConn struct {
	conn Conn
	from uint32

	mu sync.Mutex
	// cond wakes flush and queue-full Send waiters; pumpCond wakes only the
	// pump.
	cond     *sync.Cond
	pumpCond *sync.Cond
	queue    []*Message
	// batch is the pump's KindBatch message; its frames are reused too.
	batch    Message
	inFlight bool
	closed   bool
	err      error
	done     chan struct{}

	telFlushes      *telemetry.Counter
	telFrames       *telemetry.Counter
	telFlushSize    *telemetry.Counter
	telFlushDrain   *telemetry.Counter
	telFlushControl *telemetry.Counter
	telQueue        *telemetry.Gauge
}

// NewBatchingConn wraps conn and starts its pump, which transmits through
// conn.Send; conn must therefore tolerate a Send from the pump beside one
// from the caller (for control frames). from stamps outgoing batches.
func NewBatchingConn(conn Conn, from uint32, _ BatcherOptions) *BatchingConn {
	c := &BatchingConn{conn: conn, from: from, done: make(chan struct{})}
	c.batch = Message{Kind: KindBatch, From: from, Batch: new(Batch)}
	c.cond = sync.NewCond(&c.mu)
	c.pumpCond = sync.NewCond(&c.mu)
	go c.run()
	return c
}

// AttachTelemetry mirrors the batcher's fill, flush-reason and queue-depth
// signals into reg.
func (c *BatchingConn) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	c.telFlushes = reg.Counter("batch.flushes")
	c.telFrames = reg.Counter("batch.frames")
	c.telFlushSize = reg.Counter("batch.flush.size")
	c.telFlushDrain = reg.Counter("batch.flush.drain")
	c.telFlushControl = reg.Counter("batch.flush.control")
	c.telQueue = reg.Gauge("batch.queue_depth")
	c.mu.Unlock()
}

// Send implements Conn. A batchable frame is copied into the pump's queue
// (the caller may recycle m as soon as Send returns) and Send returns
// without waiting for the link, unless the queue is full; any other kind
// flushes the queue and is transmitted synchronously. A transmission failure
// of an earlier batch is sticky and surfaces here.
//
//desis:hotpath
func (c *BatchingConn) Send(m *Message) error {
	if !Batchable(m.Kind) {
		c.telFlushControl.Inc()
		if err := c.flush(); err != nil {
			return err
		}
		return c.conn.Send(m)
	}
	q := queuedCopy(m)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) >= batchQueue && c.err == nil && !c.closed {
		c.cond.Wait()
	}
	if c.err != nil || c.closed {
		releaseQueued(q)
		if c.err != nil {
			return c.err
		}
		//lint:ignore hotalloc cold path: a send after Close is a caller bug
		return errors.New("message: send on closed BatchingConn")
	}
	c.queue = append(c.queue, q)
	c.telQueue.Set(int64(len(c.queue)))
	c.pumpCond.Signal()
	return nil
}

// queuedPool recycles the batcher's queued copies: the pump gives each back
// once the batch that carried it is sent.
var queuedPool = sync.Pool{New: func() any { return new(Message) }}

// queuedCopy returns a pooled copy of the batchable frame m, its partial
// drawn from the partial pool, sharing no memory with m.
//
//desis:hotpath
func queuedCopy(m *Message) *Message {
	q := queuedPool.Get().(*Message)
	*q = Message{Kind: m.Kind, From: m.From, Watermark: m.Watermark}
	if m.Partial != nil {
		q.Partial = copyPartial(m.Partial)
	}
	return q
}

// releaseQueued gives a queued copy and its partial back to their pools.
//
//desis:hotpath
func releaseQueued(q *Message) {
	if q.Partial != nil {
		ReleasePartial(q.Partial)
	}
	*q = Message{}
	queuedPool.Put(q)
}

// flush blocks until every queued frame has been transmitted (or the pump
// failed), returning the sticky error state.
func (c *BatchingConn) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for (len(c.queue) > 0 || c.inFlight) && c.err == nil {
		c.cond.Wait()
	}
	return c.err
}

// Recv implements Conn.
func (c *BatchingConn) Recv() (*Message, error) { return c.conn.Recv() }

// Close implements Conn: the pump transmits what is queued and stops, then
// the wrapped conn closes.
func (c *BatchingConn) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.cond.Broadcast()
		c.pumpCond.Broadcast()
	}
	c.mu.Unlock()
	<-c.done
	c.mu.Lock()
	err := c.err
	c.mu.Unlock()
	return errors.Join(err, c.conn.Close())
}

// BytesSent implements Conn.
func (c *BatchingConn) BytesSent() uint64 { return c.conn.BytesSent() }

// run is the pump: one batch per iteration, sized by whatever accumulated
// while the previous transmission was in flight.
func (c *BatchingConn) run() {
	defer close(c.done)
	for {
		c.mu.Lock()
		for c.err == nil && len(c.queue) == 0 && !c.closed {
			c.pumpCond.Wait()
		}
		if c.err != nil || len(c.queue) == 0 {
			c.mu.Unlock()
			return
		}
		// A frame joins while the batch is under its size caps and within
		// the decoder's item cap; the first one always goes, and travels
		// alone, unbatched, if it is too big to share.
		n, bytes, items := 0, 0, 0
		for n < len(c.queue) && n < batchMaxFrames && (n == 0 || bytes < batchMaxBytes) {
			k := batchItems(c.queue[n])
			if n > 0 && items+k > maxBatchItems {
				break
			}
			bytes += estimateFrameSize(c.queue[n])
			items += k
			n++
		}
		capped := n < len(c.queue)
		frames := append(c.batch.Batch.Frames[:0], c.queue[:n]...)
		c.batch.Batch.Frames = frames
		rest := copy(c.queue, c.queue[n:])
		clear(c.queue[rest:])
		c.queue = c.queue[:rest]
		c.inFlight = true
		c.telQueue.Set(int64(rest))
		c.cond.Broadcast() // wake Send callers blocked on queue space
		c.mu.Unlock()

		m := frames[0]
		if n > 1 {
			m = &c.batch
		}
		err := c.conn.Send(m)
		for _, f := range frames {
			releaseQueued(f)
		}
		clear(frames)

		c.mu.Lock()
		c.inFlight = false
		if err != nil && c.err == nil {
			c.err = fmt.Errorf("message: batcher send: %w", err)
			for _, q := range c.queue {
				releaseQueued(q)
			}
			c.queue = nil
		}
		c.telFlushes.Inc()
		c.telFrames.Add(uint64(n))
		if capped {
			c.telFlushSize.Inc()
		} else {
			c.telFlushDrain.Inc()
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

var _ Conn = (*BatchingConn)(nil)
