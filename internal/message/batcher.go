package message

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"desis/internal/telemetry"
)

// BatcherOptions shapes a Batcher.
type BatcherOptions struct {
	// MaxFrames caps the frames coalesced into one batch (default 512).
	MaxFrames int
	// MaxBytes caps the approximate body size of one batch (default
	// 256 KiB). Kept modest so a slow link transmits each frame well inside
	// the parent's liveness timeout.
	MaxBytes int
	// Queue bounds the pending-frame queue (default 4096); a full queue
	// blocks Send, which is the backpressure that makes throughput
	// measurements sustainable.
	Queue int
	// NoCutThrough disables the synchronous fast path: every batchable frame
	// queues behind the pump even when the link measures fast. Useful when
	// per-transmission cost dominates regardless of speed (energy-constrained
	// or per-message-billed links) and for deterministic coalescing in tests.
	NoCutThrough bool
}

func (o BatcherOptions) withDefaults() BatcherOptions {
	if o.MaxFrames <= 0 {
		o.MaxFrames = 512
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 256 << 10
	}
	if o.Queue <= 0 {
		o.Queue = 4096
	}
	return o
}

// Batcher coalesces outgoing partial/watermark frames into KindBatch frames.
//
// It is deliberately self-clocking rather than timer-driven, with two modes
// selected by the measured transmission time of recent sends:
//
//   - Cut-through (fast link): while the send-time EWMA stays under
//     cutThroughNanos and nothing is queued or in flight, Send transmits the
//     frame synchronously on the caller's thread — no goroutine hop, no added
//     latency, and the wire is byte-identical to the unbatched protocol.
//   - Pumped (slow link): once transmissions are observably slow, frames
//     queue behind a dedicated sender goroutine that drains everything
//     accumulated since its last transmission into one batch, then blocks in
//     the underlying send. The send blocks, frames pile up behind it, and the
//     next batch is large — the flush size adapts to exactly the ratio of
//     producer rate to link throughput, with MaxFrames/MaxBytes as the size
//     watermark and the previous batch's transmission time as the implicit
//     latency watermark.
//
// Queue depth and send time are therefore the only control signals, and both
// are observed, never configured. A link that speeds back up drains its
// batches quickly, the EWMA falls, and the batcher returns to cut-through.
//
// Frames whose kind is not batchable (control traffic, heartbeats, raw event
// batches) flush everything queued first and are then sent synchronously, so
// cross-kind ordering from one producer is preserved and an open batch never
// starves a heartbeat.
type Batcher struct {
	send func(*Message) error
	from uint32
	opts BatcherOptions

	// sendNanos is the EWMA of recent transmission times (α=1/4, atomic so
	// Send's fast-path check stays lock-cheap). Starts at zero: a fresh link
	// is assumed fast until a send proves otherwise.
	sendNanos atomic.Int64

	mu sync.Mutex
	// cond wakes Flush and queue-full Send waiters; pumpCond wakes only the
	// sender pump. Separate conditions keep the steady-state cut-through path
	// from waking the (otherwise always-parked) pump on every frame.
	cond     *sync.Cond
	pumpCond *sync.Cond
	queue    []*Message
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

// NewBatcher starts a batcher whose batches are transmitted by send (which
// must tolerate being called from the batcher's goroutine and, for control
// frames, from the caller's). from stamps the batches' sender id.
func NewBatcher(send func(*Message) error, from uint32, opts BatcherOptions) *Batcher {
	b := &Batcher{
		send: send,
		from: from,
		opts: opts.withDefaults(),
		done: make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	b.pumpCond = sync.NewCond(&b.mu)
	go b.run()
	return b
}

// AttachTelemetry mirrors the batcher's fill, flush-reason and queue-depth
// signals into reg.
func (b *Batcher) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	b.mu.Lock()
	b.telFlushes = reg.Counter("batch.flushes")
	b.telFrames = reg.Counter("batch.frames")
	b.telFlushSize = reg.Counter("batch.flush.size")
	b.telFlushDrain = reg.Counter("batch.flush.drain")
	b.telFlushControl = reg.Counter("batch.flush.control")
	b.telQueue = reg.Gauge("batch.queue_depth")
	b.mu.Unlock()
}

// Batchable reports whether a message kind may ride inside a KindBatch.
// Every kind decides explicitly (wirekind): partials and watermarks are
// idempotent at the parent and may be coalesced; everything else is either
// control plane (ordering matters relative to the frames around it), raw
// events (not idempotent across a replayed reconnect), or a batch itself.
func Batchable(k Kind) bool {
	switch k {
	case KindPartial, KindWatermark:
		return true
	case KindHello, KindPlanState, KindEventBatch, KindResult,
		KindAddQuery, KindRemoveQuery, KindHeartbeat, KindGoodbye,
		KindPlanDelta, KindPlanDump, KindStatsDump, KindBatch:
		return false
	default:
		return false
	}
}

// cutThroughNanos is the send-time EWMA above which the batcher abandons the
// synchronous cut-through path and queues frames behind the pump instead. A
// LAN-speed send (tens of µs) stays cut-through; a throttled or congested
// link (≥ hundreds of µs per frame) batches.
const cutThroughNanos = 200_000

// observeSend folds one transmission's duration into the EWMA.
func (b *Batcher) observeSend(d time.Duration) {
	old := b.sendNanos.Load()
	b.sendNanos.Store(old - old/4 + int64(d)/4)
}

// Send transmits a batchable frame — synchronously (cut-through) while the
// link is fast, queued behind the pump (cloned, per the Conn contract) once
// it is not — or, for any other kind, flushes the open queue and transmits m
// synchronously. A transmission failure of an earlier asynchronous batch is
// sticky and surfaces here.
func (b *Batcher) Send(m *Message) error {
	if !Batchable(m.Kind) {
		b.telFlushControl.Inc()
		if err := b.Flush(); err != nil {
			return err
		}
		return b.send(m)
	}
	b.mu.Lock()
	if !b.opts.NoCutThrough && len(b.queue) == 0 && !b.inFlight && !b.closed && b.err == nil &&
		b.sendNanos.Load() < cutThroughNanos {
		// Cut-through: the link has been fast and nothing can be overtaken,
		// so transmit on this thread. The send is synchronous, so m needs no
		// clone — nothing is retained past the call (the Conn contract).
		// inFlight keeps the pump and Flush honest while the send is in
		// progress.
		b.inFlight = true
		b.mu.Unlock()
		start := time.Now()
		err := b.send(m)
		b.observeSend(time.Since(start))
		b.mu.Lock()
		b.inFlight = false
		if err != nil && b.err == nil {
			b.err = fmt.Errorf("message: batcher send: %w", err)
		}
		b.telFlushes.Inc()
		b.telFrames.Inc()
		b.telFlushDrain.Inc()
		if b.err != nil || b.closed || len(b.queue) > 0 {
			b.pumpCond.Signal() // frames queued behind this send (or shutdown)
		}
		b.cond.Broadcast()
		b.mu.Unlock()
		return err
	}
	// Queued (asynchronous) path: clone, because the caller may recycle m as
	// soon as Send returns while the frame is still waiting for the pump.
	c := *m
	if c.Partial != nil {
		c.Partial = c.Partial.Clone()
	}
	for len(b.queue) >= b.opts.Queue && b.err == nil && !b.closed {
		b.cond.Wait()
	}
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return err
	}
	if b.closed {
		b.mu.Unlock()
		return fmt.Errorf("message: send on closed batcher")
	}
	b.queue = append(b.queue, &c)
	b.telQueue.Set(int64(len(b.queue)))
	b.pumpCond.Signal()
	b.mu.Unlock()
	return nil
}

// Flush blocks until every queued frame has been transmitted (or the
// batcher failed), returning the sticky error state.
func (b *Batcher) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for (len(b.queue) > 0 || b.inFlight) && b.err == nil {
		b.cond.Wait()
	}
	return b.err
}

// Close flushes and stops the sender goroutine. Safe to call twice.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		b.cond.Broadcast()
		b.pumpCond.Broadcast()
	}
	b.mu.Unlock()
	<-b.done
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// run is the sender pump: one batch per iteration, sized by whatever
// accumulated while the previous transmission was in flight.
func (b *Batcher) run() {
	defer close(b.done)
	for {
		b.mu.Lock()
		// Also wait out a cut-through transmission: collecting a batch while
		// one is on the wire could reorder frames from the same producer.
		for b.err == nil && (b.inFlight || (len(b.queue) == 0 && !b.closed)) {
			b.pumpCond.Wait()
		}
		if b.err != nil || len(b.queue) == 0 {
			b.mu.Unlock()
			return
		}
		// A frame joins while the batch is under its size caps and within
		// the decoder's item cap; the first one always goes, and travels
		// alone, unbatched, if it is too big to share.
		n, bytes, items := 0, 0, 0
		for n < len(b.queue) && n < b.opts.MaxFrames && (n == 0 || bytes < b.opts.MaxBytes) {
			k := batchItems(b.queue[n])
			if n > 0 && items+k > maxBatchItems {
				break
			}
			bytes += estimateFrameSize(b.queue[n])
			items += k
			n++
		}
		capped := n < len(b.queue)
		frames := make([]*Message, n)
		copy(frames, b.queue)
		rest := copy(b.queue, b.queue[n:])
		for i := rest; i < len(b.queue); i++ {
			b.queue[i] = nil
		}
		b.queue = b.queue[:rest]
		b.inFlight = true
		b.telQueue.Set(int64(rest))
		b.cond.Broadcast() // wake Send callers blocked on queue space
		b.mu.Unlock()

		var m *Message
		if len(frames) == 1 {
			// A lone frame travels unbatched, keeping the wire byte-identical
			// to the unbatched protocol when there is nothing to coalesce.
			m = frames[0]
		} else {
			m = &Message{Kind: KindBatch, From: b.from, Batch: &Batch{Frames: frames}}
		}
		start := time.Now()
		err := b.send(m)
		b.observeSend(time.Since(start))

		b.mu.Lock()
		b.inFlight = false
		if err != nil && b.err == nil {
			b.err = fmt.Errorf("message: batcher send: %w", err)
			b.queue = nil
		}
		b.telFlushes.Inc()
		b.telFrames.Add(uint64(len(frames)))
		if capped {
			b.telFlushSize.Inc()
		} else {
			b.telFlushDrain.Inc()
		}
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// BatchingConn wraps a Conn with a Batcher on the send side: partials and
// watermarks coalesce into KindBatch frames, everything else passes through
// synchronously (after a flush). The receive side is untouched — receivers
// unbatch where they dispatch (node handlers).
type BatchingConn struct {
	conn Conn
	b    *Batcher
}

// NewBatchingConn wraps conn. from stamps outgoing batches.
func NewBatchingConn(conn Conn, from uint32, opts BatcherOptions) *BatchingConn {
	return &BatchingConn{conn: conn, b: NewBatcher(conn.Send, from, opts)}
}

// Batcher exposes the wrapped batcher (telemetry attachment).
func (c *BatchingConn) Batcher() *Batcher { return c.b }

// Send implements Conn.
func (c *BatchingConn) Send(m *Message) error { return c.b.Send(m) }

// Recv implements Conn.
func (c *BatchingConn) Recv() (*Message, error) { return c.conn.Recv() }

// Close implements Conn: flushes queued frames, then closes the transport.
func (c *BatchingConn) Close() error {
	err := c.b.Close()
	if cerr := c.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// BytesSent implements Conn.
func (c *BatchingConn) BytesSent() uint64 { return c.conn.BytesSent() }

var _ Conn = (*BatchingConn)(nil)
