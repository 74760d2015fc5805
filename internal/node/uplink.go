package node

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/telemetry"
)

// ErrUplinkDown is returned (wrapped) once a supervised uplink exhausted its
// reconnect budget or was closed; every later Send/Recv fails with it.
var ErrUplinkDown = errors.New("node: uplink down")

// RetryPolicy shapes the reconnect loop of a supervised uplink: exponential
// backoff with jitter between dial attempts, capped at MaxDelay, giving up
// after MaxRetries consecutive failures.
type RetryPolicy struct {
	// MaxRetries is the number of consecutive failed dial attempts before
	// the uplink is declared down. Zero means the default (8).
	MaxRetries int
	// BaseDelay is the first backoff (default 50ms); each attempt doubles
	// it up to MaxDelay (default 2s). Every delay is jittered to [d/2, d]
	// so a fleet of children does not reconnect in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// handshakeTimeout bounds a child's hello/plan-resync exchange.
const handshakeTimeout = 5 * time.Second

// DialOptions configures a child's connection to its parent (locals and
// intermediates). Sends on the uplink time out after four heartbeat periods,
// or never when heartbeats are disabled; the handshake after 5 s.
type DialOptions struct {
	// Retry shapes the reconnect loop; the zero value uses defaults.
	Retry RetryPolicy
	// Heartbeat is the uplink's heartbeat period (§3.2 liveness); each
	// heartbeat carries the node's load digest. Zero means
	// HeartbeatInterval; negative disables heartbeats.
	Heartbeat time.Duration
	// Batch wraps the uplink in a message.BatchingConn: outgoing
	// partial/watermark frames coalesce into columnar KindBatch frames whose
	// size follows the link's backpressure. Control traffic flushes the open
	// batch and travels unbatched, so ordering is unaffected.
	Batch bool
	// Telemetry, when non-nil, is the registry this node registers its
	// instruments in (engine counters, uplink reconnects, merge latency).
	// Nil means the node creates a private registry — stats dumps always
	// answer; supply one to also serve it locally (e.g. -debug-addr).
	Telemetry *telemetry.Registry
	// InstanceTTL parks a local's group instances of keys idle this many
	// event-time milliseconds (core.Config.InstanceTTL); 0 keeps every
	// instance resident. Every watermark revives the whole key space (idle
	// keys owe empty windows), so set it well above the watermark cadence.
	// An intermediate runs no engine and ignores it.
	InstanceTTL int64
}

func (o DialOptions) withDefaults() DialOptions {
	o.Retry = o.Retry.withDefaults()
	if o.Heartbeat == 0 {
		o.Heartbeat = HeartbeatInterval
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewRegistry()
	}
	return o
}

// uplink is a supervised message.Conn from a child (local or intermediate)
// to its parent. On Send/Recv failure it re-dials with backoff, re-performs
// the hello/query-set handshake, and resumes the stream; the parent treats
// the returning id as a reconnect. A heartbeat leaves every period, so the
// parent's liveness timeout only fires for genuinely dead children.
//
// Failure semantics across a reconnect are at-least-once per frame: the
// frame being sent when the link died is retransmitted, and the recorded
// tail of recent partial/watermark frames is replayed first (a dying socket
// can accept frames into kernel buffers and lose them without any error
// surfacing). The parent dedups the replayed overlap — merger contributor
// sets for partials, monotonicity for watermarks — so the stream is
// effectively exactly-once for the decentralized hot path. Raw event batches
// (RootOnly groups) are not replayed and stay at-most-once across a
// reconnect.
type uplink struct {
	addr string
	id   uint32
	opts DialOptions

	mu           sync.Mutex
	cond         *sync.Cond
	conn         *message.TCPConn
	gen          uint64 // bumped per successful reconnect
	reconnecting bool
	down         error  // terminal state; sticky
	prevBytes    uint64 // BytesSent of retired connections
	closed       bool
	// epochFn reports the child's current plan epoch for the hello of a
	// re-handshake; nil (before serve) reports NoEpoch, which makes the
	// parent send the full plan.
	epochFn func() uint64
	// pending holds the resync messages received by re-handshakes — a
	// KindPlanDelta (epoch diff) or KindPlanState (full plan) — delivered
	// in-band by Recv so the single downstream consumer applies resyncs in
	// order with ordinary control traffic.
	pending []*message.Message
	// replay is a ring of replayDepth slots holding the wire frames (length
	// prefix included) of the most recent partial/watermark frames — whole
	// KindBatch frames when batching. A dying socket can accept frames into
	// kernel buffers and then lose them without an error ever surfacing;
	// retransmitting the tail on reconnect closes that silent-loss window,
	// and the parent's merger drops the duplicated overlap — per contained
	// partial, when a replayed frame is a batch. Slots are encoded in place
	// and keep their capacity; head is the next slot written and filled
	// how many slots hold a frame.
	replay       [replayDepth][]byte
	head, filled int
	// unflushed counts the ring's frames queued on the connection since its
	// last flush. It stays at or below replayDepth/2, so a flush that fails
	// loses nothing the reconnect's replay does not resend.
	unflushed int

	closeCh chan struct{}
	hbDone  chan struct{}

	// telReconnects/telReplay count successful re-dials and mirror
	// replay-ring occupancy into the registry once serve registered them
	// (nil-safe no-ops before).
	telReconnects *telemetry.Counter
	telReplay     *telemetry.Gauge
	// watermarkFn, set by serve, reports the node's watermark for the load
	// digest every heartbeat carries. It runs on the heartbeat goroutine
	// with no uplink locks held.
	watermarkFn func() int64
}

// dialUplink establishes the initial connection and handshake, returning
// the uplink and the parent's execution plan (the child is fresh, so it
// reports NoEpoch and always receives the full plan). The caller calls serve
// once it is ready for traffic.
func dialUplink(addr string, id uint32, opts DialOptions) (*uplink, *plan.Plan, error) {
	u := &uplink{
		addr:    addr,
		id:      id,
		opts:    opts.withDefaults(),
		closeCh: make(chan struct{}),
	}
	u.cond = sync.NewCond(&u.mu)
	conn, resync, err := u.handshake()
	if err != nil {
		return nil, nil, err
	}
	if resync.Kind != message.KindPlanState {
		conn.Close()
		return nil, nil, fmt.Errorf("node: handshake with %s: expected full plan for a fresh child, got kind %d", addr, resync.Kind)
	}
	u.conn = conn
	return u, resync.Plan, nil
}

// serve puts the uplink to work for a ready child: it registers the
// uplink's instruments (uplink.reconnects, uplink.replay_occupancy), starts
// the heartbeats and relays every control frame from the parent to control,
// on one goroutine, until the uplink is down. epoch reports the child's plan
// epoch, for the hello of a re-handshake and the digest; watermark reports
// the node's watermark for each heartbeat's load digest. Both run beside the
// node's own goroutines and must do their own locking.
func (u *uplink) serve(epoch func() uint64, watermark func() int64, control func(*message.Message)) {
	u.mu.Lock()
	u.epochFn, u.watermarkFn = epoch, watermark
	u.telReconnects = u.opts.Telemetry.Counter("uplink.reconnects")
	u.telReplay = u.opts.Telemetry.Gauge("uplink.replay_occupancy")
	u.mu.Unlock()
	if u.opts.Heartbeat > 0 {
		u.hbDone = make(chan struct{})
		go u.heartbeatLoop()
	}
	go func() {
		for {
			m, err := u.Recv()
			if err != nil {
				return
			}
			control(m)
		}
	}()
}

// handshake dials the parent once: hello (with the child's plan epoch) up,
// plan resync down — an epoch diff (KindPlanDelta) or the full plan
// (KindPlanState).
func (u *uplink) handshake() (*message.TCPConn, *message.Message, error) {
	conn, err := message.Dial(u.addr, message.Binary{})
	if err != nil {
		return nil, nil, err
	}
	if u.opts.Heartbeat > 0 {
		// A stalled parent cannot block the child past four heartbeats.
		conn.SetWriteTimeout(4 * u.opts.Heartbeat)
	}
	epoch := uint64(message.NoEpoch)
	u.mu.Lock()
	fn := u.epochFn
	u.mu.Unlock()
	if fn != nil {
		epoch = fn()
	}
	if err := conn.Send(&message.Message{Kind: message.KindHello, From: u.id, Epoch: epoch}); err != nil {
		conn.Close()
		return nil, nil, err
	}
	resync, err := conn.RecvTimeout(handshakeTimeout)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("node: handshake with %s: %w", u.addr, err)
	}
	if resync.Kind != message.KindPlanState && resync.Kind != message.KindPlanDelta {
		conn.Close()
		return nil, nil, fmt.Errorf("node: handshake with %s: expected plan state or delta, got kind %d", u.addr, resync.Kind)
	}
	return conn, resync, nil
}

// current returns the live connection, waiting out an in-flight reconnect.
func (u *uplink) current() (*message.TCPConn, uint64, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for u.reconnecting {
		u.cond.Wait()
	}
	if u.down != nil {
		return nil, 0, u.down
	}
	return u.conn, u.gen, nil
}

// fail reports that the connection of generation gen broke with cause. It
// returns a usable connection (reconnecting if this caller wins the race to
// do so) or the uplink's terminal error. Single-flight: concurrent callers
// wait for the winner's outcome.
func (u *uplink) fail(gen uint64, cause error) (*message.TCPConn, uint64, error) {
	u.mu.Lock()
	for {
		if u.down != nil {
			err := u.down
			u.mu.Unlock()
			return nil, 0, err
		}
		if u.gen != gen {
			// Someone else already reconnected; use their connection.
			c, g := u.conn, u.gen
			u.mu.Unlock()
			return c, g, nil
		}
		if !u.reconnecting {
			break
		}
		u.cond.Wait()
	}
	u.reconnecting = true
	old := u.conn
	u.mu.Unlock()

	if old != nil {
		u.accountRetired(old)
		old.Close()
	}
	conn, resync, err := u.redial()

	u.mu.Lock()
	u.reconnecting = false
	if err != nil {
		if u.down == nil {
			u.down = fmt.Errorf("%w: %s (last cause: %v)", ErrUplinkDown, err, cause)
		}
		err := u.down
		u.cond.Broadcast()
		u.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		return nil, 0, err
	}
	u.conn = conn
	u.gen++
	g := u.gen
	u.pending = append(u.pending, resync)
	u.cond.Broadcast()
	tel := u.telReconnects
	u.mu.Unlock()
	tel.Inc()
	return conn, g, nil
}

// redial attempts the handshake under the retry policy: exponential backoff
// with jitter, aborting early when the uplink is closed.
func (u *uplink) redial() (*message.TCPConn, *message.Message, error) {
	delay := u.opts.Retry.BaseDelay
	var lastErr error
	for attempt := 0; attempt < u.opts.Retry.MaxRetries; attempt++ {
		if attempt > 0 {
			d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
			select {
			case <-u.closeCh:
				return nil, nil, errors.New("closed during reconnect")
			case <-time.After(d):
			}
			if delay *= 2; delay > u.opts.Retry.MaxDelay {
				delay = u.opts.Retry.MaxDelay
			}
		}
		select {
		case <-u.closeCh:
			return nil, nil, errors.New("closed during reconnect")
		default:
		}
		conn, resync, err := u.handshake()
		if err == nil {
			if err = u.sendReplay(conn); err == nil {
				return conn, resync, nil
			}
			conn.Close() // broken before it carried anything; try again
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("gave up after %d attempts: %w", u.opts.Retry.MaxRetries, lastErr)
}

// sendReplay retransmits the recorded frame tail, oldest first, on a fresh
// connection, restoring anything the dead socket silently swallowed. The
// parent dedups the overlap (merger contributor sets; watermarks are
// monotone). The slots are queued under u.mu, which keeps record from
// overwriting one while it is copied, and leave in one write.
func (u *uplink) sendReplay(conn *message.TCPConn) error {
	u.mu.Lock()
	var err error
	for i := u.filled; i > 0 && err == nil; i-- {
		err = conn.SendFrame(u.replay[(u.head-i+len(u.replay))%len(u.replay)])
	}
	u.mu.Unlock()
	if err != nil {
		return err
	}
	return conn.Flush()
}

// replayDepth is how many recent partial/watermark frames the uplink retains
// (as their encoded bytes) and replays after a reconnect. A link that dies
// can silently swallow frames the kernel had already accepted; replaying the
// tail restores them, and the parent's merger dedups the overlap, so
// partials are effectively exactly-once across reconnects. Raw event batches
// are never replayed (the parent cannot dedup them).
const replayDepth = 64

// replaySlotKeep is the largest slot capacity the replay ring reuses: an
// outsized batch frame does not pin its memory once smaller frames follow.
const replaySlotKeep = 64 << 10

// record encodes a data frame into the replay ring's next slot and queues
// the same bytes on conn, both under u.mu: a frame waiting in conn's buffer
// when another goroutine's flush fails is therefore always in the ring the
// reconnect replays. Only partials, watermarks and their batches are
// recorded: they are idempotent at the parent, raw event batches are not.
// The ring holds bytes, not the message, so the caller may recycle m's
// buffers once the send returns (the Conn contract).
//
// recorded reports whether m went this way; if not, nothing was queued.
// hold reports whether conn may keep the frame unflushed: only while fewer
// than replayDepth/2 recorded frames are waiting. err is the encoding error
// when m was not recorded, the connection's when it was.
func (u *uplink) record(conn *message.TCPConn, m *message.Message) (recorded, hold bool, err error) {
	switch m.Kind {
	case message.KindPartial, message.KindWatermark, message.KindBatch:
	case message.KindHello, message.KindPlanState, message.KindEventBatch,
		message.KindAddQuery, message.KindRemoveQuery, message.KindHeartbeat,
		message.KindGoodbye, message.KindPlanDelta, message.KindPlanDump,
		message.KindStatsDump:
		// Named, not replayed (wirekind): control frames are regenerated by
		// the handshake, heartbeats are ephemeral, and raw event batches
		// are not idempotent at the parent. A new kind must choose a side
		// here explicitly.
		return false, false, nil
	default:
		return false, false, nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	slot := u.replay[u.head]
	if cap(slot) > replaySlotKeep {
		slot = nil
	}
	frame, err := message.AppendFrame(slot[:0], message.Binary{}, m)
	if err != nil {
		// The failed encode wrote over the oldest frame: it leaves the ring.
		u.replay[u.head] = nil
		u.filled = min(u.filled, len(u.replay)-1)
		return false, false, err
	}
	u.replay[u.head] = frame
	u.head = (u.head + 1) % len(u.replay)
	u.filled = min(u.filled+1, len(u.replay))
	u.unflushed++
	u.telReplay.Set(int64(u.filled))
	return true, u.unflushed < len(u.replay)/2, conn.SendFrame(frame)
}

// accountRetired folds a retired connection's byte count into the running
// total so BytesSent stays monotone across reconnects.
func (u *uplink) accountRetired(c *message.TCPConn) {
	u.mu.Lock()
	u.prevBytes += c.BytesSent()
	u.mu.Unlock()
}

// Send implements message.Conn: it transmits m, transparently reconnecting
// and retransmitting on link failure until the retry budget is exhausted.
func (u *uplink) Send(m *message.Message) error { return u.transmit(m, true) }

// SendBuffered implements message.BufferedSender: m is queued on the live
// connection and leaves with the next Flush or Send — or at once, when the
// replay ring does not cover it (DESIGN.md §5c, write coalescing).
func (u *uplink) SendBuffered(m *message.Message) error { return u.transmit(m, false) }

// Flush implements message.BufferedSender. A flush that fails reconnects,
// and the reconnect's replay resends every frame the flush lost.
func (u *uplink) Flush() error {
	conn, gen, err := u.current()
	if err != nil {
		return err
	}
	if ferr := u.flushConn(conn); ferr != nil {
		_, _, err = u.fail(gen, ferr)
	}
	return err
}

// flushConn flushes conn. The count of unflushed frames restarts before the
// write, not after: a frame queued while the write is in flight is counted
// again instead of missed, and what a failed write can lose — at most
// replayDepth/2 frames from either side of the restart — still fits the
// ring.
func (u *uplink) flushConn(conn *message.TCPConn) error {
	u.mu.Lock()
	u.unflushed = 0
	u.mu.Unlock()
	return conn.Flush()
}

// transmit is the supervised path to the wire: it queues m on the live
// connection — through the replay ring when m is a data frame — flushes when
// asked to or when m may not wait there, and on a link failure reconnects
// and sends m again. (After a reconnect m may therefore arrive twice, once
// replayed and once resent; the parent dedups.)
func (u *uplink) transmit(m *message.Message, flush bool) error {
	conn, gen, err := u.current()
	if err != nil {
		return err
	}
	recorded, hold, err := u.record(conn, m)
	switch {
	case recorded:
		flush = flush || !hold
	case err != nil:
		return err // m does not encode; nothing was queued
	default:
		flush, err = true, conn.SendBuffered(m)
	}
	for {
		if err == nil && flush {
			err = u.flushConn(conn)
		}
		if err == nil {
			return nil
		}
		if conn, gen, err = u.fail(gen, err); err != nil {
			return err
		}
		err = conn.SendBuffered(m)
	}
}

// Recv implements message.Conn: it receives the next downstream message
// (control traffic), transparently reconnecting on link failure. After a
// reconnect, the parent's plan resync (epoch diff or full plan) is delivered
// first so the consumer catches up before reading control traffic from the
// new connection. Single consumer only.
func (u *uplink) Recv() (*message.Message, error) {
	conn, gen, err := u.current()
	if err != nil {
		return nil, err
	}
	for {
		u.mu.Lock()
		if len(u.pending) > 0 {
			m := u.pending[0]
			u.pending = u.pending[1:]
			u.mu.Unlock()
			return m, nil
		}
		u.mu.Unlock()
		m, rerr := conn.Recv()
		if rerr == nil {
			return m, nil
		}
		if conn, gen, err = u.fail(gen, rerr); err != nil {
			return nil, err
		}
	}
}

// Close implements message.Conn: it flushes and closes the live connection
// and marks the uplink down so in-flight reconnects abort. The error of a
// failed final flush is returned: those frames are lost.
func (u *uplink) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	close(u.closeCh)
	conn := u.conn
	if u.down == nil {
		u.down = fmt.Errorf("%w: closed", ErrUplinkDown)
	}
	u.cond.Broadcast()
	u.mu.Unlock()
	var err error
	if conn != nil {
		// Close the socket before waiting for the heartbeat loop: a
		// heartbeat Send blocked on a stalled peer is released by the close.
		err = conn.Close()
	}
	if u.hbDone != nil {
		<-u.hbDone
	}
	return err
}

// BytesSent implements message.Conn: cumulative across reconnects.
func (u *uplink) BytesSent() uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	total := u.prevBytes
	if u.conn != nil {
		total += u.conn.BytesSent()
	}
	return total
}

// heartbeatLoop sends a KindHeartbeat carrying the load digest every
// period, whatever the traffic: an idle-but-alive child is never evicted by
// the parent's liveness timeout (§3.2), a busy one still refreshes its lag
// gauges at the parent, and the heartbeat's Send flushes what waits queued,
// which bounds a stranded frame to one period. One goroutine and one ticker
// per uplink, regardless of message volume.
func (u *uplink) heartbeatLoop() {
	defer close(u.hbDone)
	t := time.NewTicker(u.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-u.closeCh:
			return
		case <-t.C:
		}
		if err := u.Send(&message.Message{Kind: message.KindHeartbeat, From: u.id, Load: u.digest()}); err != nil {
			return // terminal: uplink down or closed
		}
	}
}

// digest builds the heartbeat load digest: the child's plan epoch and
// watermark, and how full the uplink's replay ring is.
func (u *uplink) digest() *telemetry.LoadDigest {
	u.mu.Lock()
	watermark, epoch := u.watermarkFn, u.epochFn
	replayLen := u.filled
	u.mu.Unlock()
	return &telemetry.LoadDigest{Epoch: epoch(), Watermark: watermark(), ReplayLen: uint32(replayLen)}
}

var _ message.Conn = (*uplink)(nil)
var _ message.BufferedSender = (*uplink)(nil)
