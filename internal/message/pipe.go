package message

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Pipe is one side of an in-process connection. Messages are fully encoded
// and decoded so byte accounting and codec coverage match a real network,
// and the bounded queue provides the backpressure that sustainable
// throughput measurements rely on (§6.1).
type Pipe struct {
	codec Codec
	out   chan<- []byte
	in    <-chan []byte
	// sendFree and recvFree are the free lists of encoded frames of the
	// outgoing and incoming direction: Recv hands a frame it has decoded to
	// its direction's list, and the sender encodes the next frame into it.
	sendFree <-chan []byte
	recvFree chan<- []byte
	inbox    inbox
	sent     atomic.Uint64
	throttle *Throttle
	closed   sync.Once
}

// pipeFree is the length of a direction's free list. A link whose receiver
// keeps up holds a frame or two in flight; frames beyond the list, queued
// while the receiver lags, are left to the collector.
const pipeFree = 8

// NewPipe returns the two connected endpoints of an in-process link using
// the given codec, with a queue of buffer messages in each direction.
func NewPipe(codec Codec, buffer int) (*Pipe, *Pipe) {
	ab, abFree := make(chan []byte, buffer), make(chan []byte, pipeFree)
	ba, baFree := make(chan []byte, buffer), make(chan []byte, pipeFree)
	a := &Pipe{codec: codec, out: ab, sendFree: abFree, in: ba, recvFree: baFree}
	b := &Pipe{codec: codec, out: ba, sendFree: baFree, in: ab, recvFree: abFree}
	return a, b
}

// NewThrottledPipe is NewPipe with a bandwidth limit, in bytes per second,
// applied to each direction independently — the model of the Raspberry-Pi
// cluster's 1 GbE links (§6.5.2).
func NewThrottledPipe(codec Codec, buffer int, bytesPerSecond float64) (*Pipe, *Pipe) {
	a, b := NewPipe(codec, buffer)
	a.throttle = NewThrottle(bytesPerSecond)
	b.throttle = NewThrottle(bytesPerSecond)
	return a, b
}

// Send implements Conn, encoding m into a frame from the free list.
//
//desis:hotpath
func (p *Pipe) Send(m *Message) (err error) {
	var buf []byte
	select {
	case buf = <-p.sendFree:
	default:
	}
	buf, err = p.codec.Append(buf[:0], m)
	if err != nil {
		return err
	}
	if p.throttle != nil {
		p.throttle.Take(len(buf))
	}
	//lint:ignore hotalloc the deferred closure is open-coded and does not escape
	defer func() {
		if recover() != nil {
			//lint:ignore hotalloc cold path: a send after Close
			err = fmt.Errorf("message: send on closed pipe")
		}
	}()
	p.out <- buf
	p.sent.Add(uint64(len(buf)))
	return nil
}

// Recv implements Conn. The frame goes back to the free list once decoded:
// codecs keep no alias into it.
//
//desis:hotpath
func (p *Pipe) Recv() (*Message, error) {
	buf, ok := <-p.in
	if !ok {
		return nil, io.EOF
	}
	m, err := p.inbox.decode(p.codec, buf)
	if cap(buf) <= keepBuf {
		select {
		case p.recvFree <- buf:
		default:
		}
	}
	return m, err
}

// Close implements Conn. The peer's Recv drains buffered messages, then
// returns io.EOF.
func (p *Pipe) Close() error {
	p.closed.Do(func() { close(p.out) })
	return nil
}

// BytesSent implements Conn.
func (p *Pipe) BytesSent() uint64 { return p.sent.Load() }

// Throttle is a token-bucket bandwidth limiter.
type Throttle struct {
	mu    sync.Mutex
	rate  float64 // bytes per second
	avail float64
	last  time.Time
	burst float64
}

// throttleMaxFrame is the burst floor: one maximum-size data frame (a
// BatchingConn's byte cap) must always be instantly admittable, so the
// bucket never models a link slower than its largest frame.
const throttleMaxFrame = batchMaxBytes

// NewThrottle returns a limiter admitting bytesPerSecond on average with a
// burst of ~100ms of the rate (floored at one maximum frame). A fixed burst
// independent of the rate would let a slow link admit many seconds of
// traffic instantly and skew every bandwidth measurement against it.
func NewThrottle(bytesPerSecond float64) *Throttle {
	burst := bytesPerSecond / 10
	if burst < throttleMaxFrame {
		burst = throttleMaxFrame
	}
	return &Throttle{rate: bytesPerSecond, last: time.Now(), burst: burst}
}

// Take blocks until n bytes of bandwidth are available. A non-positive rate
// means unlimited.
func (t *Throttle) Take(n int) {
	t.mu.Lock()
	if t.rate <= 0 {
		t.mu.Unlock()
		return
	}
	now := time.Now()
	t.avail += now.Sub(t.last).Seconds() * t.rate
	t.last = now
	if t.avail > t.burst {
		t.avail = t.burst
	}
	t.avail -= float64(n)
	var wait time.Duration
	if t.avail < 0 {
		wait = time.Duration(-t.avail / t.rate * float64(time.Second))
	}
	t.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}
