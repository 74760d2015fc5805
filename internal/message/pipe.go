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
	codec    Codec
	out      chan<- []byte
	in       <-chan []byte
	sent     atomic.Uint64
	throttle *Throttle
	closed   sync.Once
}

// NewPipe returns the two connected endpoints of an in-process link using
// the given codec, with a queue of buffer messages in each direction.
func NewPipe(codec Codec, buffer int) (*Pipe, *Pipe) {
	ab := make(chan []byte, buffer)
	ba := make(chan []byte, buffer)
	a := &Pipe{codec: codec, out: ab, in: ba}
	b := &Pipe{codec: codec, out: ba, in: ab}
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

// Send implements Conn.
func (p *Pipe) Send(m *Message) (err error) {
	buf, err := p.codec.Append(nil, m)
	if err != nil {
		return err
	}
	if p.throttle != nil {
		p.throttle.Take(len(buf))
	}
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("message: send on closed pipe")
		}
	}()
	p.out <- buf
	p.sent.Add(uint64(len(buf)))
	return nil
}

// Recv implements Conn.
func (p *Pipe) Recv() (*Message, error) {
	buf, ok := <-p.in
	if !ok {
		return nil, io.EOF
	}
	return p.codec.Decode(buf)
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
