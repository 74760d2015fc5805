package message

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrame bounds a single message frame (64 MiB), protecting against
// corrupt length prefixes.
const maxFrame = 64 << 20

const (
	// flushAt is the queued size at which SendBuffered writes on its own, so
	// a sender that never reaches a flush point holds a bounded buffer.
	flushAt = 1 << 16
	// keepBuf is the largest write or read buffer a connection keeps between
	// frames; one oversized frame (a plan, a stats snapshot) does not pin its
	// memory for the connection's lifetime.
	keepBuf = 1 << 20
)

// ErrTimeout is returned (wrapped) by RecvTimeout when no complete frame
// arrived within the configured deadline — the §3.2 liveness condition.
// Callers distinguish it from io.EOF (peer closed cleanly) and from decode
// or framing errors (corrupt stream) with errors.Is.
var ErrTimeout = errors.New("message: receive timed out")

// ErrFrameTooLarge is returned (wrapped) when a length prefix exceeds the
// frame limit; the stream is unrecoverable past this point.
var ErrFrameTooLarge = errors.New("message: frame exceeds limit")

// BufferedSender is the optional write-coalescing side of a Conn: a sender
// that produces a burst of frames queues them and flushes once, when its
// unit of work is done or it is about to block, so the burst costs one write
// instead of one per frame. Nodes find it by type assertion (Buffered); a
// Conn without it — a pipe, a batcher, any wrapper that embeds Conn — keeps
// one transmission per Send.
type BufferedSender interface {
	// SendBuffered encodes m behind the frames already queued, under the
	// same no-retention contract as Conn.Send. The frame reaches the peer no
	// later than the next Flush or Send on the connection.
	SendBuffered(m *Message) error
	// Flush transmits everything queued.
	Flush() error
}

// Buffered returns c's write-coalescing side, or an adapter that transmits
// on every SendBuffered when c has none.
func Buffered(c Conn) BufferedSender {
	if b, ok := c.(BufferedSender); ok {
		return b
	}
	return unbuffered{c}
}

// unbuffered adapts a plain Conn: nothing is ever queued, so there is
// nothing to flush.
type unbuffered struct{ c Conn }

func (u unbuffered) SendBuffered(m *Message) error { return u.c.Send(m) }
func (u unbuffered) Flush() error                  { return nil }

// TCPConn is a Conn over a TCP socket with 4-byte length framing. Send,
// SendBuffered and Flush are safe for concurrent use; Recv/RecvTimeout and
// InputBuffered must be called from a single reader goroutine.
type TCPConn struct {
	c     net.Conn
	codec Codec
	r     *bufio.Reader
	// rbuf holds the payload of the frame being decoded; codecs keep no
	// alias into it (TestDecodeKeepsNoAlias), so the next frame reuses it.
	rbuf []byte
	rhdr [4]byte // a local array would escape through io.ReadFull and allocate

	wmu sync.Mutex
	// wbuf holds the length-prefixed frames queued since the last flush.
	wbuf []byte
	// werr is the first write failure (or the close): a failed write leaves
	// the stream mid-frame, so every later send fails with it.
	werr error
	sent atomic.Uint64

	// rdArmed tracks whether a read deadline is currently set on the
	// socket, so an untimed Recv after a RecvTimeout clears it. Only the
	// reader goroutine touches it.
	rdArmed bool
	// writeTimeout bounds each flush (and the final one in Close); zero
	// means no write deadline.
	writeTimeout atomic.Int64
}

// NewTCPConn wraps an established connection. The same codec must be used on
// both ends.
func NewTCPConn(c net.Conn, codec Codec) *TCPConn {
	return &TCPConn{
		c:     c,
		codec: codec,
		r:     bufio.NewReaderSize(c, 1<<16),
		// Sized for a full buffer up front: queueing reallocates nothing on
		// the way to the first flush.
		wbuf: make([]byte, 0, flushAt),
	}
}

// Dial connects to a Desis node at addr.
func Dial(addr string, codec Codec) (*TCPConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("message: dial %s: %w", addr, err)
	}
	return NewTCPConn(c, codec), nil
}

// SetWriteTimeout bounds every subsequent flush (Send's, and the final one
// in Close) with a write deadline, so a stalled peer cannot block a sender
// forever. Zero disables the deadline. Safe for concurrent use.
func (t *TCPConn) SetWriteTimeout(d time.Duration) { t.writeTimeout.Store(int64(d)) }

// Send implements Conn: SendBuffered, then Flush.
func (t *TCPConn) Send(m *Message) error {
	if err := t.SendBuffered(m); err != nil {
		return err
	}
	return t.Flush()
}

// AppendFrame appends m's wire frame — the 4-byte little-endian length
// prefix the receiving TCPConn reads, then codec's encoding of m — to buf.
// On an encoding error buf comes back at its old length.
func AppendFrame(buf []byte, codec Codec, m *Message) ([]byte, error) {
	out, err := codec.Append(append(buf, 0, 0, 0, 0), m)
	if err != nil {
		return buf, err
	}
	binary.LittleEndian.PutUint32(out[len(buf):], uint32(len(out)-len(buf)-4))
	return out, nil
}

// SendBuffered implements BufferedSender. The frame is encoded straight into
// the connection's write buffer and its length prefix filled in place; the
// buffer is written out when it passes flushAt.
func (t *TCPConn) SendBuffered(m *Message) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.werr != nil {
		return t.werr
	}
	buf, err := AppendFrame(t.wbuf, t.codec, m)
	if err != nil {
		return err // t.wbuf still ends where it did: no torn frame is queued
	}
	t.wbuf = buf
	return t.queuedLocked()
}

// SendFrame queues a frame that AppendFrame built with this connection's
// codec, like SendBuffered but without encoding again: the bytes are copied,
// so the caller may reuse frame once SendFrame returns.
func (t *TCPConn) SendFrame(frame []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.werr != nil {
		return t.werr
	}
	t.wbuf = append(t.wbuf, frame...)
	return t.queuedLocked()
}

// queuedLocked writes the queue out once it has passed flushAt.
func (t *TCPConn) queuedLocked() error {
	if len(t.wbuf) >= flushAt {
		return t.flushLocked()
	}
	return nil
}

// Flush implements BufferedSender: one write for everything queued.
func (t *TCPConn) Flush() error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.flushLocked()
}

func (t *TCPConn) flushLocked() error {
	if t.werr != nil {
		return t.werr
	}
	if len(t.wbuf) == 0 {
		return nil
	}
	if d := time.Duration(t.writeTimeout.Load()); d > 0 {
		_ = t.c.SetWriteDeadline(time.Now().Add(d))
	}
	n, err := t.c.Write(t.wbuf)
	if err != nil {
		t.werr = err
		return err
	}
	t.sent.Add(uint64(n))
	if cap(t.wbuf) > keepBuf {
		t.wbuf = nil
	}
	t.wbuf = t.wbuf[:0]
	return nil
}

// Recv implements Conn. It blocks until a full frame arrives or the peer
// closes (io.EOF).
func (t *TCPConn) Recv() (*Message, error) { return t.RecvTimeout(0) }

// InputBuffered reports how many received bytes are waiting in the read
// buffer. Zero means the next Recv has to wait for the socket, which makes
// it the moment to Flush whatever handling the previous frames queued.
func (t *TCPConn) InputBuffered() int { return t.r.Buffered() }

// RecvTimeout is Recv bounded by a read deadline on the socket: if no
// complete frame arrives within d the error wraps ErrTimeout. A
// non-positive d blocks forever, like Recv. The deadline covers the whole
// frame, so a peer trickling a partial frame slower than d also times out.
// No goroutines or timers are allocated — the deadline is enforced by the
// kernel via SetReadDeadline, O(1) state per connection regardless of how
// many messages are received — and it is armed only when the frame is not
// already in the read buffer: the frames of one burst arrive in one socket
// read, and all but the first are decoded without a clock read or a
// deadline update.
func (t *TCPConn) RecvTimeout(d time.Duration) (*Message, error) {
	if d <= 0 && t.rdArmed {
		if err := t.c.SetReadDeadline(time.Time{}); err != nil {
			return nil, err
		}
		t.rdArmed = false
	}
	armed := false
	if err := t.armFor(len(t.rhdr), d, &armed); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(t.r, t.rhdr[:]); err != nil {
		return nil, t.classify(err, d)
	}
	n := binary.LittleEndian.Uint32(t.rhdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if int(n) > cap(t.rbuf) || cap(t.rbuf) > keepBuf {
		t.rbuf = make([]byte, n)
	}
	payload := t.rbuf[:n]
	if err := t.armFor(int(n), d, &armed); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(t.r, payload); err != nil {
		return nil, t.classify(err, d)
	}
	return t.codec.Decode(payload)
}

// armFor sets the read deadline d from now when reading need more bytes has
// to wait on the socket, unless this receive already set it: one deadline
// then covers every socket read of the frame. Reads the buffer can satisfy
// never reach the socket, so a deadline left from an earlier frame is
// harmless to them.
func (t *TCPConn) armFor(need int, d time.Duration, armed *bool) error {
	if d <= 0 || *armed || t.r.Buffered() >= need {
		return nil
	}
	if err := t.c.SetReadDeadline(time.Now().Add(d)); err != nil {
		return err
	}
	*armed, t.rdArmed = true, true
	return nil
}

// classify maps a transport read error to the protocol taxonomy: deadline
// expiries become ErrTimeout, a clean close before any frame byte stays
// io.EOF, and everything else (including a peer dying mid-frame, reported
// as io.ErrUnexpectedEOF) passes through.
func (t *TCPConn) classify(err error, d time.Duration) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w after %v", ErrTimeout, d)
	}
	return err
}

// Close implements Conn: it flushes what is queued and closes the socket.
// A failed final flush is lost data, so its error is returned beside the
// socket's.
func (t *TCPConn) Close() error {
	t.wmu.Lock()
	err := t.flushLocked()
	if t.werr == nil {
		t.werr = net.ErrClosed
	}
	t.wmu.Unlock()
	return errors.Join(err, t.c.Close())
}

// BytesSent implements Conn. Bytes count once they are written to the
// socket, so frames still queued are not in it.
func (t *TCPConn) BytesSent() uint64 { return t.sent.Load() }

// Listener accepts Desis node connections.
type Listener struct {
	l     net.Listener
	codec Codec
}

// Listen starts a listener on addr (e.g. ":7070").
func Listen(addr string, codec Codec) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("message: listen %s: %w", addr, err)
	}
	return &Listener{l: l, codec: codec}, nil
}

// Accept blocks for the next inbound connection.
func (l *Listener) Accept() (*TCPConn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewTCPConn(c, l.codec), nil
}

// Addr returns the bound address, useful with ":0" listeners.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Close stops accepting.
func (l *Listener) Close() error { return l.l.Close() }

var _ Conn = (*TCPConn)(nil)
var _ BufferedSender = (*TCPConn)(nil)
var _ Conn = (*Pipe)(nil)
