package node

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"desis/internal/message"
)

// Fault injection for the decentralized transport (§3.2 fault tolerance):
// faultConn wraps a net.Conn so a test can sever, stall, or delay a link on
// command; faultListener hands out fault-controllable accepted connections;
// faultProxy splices a client to a fixed target through a faultConn, which
// lets the fault suites inject faults between nodes that own their
// listeners (the TCP servers of this package).

// errSevered is returned by faultConn operations after Sever.
var errSevered = errors.New("fault: link severed")

// faultConn is a net.Conn whose delivery can be manipulated at runtime:
//
//   - SetDelay(d) sleeps d before every Read and Write (link latency);
//   - Stall() blocks all Reads and Writes until Resume (a live but frozen
//     link: bytes already accepted by the kernel still drain, nothing new
//     moves — heartbeats stop arriving without the socket closing);
//   - Sever() closes the underlying socket and fails every later operation
//     (abrupt node/link death).
type faultConn struct {
	net.Conn
	mu      sync.Mutex
	delay   time.Duration
	stall   chan struct{} // non-nil while stalled; closed to release waiters
	severed bool
}

// newFaultConn wraps an established connection.
func newFaultConn(c net.Conn) *faultConn { return &faultConn{Conn: c} }

// SetDelay imposes a per-operation latency; zero removes it.
func (f *faultConn) SetDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// Stall freezes the link: Reads and Writes block until Resume or Sever.
func (f *faultConn) Stall() {
	f.mu.Lock()
	if f.stall == nil && !f.severed {
		f.stall = make(chan struct{})
	}
	f.mu.Unlock()
}

// Resume releases a stalled link.
func (f *faultConn) Resume() {
	f.mu.Lock()
	if f.stall != nil {
		close(f.stall)
		f.stall = nil
	}
	f.mu.Unlock()
}

// Sever closes the underlying connection and releases any stalled waiters;
// every subsequent operation fails.
func (f *faultConn) Sever() {
	f.mu.Lock()
	f.severed = true
	if f.stall != nil {
		close(f.stall)
		f.stall = nil
	}
	f.mu.Unlock()
	f.Conn.Close()
}

// gate applies the current fault mode before an operation. Stall is a loop:
// a Resume immediately followed by another Stall re-blocks the waiter.
func (f *faultConn) gate() error {
	for {
		f.mu.Lock()
		if f.severed {
			f.mu.Unlock()
			return errSevered
		}
		d, ch := f.delay, f.stall
		f.mu.Unlock()
		if d > 0 {
			time.Sleep(d)
		}
		if ch == nil {
			return nil
		}
		<-ch
	}
}

// Read implements net.Conn.
func (f *faultConn) Read(p []byte) (int, error) {
	if err := f.gate(); err != nil {
		return 0, err
	}
	return f.Conn.Read(p)
}

// Write implements net.Conn.
func (f *faultConn) Write(p []byte) (int, error) {
	if err := f.gate(); err != nil {
		return 0, err
	}
	return f.Conn.Write(p)
}

// faultListener wraps a net.Listener: every accepted connection comes back
// as a faultConn registered with the listener, and new connections can be
// rejected wholesale (a node that is up but refusing service).
type faultListener struct {
	net.Listener
	mu     sync.Mutex
	conns  []*faultConn
	reject bool
}

// newFaultListener wraps an existing listener.
func newFaultListener(l net.Listener) *faultListener { return &faultListener{Listener: l} }

// Accept implements net.Listener. While rejection is on, inbound
// connections are closed immediately and Accept keeps waiting.
func (l *faultListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		if l.reject {
			l.mu.Unlock()
			c.Close()
			continue
		}
		fc := newFaultConn(c)
		l.conns = append(l.conns, fc)
		l.mu.Unlock()
		return fc, nil
	}
}

// RejectNew toggles whether inbound connections are refused.
func (l *faultListener) RejectNew(on bool) {
	l.mu.Lock()
	l.reject = on
	l.mu.Unlock()
}

// Conns returns every connection accepted so far, oldest first.
func (l *faultListener) Conns() []*faultConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*faultConn(nil), l.conns...)
}

// faultProxy is a byte-level TCP proxy to a fixed target. Each inbound
// connection becomes a faultLink whose faults apply to both directions, so
// tests can place it between a child and its parent without touching either
// node's listener. Codec-agnostic: it splices raw bytes.
type faultProxy struct {
	l      net.Listener
	target string
	mu     sync.Mutex
	links  []*faultLink
	reject bool
	closed bool
}

// faultLink is one proxied connection pair. Faults are applied on the
// client-facing side, gating both the upstream and downstream byte flow.
type faultLink struct {
	*faultConn          // client side; Sever/Stall/Resume/SetDelay act here
	server     net.Conn // target side
	once       sync.Once
}

// close tears down both halves of the link.
func (ln *faultLink) close() {
	ln.once.Do(func() {
		ln.faultConn.Conn.Close()
		ln.server.Close()
	})
}

// Sever cuts the link abruptly: both sides observe a closed connection.
func (ln *faultLink) Sever() {
	ln.faultConn.Sever()
	ln.close()
}

// newFaultProxy listens on 127.0.0.1:0 and forwards every connection to
// target, returning the proxy once it is accepting.
func newFaultProxy(target string) (*faultProxy, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &faultProxy{l: l, target: target}
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address; point children here instead of at the
// real parent.
func (p *faultProxy) Addr() string { return p.l.Addr().String() }

// RejectNew toggles whether new inbound connections are refused — combined
// with Sever or Stall on existing links this makes reconnection attempts
// fail, simulating a dead parent or a partitioned child.
func (p *faultProxy) RejectNew(on bool) {
	p.mu.Lock()
	p.reject = on
	p.mu.Unlock()
}

// Links returns every proxied connection so far, oldest first.
func (p *faultProxy) Links() []*faultLink {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*faultLink(nil), p.links...)
}

// StallAll freezes every live link (see faultConn.Stall).
func (p *faultProxy) StallAll() {
	for _, ln := range p.Links() {
		ln.Stall()
	}
}

// ResumeAll releases every stalled link.
func (p *faultProxy) ResumeAll() {
	for _, ln := range p.Links() {
		ln.Resume()
	}
}

// SeverAll abruptly cuts every live link; new connections still proxy unless
// RejectNew is on.
func (p *faultProxy) SeverAll() {
	for _, ln := range p.Links() {
		ln.Sever()
	}
}

// Close stops accepting and tears down every link.
func (p *faultProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	links := append([]*faultLink(nil), p.links...)
	p.mu.Unlock()
	err := p.l.Close()
	for _, ln := range links {
		ln.close()
	}
	return err
}

func (p *faultProxy) acceptLoop() {
	for {
		c, err := p.l.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		reject := p.reject || p.closed
		p.mu.Unlock()
		if reject {
			c.Close()
			continue
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		ln := &faultLink{faultConn: newFaultConn(c), server: server}
		p.mu.Lock()
		p.links = append(p.links, ln)
		p.mu.Unlock()
		go splice(server, ln.faultConn, ln)
		go splice(ln.faultConn, server, ln)
	}
}

// splice copies one direction until it fails, then tears the link down (the
// protocol treats a half-dead link as dead, matching §3.2 node loss).
func splice(dst io.Writer, src io.Reader, ln *faultLink) {
	_, _ = io.Copy(dst, src)
	ln.close()
}

// echoServer accepts TCPConns on l and echoes every message back until the
// connection dies.
func echoServer(t *testing.T, l *message.Listener) {
	t.Helper()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(m); err != nil {
						return
					}
				}
			}()
		}
	}()
}

// proxiedEcho starts an echo server behind a faultProxy and dials through it.
func proxiedEcho(t *testing.T) (*faultProxy, *message.TCPConn) {
	t.Helper()
	l, err := message.Listen("127.0.0.1:0", message.Binary{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	echoServer(t, l)
	p, err := newFaultProxy(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c, err := message.Dial(p.Addr(), message.Binary{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return p, c
}

func roundTrip(t *testing.T, c *message.TCPConn, wm int64, timeout time.Duration) error {
	t.Helper()
	if err := c.Send(&message.Message{Kind: message.KindWatermark, Watermark: wm}); err != nil {
		return err
	}
	m, err := c.RecvTimeout(timeout)
	if err != nil {
		return err
	}
	if m.Watermark != wm {
		t.Fatalf("echoed watermark %d, want %d", m.Watermark, wm)
	}
	return nil
}

// TestFaultProxyStallResumeSever walks one link through the full fault
// repertoire: healthy round trip, stall (live socket, nothing moves, receives
// time out), resume (buffered frame finally delivered), sever (both ends see
// the link die), and rejection of new connections.
func TestFaultProxyStallResumeSever(t *testing.T) {
	p, c := proxiedEcho(t)
	if err := roundTrip(t, c, 1, time.Second); err != nil {
		t.Fatalf("healthy round trip: %v", err)
	}
	if len(p.Links()) != 1 {
		t.Fatalf("links: %d, want 1", len(p.Links()))
	}

	// Stall: the socket stays open but no bytes are proxied, so the echo
	// never comes back — exactly the failure the liveness timeout exists for.
	p.StallAll()
	if err := roundTrip(t, c, 2, 150*time.Millisecond); !errors.Is(err, message.ErrTimeout) {
		t.Fatalf("stalled round trip: %v, want ErrTimeout", err)
	}

	// Resume: the frame buffered during the stall is delivered.
	p.ResumeAll()
	if m, err := c.RecvTimeout(2 * time.Second); err != nil || m.Watermark != 2 {
		t.Fatalf("recv after resume: %v, %v", m, err)
	}

	// Sever: every later operation on the link fails.
	p.SeverAll()
	failed := false
	for i := 0; i < 10 && !failed; i++ {
		failed = roundTrip(t, c, 3, 200*time.Millisecond) != nil
	}
	if !failed {
		t.Fatal("round trip survived a severed link")
	}

	// RejectNew: a fresh dial may connect (the proxy accepts and drops it)
	// but never reaches the echo server.
	p.RejectNew(true)
	c2, err := message.Dial(p.Addr(), message.Binary{})
	if err != nil {
		return // refused outright is also a pass
	}
	defer c2.Close()
	if err := roundTrip(t, c2, 4, 300*time.Millisecond); err == nil {
		t.Fatal("round trip through a rejecting proxy succeeded")
	}
}

// TestFaultConnDelay checks SetDelay imposes per-operation latency.
func TestFaultConnDelay(t *testing.T) {
	p, c := proxiedEcho(t)
	if err := roundTrip(t, c, 1, time.Second); err != nil {
		t.Fatal(err)
	}
	for _, ln := range p.Links() {
		ln.SetDelay(60 * time.Millisecond)
	}
	start := time.Now()
	if err := roundTrip(t, c, 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 60*time.Millisecond {
		t.Fatalf("delayed round trip took %v, want >= 60ms", el)
	}
}

// TestFaultListener exercises the listener-side wrapper: accepted conns are
// registered FaultConns, rejection drops new connections, and Sever fails
// both the wrapped conn and its peer.
func TestFaultListener(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	fl := newFaultListener(inner)
	acc := make(chan *message.TCPConn, 4)
	go func() {
		for {
			c, err := fl.Accept()
			if err != nil {
				return
			}
			acc <- message.NewTCPConn(c, message.Binary{})
		}
	}()

	client, err := message.Dial(inner.Addr().String(), message.Binary{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-acc
	defer server.Close()
	if n := len(fl.Conns()); n != 1 {
		t.Fatalf("registered conns: %d, want 1", n)
	}
	if err := client.Send(&message.Message{Kind: message.KindWatermark, Watermark: 9}); err != nil {
		t.Fatal(err)
	}
	if m, err := server.RecvTimeout(time.Second); err != nil || m.Watermark != 9 {
		t.Fatalf("recv through fault listener: %v, %v", m, err)
	}

	// Sever the accepted conn: raw reads fail with errSevered, framed
	// receives fail with a closed-link error, the client observes the close.
	fl.Conns()[0].Sever()
	if _, err := fl.Conns()[0].Read(make([]byte, 1)); !errors.Is(err, errSevered) {
		t.Fatalf("read on severed conn: %v, want errSevered", err)
	}
	if _, err := server.RecvTimeout(time.Second); err == nil || errors.Is(err, message.ErrTimeout) {
		t.Fatalf("recv on severed conn: %v, want a closed-link error", err)
	}
	if _, err := client.RecvTimeout(time.Second); err == nil || errors.Is(err, message.ErrTimeout) {
		t.Fatalf("peer of severed conn: %v, want a closed-link error", err)
	}

	// Rejection: the dial may succeed at the TCP level, but the connection
	// is closed immediately and never surfaced.
	fl.RejectNew(true)
	c2, err := message.Dial(inner.Addr().String(), message.Binary{})
	if err == nil {
		defer c2.Close()
		if _, err := c2.RecvTimeout(500 * time.Millisecond); err == nil || errors.Is(err, message.ErrTimeout) {
			t.Fatalf("rejected conn recv: %v, want EOF/closed", err)
		}
	}
	select {
	case <-acc:
		t.Fatal("rejected connection was surfaced by Accept")
	case <-time.After(100 * time.Millisecond):
	}
}
