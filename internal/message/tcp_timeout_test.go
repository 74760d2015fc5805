package message

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"desis/internal/event"
)

// tcpPair returns two ends of a loopback TCP connection wrapped as TCPConns.
func tcpPair(t *testing.T) (client, server *TCPConn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", Binary{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type accepted struct {
		c   *TCPConn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	client, err = Dial(l.Addr(), Binary{})
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	t.Cleanup(func() { client.Close(); a.c.Close() })
	return client, a.c
}

// rawServerConn returns a raw client socket plus the server-side TCPConn, so
// tests can write malformed frames the framing layer must reject.
func rawServerConn(t *testing.T) (raw net.Conn, server *TCPConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ch := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(ch)
			return
		}
		ch <- c
	}()
	raw, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, ok := <-ch
	if !ok {
		t.Fatal("accept failed")
	}
	server = NewTCPConn(c, Binary{})
	t.Cleanup(func() { raw.Close(); server.Close() })
	return raw, server
}

// TestRecvTimeoutSemantics pins the error taxonomy of RecvTimeout: an idle
// link times out with ErrTimeout (and recovers once traffic resumes), a clean
// close is io.EOF, a trickled partial frame still times out (also when each
// byte arrives inside the deadline), a death mid-frame is
// io.ErrUnexpectedEOF, and an oversized length prefix is ErrFrameTooLarge.
func TestRecvTimeoutSemantics(t *testing.T) {
	t.Run("idle times out then recovers", func(t *testing.T) {
		client, server := tcpPair(t)
		start := time.Now()
		_, err := server.RecvTimeout(80 * time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("idle recv: got %v, want ErrTimeout", err)
		}
		if el := time.Since(start); el < 60*time.Millisecond || el > 2*time.Second {
			t.Fatalf("timeout fired after %v, want ~80ms", el)
		}
		// The deadline must not poison the connection: the next frame is
		// received normally, both with and without a timeout.
		if err := client.Send(&Message{Kind: KindHello, From: 7}); err != nil {
			t.Fatal(err)
		}
		m, err := server.RecvTimeout(time.Second)
		if err != nil || m.Kind != KindHello || m.From != 7 {
			t.Fatalf("recv after timeout: %v, %v", m, err)
		}
		if err := client.Send(&Message{Kind: KindWatermark, Watermark: 42}); err != nil {
			t.Fatal(err)
		}
		m, err = server.Recv() // untimed Recv must clear the old deadline
		if err != nil || m.Watermark != 42 {
			t.Fatalf("untimed recv after timeout: %v, %v", m, err)
		}
	})

	t.Run("clean close is EOF", func(t *testing.T) {
		client, server := tcpPair(t)
		client.Close()
		if _, err := server.RecvTimeout(time.Second); !errors.Is(err, io.EOF) {
			t.Fatalf("got %v, want io.EOF", err)
		}
	})

	t.Run("trickled partial frame times out", func(t *testing.T) {
		raw, server := rawServerConn(t)
		// Header promising 100 bytes, then only 3 bytes and silence: the
		// deadline covers the whole frame.
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 100)
		raw.Write(hdr[:])
		raw.Write([]byte{1, 2, 3})
		if _, err := server.RecvTimeout(80 * time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("got %v, want ErrTimeout", err)
		}
	})

	t.Run("steady trickle times out as a whole", func(t *testing.T) {
		raw, server := rawServerConn(t)
		// Every byte arrives well inside the deadline, the frame as a whole
		// would take two seconds: one deadline must cover all its reads.
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 100)
		raw.Write(hdr[:])
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for i := 0; i < 100; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				raw.Write([]byte{byte(i)})
			}
		}()
		start := time.Now()
		_, err := server.RecvTimeout(150 * time.Millisecond)
		close(stop)
		<-done
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("got %v, want ErrTimeout", err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("timed out after %v: the deadline was re-armed while the frame trickled in", el)
		}
	})

	t.Run("death mid-frame is unexpected EOF", func(t *testing.T) {
		raw, server := rawServerConn(t)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 100)
		raw.Write(hdr[:])
		raw.Write([]byte{1, 2, 3})
		raw.Close()
		if _, err := server.RecvTimeout(time.Second); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})

	t.Run("oversized frame is rejected", func(t *testing.T) {
		raw, server := rawServerConn(t)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
		raw.Write(hdr[:])
		if _, err := server.RecvTimeout(time.Second); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
}

// deadlineCounter counts the read deadlines set on a connection.
type deadlineCounter struct {
	net.Conn
	armed atomic.Int64
}

func (c *deadlineCounter) SetReadDeadline(t time.Time) error {
	c.armed.Add(1)
	return c.Conn.SetReadDeadline(t)
}

// TestRecvTimeoutArmsPerRead: a burst that arrives in one socket read is
// received with one read deadline, not one per frame — the frames already
// in the read buffer never wait on the socket.
func TestRecvTimeoutArmsPerRead(t *testing.T) {
	a, b := net.Pipe()
	dc := &deadlineCounter{Conn: b}
	server := NewTCPConn(dc, Binary{})
	t.Cleanup(func() { a.Close(); server.Close() })
	const n = 100
	var burst []byte
	for i := 0; i < n; i++ {
		var err error
		if burst, err = AppendFrame(burst, Binary{}, &Message{Kind: KindWatermark, From: 1, Watermark: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write(burst) // one write: net.Pipe hands it to one read
		wrote <- err
	}()
	for i := 0; i < n; i++ {
		m, err := server.RecvTimeout(5 * time.Second)
		if err != nil || m.Watermark != int64(i) {
			t.Fatalf("frame %d: %+v, %v", i, m, err)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if got := dc.armed.Load(); got > 2 {
		t.Fatalf("%d frames in one write armed %d read deadlines, want at most 2", n, got)
	}
}

// TestRecvTimeoutNoGoroutinePerMessage asserts the deadline mechanism is O(1)
// per connection: receiving thousands of timed frames must not grow the
// goroutine count (the old implementation leaked a watchdog goroutine and a
// timer per Recv).
func TestRecvTimeoutNoGoroutinePerMessage(t *testing.T) {
	client, server := tcpPair(t)
	const n = 2000
	//lint:ignore goroutinelife the sender runs a fixed-count loop and exits on its own; the test measures the receiver's goroutine count
	go func() {
		for i := 0; i < n; i++ {
			if err := client.Send(&Message{Kind: KindWatermark, Watermark: int64(i)}); err != nil {
				return
			}
		}
	}()
	base := runtime.NumGoroutine()
	maxG := base
	for i := 0; i < n; i++ {
		if _, err := server.RecvTimeout(5 * time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if i%200 == 0 {
			if g := runtime.NumGoroutine(); g > maxG {
				maxG = g
			}
		}
	}
	if maxG > base+4 {
		t.Fatalf("goroutines grew from %d to %d over %d timed receives", base, maxG, n)
	}
}

// TestSendWriteTimeout verifies a configured write deadline bounds Send when
// the peer stops draining, instead of blocking the sender forever.
func TestSendWriteTimeout(t *testing.T) {
	client, _ := tcpPair(t) // server never reads
	client.SetWriteTimeout(100 * time.Millisecond)
	big := &Message{Kind: KindEventBatch, Events: make([]event.Event, 1<<15)}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := client.Send(big); err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("send error: %v, want deadline exceeded", err)
			}
			return
		}
	}
	t.Fatal("Send never failed against a stalled peer")
}
