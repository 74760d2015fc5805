package message

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desis/internal/event"
)

// countingConn counts the Write calls that reach the socket: one Write is
// one write(2).
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countedPair is tcpPair with the client's socket behind a countingConn.
func countedPair(t *testing.T) (client *TCPConn, cc *countingConn, server *TCPConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cc = &countingConn{Conn: raw}
	client, server = NewTCPConn(cc, Binary{}), NewTCPConn(acc, Binary{})
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, cc, server
}

// TestSendBufferedOneWritePerFlush pins the transport contract: N queued
// frames and one Flush are one write, a plain Send is one write, an empty
// Flush is none, and queued bytes count as sent only once written.
func TestSendBufferedOneWritePerFlush(t *testing.T) {
	client, cc, server := countedPair(t)
	const n = 50
	for i := 0; i < n; i++ {
		if err := client.SendBuffered(&Message{Kind: KindPartial, From: 1, Partial: samplePartial()}); err != nil {
			t.Fatal(err)
		}
	}
	if w, b := cc.writes.Load(), client.BytesSent(); w != 0 || b != 0 {
		t.Fatalf("before Flush: %d writes, %d bytes sent, want none", w, b)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := cc.writes.Load(); w != 1 {
		t.Fatalf("%d frames + Flush: %d writes, want 1", n, w)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := cc.writes.Load(); w != 1 {
		t.Fatalf("empty Flush wrote: %d writes, want 1", w)
	}
	if err := client.Send(&Message{Kind: KindWatermark, From: 1, Watermark: 7}); err != nil {
		t.Fatal(err)
	}
	if w := cc.writes.Load(); w != 2 {
		t.Fatalf("Send: %d writes, want 2", w)
	}
	for i := 0; i < n; i++ {
		m, err := server.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !messagesEqual(m, &Message{Kind: KindPartial, From: 1, Partial: samplePartial()}) {
			t.Fatalf("frame %d differs: %+v", i, m)
		}
	}
	m, err := server.RecvTimeout(5 * time.Second)
	if err != nil || m.Watermark != 7 {
		t.Fatalf("watermark: %v, %v", m, err)
	}
	if server.InputBuffered() != 0 {
		t.Fatalf("InputBuffered = %d after the last frame, want 0", server.InputBuffered())
	}
}

// TestSendBufferedFlushesWhenFull checks a sender that never flushes holds a
// bounded buffer: the connection writes on its own past flushAt.
func TestSendBufferedFlushesWhenFull(t *testing.T) {
	client, cc, server := countedPair(t)
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := server.Recv(); err != nil {
				done <- err
				return
			}
		}
	}()
	m := &Message{Kind: KindEventBatch, Events: make([]event.Event, 256)}
	for i := 0; cc.writes.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("1000 event batches queued and never written")
		}
		if err := client.SendBuffered(m); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	<-done
}

// TestSendOrderAcrossGoroutines interleaves Send and SendBuffered from two
// goroutines: frames arrive whole and each goroutine's frames in the order
// it queued them.
func TestSendOrderAcrossGoroutines(t *testing.T) {
	client, _, server := countedPair(t)
	const n = 2000
	var wg sync.WaitGroup
	for g := uint32(0); g < 2; g++ {
		wg.Add(1)
		go func(g uint32) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				m := &Message{Kind: KindWatermark, From: g, Watermark: int64(i)}
				var err error
				if g == 0 {
					err = client.Send(m)
				} else if err = client.SendBuffered(m); err == nil && i%64 == 63 {
					err = client.Flush()
				}
				if err != nil {
					t.Errorf("goroutine %d frame %d: %v", g, i, err)
					return
				}
			}
			if err := client.Flush(); err != nil {
				t.Errorf("goroutine %d final flush: %v", g, err)
			}
		}(g)
	}
	next := [2]int64{}
	for i := 0; i < 2*n; i++ {
		m, err := server.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Kind != KindWatermark || m.From > 1 || m.Watermark != next[m.From] {
			t.Fatalf("recv %d: got kind %d from %d watermark %d, want watermark %d", i, m.Kind, m.From, m.Watermark, next[m.From])
		}
		next[m.From]++
	}
	wg.Wait()
}

// TestDecodeKeepsNoAlias is what lets RecvTimeout decode every frame out of
// one per-connection buffer: a decoded message is unchanged after the bytes
// it was decoded from are overwritten, for every kind and codec.
func TestDecodeKeepsNoAlias(t *testing.T) {
	batch := &Message{Kind: KindBatch, From: 5, Batch: randomBatch(rand.New(rand.NewSource(1)), 12)}
	for _, f := range batch.Batch.Frames {
		f.From = 5 // a batch carries one sender for all its frames
	}
	data := append(sampleMessages(), batch)
	all := append(data, controlMessages()...)
	// The text codec carries no control plane (see TestTextRoundTrip).
	for c, msgs := range map[Codec][]*Message{Binary{}: all, Compact{}: all, Text{}: data} {
		for _, m := range msgs {
			buf, err := c.Append(nil, m)
			if err != nil {
				t.Fatalf("%s: Append(kind %d): %v", c.Name(), m.Kind, err)
			}
			got, err := c.Decode(buf)
			if err != nil {
				t.Fatalf("%s: Decode(kind %d): %v", c.Name(), m.Kind, err)
			}
			for i := range buf {
				buf[i] = 0xA5
			}
			if !messagesEqual(got, m) {
				t.Errorf("%s kind %d: decoded message changed when its buffer was overwritten:\n got %+v\nwant %+v", c.Name(), m.Kind, got, m)
			}
		}
	}
}

// TestFlushWriteTimeout extends TestSendWriteTimeout to the buffered path:
// the write deadline is armed per flush, and after a failed write every
// later send reports the same error instead of writing behind a torn frame.
func TestFlushWriteTimeout(t *testing.T) {
	client, _ := tcpPair(t) // server never reads
	client.SetWriteTimeout(100 * time.Millisecond)
	big := &Message{Kind: KindEventBatch, Events: make([]event.Event, 1<<12)}
	deadline := time.Now().Add(10 * time.Second)
	var ferr error
	for ferr == nil {
		if !time.Now().Before(deadline) {
			t.Fatal("Flush never failed against a stalled peer")
		}
		for i := 0; i < 4 && ferr == nil; i++ {
			ferr = client.SendBuffered(big)
		}
		if ferr == nil {
			ferr = client.Flush()
		}
	}
	if !errors.Is(ferr, os.ErrDeadlineExceeded) {
		t.Fatalf("flush error: %v, want deadline exceeded", ferr)
	}
	if err := client.SendBuffered(&Message{Kind: KindHeartbeat}); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("SendBuffered after a failed write: %v, want the write's error", err)
	}
	if err := client.Close(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Close after a failed write: %v, want the write's error", err)
	}
}

// TestCloseReturnsFlushError checks the final flush is not a courtesy: when
// queued frames cannot be written, Close says so.
func TestCloseReturnsFlushError(t *testing.T) {
	a, b := net.Pipe()
	b.Close()
	c := NewTCPConn(a, Binary{})
	if err := c.SendBuffered(&Message{Kind: KindWatermark, Watermark: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err == nil {
		t.Fatal("Close with an unwritable queued frame returned nil")
	}
}

// TestTransportSteadyStateAllocs holds the hot path to its budget: queueing
// a partial allocates nothing once the write buffer has grown, and receiving
// allocates no payload buffer — only what Decode builds.
func TestTransportSteadyStateAllocs(t *testing.T) {
	client, server := tcpPair(t)
	m := &Message{Kind: KindPartial, From: 1, Partial: samplePartial()}
	if err := client.Send(m); err != nil { // grow the write buffer once
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := client.SendBuffered(m); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("SendBuffered(partial): %v allocs per frame, want 0", a)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 201; i++ { // AllocsPerRun's warm-up call included
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	// Receive side: Decode's own allocations for this frame, measured on the
	// same bytes, are the whole budget.
	payload, err := Binary{}.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	decodeOnly := testing.AllocsPerRun(200, func() {
		if _, err := (Binary{}).Decode(payload); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < 201; i++ {
		if err := client.SendBuffered(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		if _, err := server.Recv(); err != nil {
			t.Fatal(err)
		}
	}); a > decodeOnly {
		t.Errorf("Recv: %v allocs per frame, Decode alone %v: the transport allocates per frame", a, decodeOnly)
	}
}
