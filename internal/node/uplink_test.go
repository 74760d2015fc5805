package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/query"
)

// fakeParent is a raw TCP parent for uplink tests: it answers every hello
// with a full plan and then hands the connection, positioned after the
// handshake, to serve.
func fakeParent(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	p, err := plan.New([]query.Query{mustQuery(t, "tumbling(100ms) sum key=0")}, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := message.AppendFrame(nil, message.Binary{}, &message.Message{Kind: message.KindPlanState, Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Cleanup runs after the test closed its uplink, so every handler has
	// seen its connection end.
	var wg sync.WaitGroup
	t.Cleanup(func() { l.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				if _, err := readFrame(c); err != nil { // the hello
					return
				}
				if _, err := c.Write(reply); err != nil {
					return
				}
				serve(c)
			}()
		}
	}()
	return l.Addr().String()
}

// readFrame reads one length-prefixed frame and returns its payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	_, err := io.ReadFull(r, payload)
	return payload, err
}

// TestUplinkReplayRingEncoded: after more data frames than the ring holds, a
// reconnect replays exactly the last ReplayDepth of them — byte for byte the
// frames the dead connection carried, oldest first — and nothing else.
func TestUplinkReplayRingEncoded(t *testing.T) {
	// One slot per connection the test makes, and room for every frame it
	// sends on one: the handlers never block on the test.
	conns := make(chan chan []byte, 2)
	addr := fakeParent(t, func(c net.Conn) {
		frames := make(chan []byte, 64)
		conns <- frames
		defer close(frames)
		for {
			f, err := readFrame(c)
			if err != nil {
				return
			}
			frames <- f
		}
	})
	const depth, n = 8, 21
	u, _, err := dialUplink(addr, 1, DialOptions{Heartbeat: -1, ReplayDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	next := func(frames chan []byte) []byte {
		t.Helper()
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("connection closed early")
			}
			return f
		case <-time.After(5 * time.Second):
			t.Fatal("no frame within 5s")
		}
		return nil
	}
	first := <-conns
	for i := int64(0); i < n; i++ {
		m := &message.Message{Kind: message.KindWatermark, From: 1, Watermark: i}
		if i%3 != 0 {
			p := mkPartial(0, i*100, (i+1)*100, i*100+90, float64(i), i)
			p.ID = uint64(i)
			m = &message.Message{Kind: message.KindPartial, From: 1, Partial: p}
		}
		if err := u.SendBuffered(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(); err != nil {
		t.Fatal(err)
	}
	var sent [][]byte
	for i := 0; i < n; i++ {
		sent = append(sent, next(first))
	}

	u.mu.Lock()
	gen := u.gen
	u.mu.Unlock()
	if _, _, err := u.fail(gen, errors.New("link severed by the test")); err != nil {
		t.Fatal(err)
	}
	second := <-conns
	for i, want := range sent[n-depth:] {
		if got := next(second); !bytes.Equal(got, want) {
			t.Fatalf("replayed frame %d differs from frame %d of the dead link:\n got %x\nwant %x", i, n-depth+i, got, want)
		}
	}
	if err := u.Send(&message.Message{Kind: message.KindHeartbeat, From: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := message.Binary{}.Decode(next(second))
	if err != nil || m.Kind != message.KindHeartbeat {
		t.Fatalf("frame after the replay: %+v, %v; want the heartbeat (the ring replayed more than %d frames)", m, err, depth)
	}
}

// TestUplinkSendBufferedAllocs: once every replay slot has grown, sending a
// partial through the uplink and flushing it allocates nothing — no clone
// for the ring, no copied message, no ring shift.
func TestUplinkSendBufferedAllocs(t *testing.T) {
	addr := fakeParent(t, func(c net.Conn) { _, _ = io.Copy(io.Discard, c) })
	u, _, err := dialUplink(addr, 1, DialOptions{Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	m := &message.Message{Kind: message.KindPartial, From: 1, Partial: mkPartial(0, 0, 100, 90, 1, 1)}
	send := func() {
		if err := u.SendBuffered(m); err != nil {
			t.Fatal(err)
		}
		if err := u.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*len(u.replay); i++ {
		send()
	}
	if a := testing.AllocsPerRun(200, send); a != 0 {
		t.Errorf("SendBuffered(partial)+Flush on a warm uplink: %v allocs, want 0", a)
	}
}
