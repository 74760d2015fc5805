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

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/invariant"
	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
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
// reconnect replays exactly the last replayDepth of them — byte for byte the
// frames the dead connection carried, oldest first — and nothing else.
func TestUplinkReplayRingEncoded(t *testing.T) {
	// More than two rings' worth, and not a multiple of the replayDepth/2
	// flush stride.
	const n = 150
	// One slot per connection the test makes, and room for every frame it
	// sends on one: the handlers never block on the test.
	conns := make(chan chan []byte, 2)
	addr := fakeParent(t, func(c net.Conn) {
		frames := make(chan []byte, n)
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
	u, _, err := dialUplink(addr, 1, DialOptions{Heartbeat: -1})
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
			p := mkPartial(0, i*100, (i+1)*100, float64(i), i)
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
	for i, want := range sent[n-replayDepth:] {
		if got := next(second); !bytes.Equal(got, want) {
			t.Fatalf("replayed frame %d differs from frame %d of the dead link:\n got %x\nwant %x", i, n-replayDepth+i, got, want)
		}
	}
	if err := u.Send(&message.Message{Kind: message.KindHeartbeat, From: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := message.Binary{}.Decode(next(second))
	if err != nil || m.Kind != message.KindHeartbeat {
		t.Fatalf("frame after the replay: %+v, %v; want the heartbeat (the ring replayed more than %d frames)", m, err, replayDepth)
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
	m := &message.Message{Kind: message.KindPartial, From: 1, Partial: mkPartial(0, 0, 100, 1, 1)}
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

// TestLocalSendPartialAllocs: a warm Local over a TCP uplink sends each closed
// slice's partial and its watermark without allocating — the Message it
// fills is its own, reused for every send.
func TestLocalSendPartialAllocs(t *testing.T) {
	addr := fakeParent(t, func(c net.Conn) { _, _ = io.Copy(io.Discard, c) })
	u, p, err := dialUplink(addr, 1, DialOptions{Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	l := NewLocalFromPlan(1, p, u, 0)
	// One event per 100 ms tumbling slice; the advance past its end closes
	// the slice, so every step sends one partial and one watermark.
	evs := make([]event.Event, 1)
	var at int64
	step := func() {
		evs[0] = event.Event{Time: at + 10, Key: 0, Value: 1}
		at += 100
		if err := l.Process(evs); err != nil {
			t.Fatal(err)
		}
		if err := l.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*len(u.replay); i++ {
		step()
	}
	before := l.Stats().Slices
	a := testing.AllocsPerRun(200, step)
	if l.Stats().Slices-before < 200 {
		t.Fatalf("closed %d slices in 201 steps, want one per step", l.Stats().Slices-before)
	}
	if raceBuild || invariant.Enabled || telemetry.TraceEnabled {
		return // the race detector's pool drops items; the poison registry and tracing allocate
	}
	if a != 0 {
		t.Errorf("Local sending one partial and one watermark: %v allocs, want 0", a)
	}
}

// TestIntermediateOutAllocs: a warm Intermediate over a TCP uplink sends the
// merged partial and the merged watermark without allocating. Its input comes
// from decoding, as in a running node; decoding alone is the whole budget.
func TestIntermediateOutAllocs(t *testing.T) {
	addr := fakeParent(t, func(c net.Conn) { _, _ = io.Copy(io.Discard, c) })
	u, _, err := dialUplink(addr, 1001, DialOptions{Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	n := NewIntermediate(1001, []uint32{1, 2}, u)
	decode := partialDecoder(t)
	wm := &message.Message{Kind: message.KindWatermark}
	in := &message.Message{Kind: message.KindPartial}
	handle := func(m *message.Message) {
		if err := n.Handle(m); err != nil {
			t.Fatal(err)
		}
	}
	var at int64
	step := func(merge bool) {
		p1, p2 := decode(1, at, at+100), decode(2, at, at+100)
		at += 100
		if !merge {
			message.ReleasePartial(p1)
			message.ReleasePartial(p2)
			return
		}
		for i, p := range [2]*core.SlicePartial{p1, p2} {
			in.From, in.Partial = uint32(1+i), p
			handle(in)
		}
		for from := uint32(1); from <= 2; from++ {
			wm.From, wm.Watermark = from, at
			handle(wm)
		}
	}
	for i := 0; i < 2*len(u.replay); i++ {
		step(true)
	}
	sent := n.merger.PartialsSent()
	handled := testing.AllocsPerRun(200, func() { step(true) })
	decodeOnly := testing.AllocsPerRun(200, func() { step(false) })
	if got := n.merger.PartialsSent() - sent; got < 200 {
		t.Fatalf("sent %d merged partials in 201 steps, want one per step", got)
	}
	if raceBuild || invariant.Enabled || telemetry.TraceEnabled {
		return // the race detector's pool drops items; the poison registry and tracing allocate
	}
	if handled > decodeOnly {
		t.Errorf("decode+merge+send step: %v allocs, decode alone %v: the intermediate allocates per sent partial or watermark", handled, decodeOnly)
	}
}
