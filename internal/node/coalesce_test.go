package node

import (
	"errors"
	"maps"
	"sync"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/query"
)

// Write coalescing (DESIGN.md §5c) over real loopback TCP: frames queued on
// an uplink must never wait for traffic that may not come, and a link that
// dies with frames queued must lose none of them.

// checkSums holds every window of the root's results to the same sum.
func checkSums(t *testing.T, results []core.Result, windows int, want float64) {
	t.Helper()
	sums := sumByWindow(results)
	if len(sums) != windows {
		t.Fatalf("windows: %d, want %d (%v)", len(sums), windows, sums)
	}
	for start, sum := range sums {
		if sum != want {
			t.Errorf("window %d: sum %g, want %g (lost or double-merged partial)", start, sum, want)
		}
	}
}

// TestCoalesceNoStrandedFrame: two locals under an IntermediateServer burst
// and then go silent mid-stream (the merged watermark needs both). With
// heartbeats off nothing but the flush-before-block rule can move a frame,
// and the root's watermark must still reach the end of the burst without any
// further send.
func TestCoalesceNoStrandedFrame(t *testing.T) {
	root, results := faultRoot(t, 1, 0)
	quiet := DialOptions{Heartbeat: -1}
	inter, err := ServeIntermediateOptions("127.0.0.1:0", root.Addr(), 1001, 2, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}

	// Neither local streams before both have joined: a slice forwarded with
	// one contributor would drop the sibling's as a duplicate.
	var joined, done sync.WaitGroup
	joined.Add(2)
	release := make(chan struct{})
	errs := make([]error, 2)
	for i := range errs {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			errs[i] = RunLocalTCPOptions(inter.Addr(), uint32(1+i), 64, quiet, func(l *LocalSession) error {
				joined.Done()
				joined.Wait()
				if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
					return err
				}
				if err := l.AdvanceTo(1000); err != nil {
					return err
				}
				<-release // silent from here on
				return nil
			})
		}(i)
	}
	waitUntil(t, 5*time.Second, "root watermark 1000 with both children silent", func() bool { return root.Watermark() >= 1000 })
	checkSums(t, results(), 10, 20)

	close(release)
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("local %d: %v", 1+i, err)
		}
	}
	if err := inter.Wait(); err != nil {
		t.Errorf("inter.Wait: %v", err)
	}
	if err := root.Wait(); err != nil {
		t.Errorf("root.Wait: %v", err)
	}
}

// TestHeartbeatFlushesQueuedFrames is the safety net behind the rule: frames
// queued by a call site that never flushes reach the parent with the next
// heartbeat, within one period.
func TestHeartbeatFlushesQueuedFrames(t *testing.T) {
	const hb = 250 * time.Millisecond
	root, results := faultRoot(t, 1, 20*hb)
	release := make(chan struct{})
	queued := make(chan time.Time, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunLocalTCPOptions(root.Addr(), 1, 64, DialOptions{Heartbeat: hb}, func(l *LocalSession) error {
			if err := l.AdvanceTo(0); err != nil { // ordinary, flushed traffic
				return err
			}
			l.mu.Lock()
			// The engine hands closed slices to Local.sendPartial, which
			// queues them; going around Local.Process skips its flush.
			l.l.engine.ProcessBatch(stepEvents(0, 1000, 10))
			l.l.engine.AdvanceTo(1000)
			err := l.l.up.SendBuffered(&message.Message{Kind: message.KindWatermark, From: 1, Watermark: 1000})
			l.mu.Unlock()
			queued <- time.Now()
			<-release
			return err
		})
	}()
	t0 := <-queued
	if wm := root.Watermark(); wm >= 1000 {
		t.Fatalf("root watermark %d right after queueing: the frames were not held back, the test proves nothing", wm)
	}
	waitUntil(t, hb+hb/2, "queued frames at the root", func() bool { return root.Watermark() >= 1000 })
	if el := time.Since(t0); el > hb+hb/2 {
		t.Errorf("queued frames took %v, want within one heartbeat period (%v)", el, hb)
	}
	checkSums(t, results(), 10, 10)
	close(release)
	if err := <-errCh; err != nil {
		t.Fatalf("local: %v", err)
	}
	if err := root.Wait(); err != nil {
		t.Fatalf("root.Wait: %v", err)
	}
}

// TestFaultSeverWithUnflushedFrames cuts the link between a burst that
// closed more slices than the replay ring holds and the burst's flush. The
// uplink flushed on its own every replayDepth/2 frames, so everything older
// than the ring was written before the cut and the unflushed tail is in the
// ring: after the reconnect every window is there exactly once. (The cut
// waits for the written frames to arrive: a link that dies with more than a
// ring's worth of frames in flight loses some with or without coalescing.)
func TestFaultSeverWithUnflushedFrames(t *testing.T) {
	root, results := faultRoot(t, 1, 5*time.Second)
	proxy, err := newFaultProxy(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	const slices = 100 // > replayDepth (64), and not a multiple of 32
	opts := DialOptions{
		Heartbeat: 50 * time.Millisecond,
		Retry:     RetryPolicy{MaxRetries: 200, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond},
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunLocalTCPOptions(proxy.Addr(), 1, 64, opts, func(l *LocalSession) error {
			if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(1000); err != nil {
				return err
			}
			l.mu.Lock()
			up := l.l.conn.(*uplink)
			l.l.engine.ProcessBatch(stepEvents(1000, 1000+100*slices, 10))
			up.mu.Lock()
			unflushed := up.unflushed
			up.mu.Unlock()
			if unflushed == 0 || unflushed >= replayDepth/2 {
				t.Errorf("unflushed frames before the cut: %d, want in (0, %d)", unflushed, replayDepth/2)
			}
			// One child, so every partial that arrived is one the root's
			// merger holds or has forwarded: their count is the number of
			// frames delivered. (Every slice here holds events, so every
			// slice is a frame.)
			written := int64(l.l.engine.Stats().Slices) - int64(unflushed)
			delivered := func() bool {
				root.mu.Lock()
				defer root.mu.Unlock()
				mg := root.root.merger
				return int64(mg.pending)+mg.PartialsSent() >= written
			}
			for deadline := time.Now().Add(5 * time.Second); !delivered(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					l.mu.Unlock()
					return errors.New("the frames written before the cut never reached the root")
				}
			}
			proxy.SeverAll() // reconnects still pass through the proxy
			l.l.flush()
			err := l.l.err
			l.mu.Unlock()
			if err != nil {
				return err
			}
			return l.AdvanceTo(1000 + 100*slices)
		})
	}()
	if err := <-errCh; err != nil {
		t.Fatalf("local: %v", err)
	}
	if err := root.Wait(); err != nil {
		t.Fatalf("root.Wait: %v, want nil after a successful reconnect", err)
	}
	if ev := root.Evicted(); len(ev) != 0 {
		t.Fatalf("evicted %v, want none", ev)
	}
	if n := len(proxy.Links()); n < 2 {
		t.Fatalf("proxy links: %d, want >= 2 (the sever forced a reconnect)", n)
	}
	checkSums(t, results(), 10+slices, 10)
}

// sendCounter embeds message.Conn and overrides only Send, as a tracing or
// accounting wrapper does: it counts the frames that pass through Send.
type sendCounter struct {
	message.Conn
	sent map[message.Kind]int
}

func (c *sendCounter) Send(m *message.Message) error {
	c.sent[m.Kind]++
	return c.Conn.Send(m)
}

// wrappedTCP returns a sendCounter over the dialling end of a loopback TCP
// pair and a channel that yields, once the wrapper closes, the frames the
// accepting end received by kind.
func wrappedTCP(t *testing.T) (*sendCounter, <-chan map[message.Kind]int) {
	t.Helper()
	l, err := message.Listen("127.0.0.1:0", message.Binary{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := message.Dial(l.Addr(), message.Binary{})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan map[message.Kind]int, 1)
	go func() {
		defer peer.Close()
		recv := make(map[message.Kind]int)
		for {
			m, err := peer.Recv()
			if err != nil {
				got <- recv
				return
			}
			recv[m.Kind]++
			if m.Kind == message.KindPartial {
				message.ReleasePartial(m.Partial)
			}
		}
	}()
	return &sendCounter{Conn: c, sent: make(map[message.Kind]int)}, got
}

// checkWrapperSawAll holds the frames a wrapper's Send saw to what its peer
// received, which must include partials, event batches and watermarks.
func checkWrapperSawAll(t *testing.T, node string, sent, recv map[message.Kind]int) {
	t.Helper()
	for _, k := range []message.Kind{message.KindPartial, message.KindEventBatch, message.KindWatermark} {
		if recv[k] == 0 {
			t.Errorf("%s: the peer received no frame of kind %d, the check proves nothing", node, k)
		}
	}
	if !maps.Equal(sent, recv) {
		t.Errorf("%s: a Send-only wrapper saw %v, the peer received %v: frames went around Send", node, sent, recv)
	}
}

// TestSendOnlyWrapperSeesEveryFrame guards the rule of DESIGN.md §5c that
// message.Conn stays at four methods: a wrapper that embeds it and
// overrides only Send sees every frame a Local and an Intermediate send over
// a real TCP link. Were SendBuffered part of Conn, the embedding would
// promote the TCPConn's own and the nodes' queued frames would bypass the
// wrapper.
func TestSendOnlyWrapperSeesEveryFrame(t *testing.T) {
	sum := query.MustParse("tumbling(100ms) sum key=0")
	sum.ID = 1
	count := query.MustParse("tumbling(50ev) max key=2")
	count.ID = 2
	p, err := plan.New([]query.Query{sum, count}, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	up, got := wrappedTCP(t)
	l := NewLocalFromPlan(1, p, up, 0)
	evs := stepEvents(0, 1000, 10)
	for i := range evs {
		evs[i].Key = uint32(i%2) * 2
	}
	if err := l.Process(evs); err != nil {
		t.Fatal(err)
	}
	if err := l.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	checkWrapperSawAll(t, "local", up.sent, <-got)

	up, got = wrappedTCP(t)
	n := NewIntermediate(1001, []uint32{1}, up)
	for _, m := range []*message.Message{
		{Kind: message.KindPartial, From: 1, Partial: mkPartial(0, 0, 100, 2, 1)},
		{Kind: message.KindEventBatch, From: 1, Events: []event.Event{{Time: 50, Key: 2, Value: 1}}},
		{Kind: message.KindWatermark, From: 1, Watermark: 100},
	} {
		if err := n.Handle(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	checkWrapperSawAll(t, "intermediate", up.sent, <-got)
}
